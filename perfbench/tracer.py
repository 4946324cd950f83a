"""Spans around runblock's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the traced modules in
every module namespace that binds it, which is where its callers look it
up, so no file of the program changes. A span is (id, parent id, name,
thread, start, end, size): start and end are the CPU time of the calling
thread, and size is the input length of a parser. CPU time keeps the time
an `evaluate` worker waits for the interpreter lock, while the other worker
runs, out of the layer it waits in. Spans stay in memory until the request
ends; `end_request` then folds them into the round's sums of self time,
where a span's self time is its CPU time minus that of its children on the
same thread.

Per-row helpers are left unwrapped, so their time stays in the function
that calls them; `is_canonical` only counts the runs it checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

MODULES = ("formats", "core", "mh", "extract", "features", "oracle", "cli")
UNWRAPPED = {
    "core.canonicalize_row", "core.decode_row", "core.encode_row",
    "extract.locate_start", "extract.locate_end",
    "features.foreground_pixels", "features.foreground_total",
    "features.transition_columns", "features.transitions_in_row",
}
VALIDATE = "core.CompressedDoc"


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self.runs_validated = 0  # runs checked by is_canonical in this request
        self._request_start = 0.0  # process CPU time when the request began
        # folded results: sums over the current round, then one dict per round
        self.round: dict[str, float] = defaultdict(float)
        self.rounds: list[dict[str, float]] = []
        self._restore: list[tuple] = []

    # ---------------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, size=None):
        """Wrap `fn` in a span; `size(args)`, when given, is kept with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = size(args) if size is not None else 0
            stack = self._stack()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.thread_time()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end, amount))

        return traced

    # ---------------------------------------------------------------- installing

    def install(self) -> None:
        import runblock

        modules = [importlib.import_module(f"runblock.{m}") for m in MODULES]
        namespaces = [runblock, *modules]
        sizes = {
            "formats.read_rle": lambda a: len(a[0]),
            "formats.read_pbm": lambda a: len(a[0]),
            "mh.mh_decode_image": lambda a: 8 * len(a[0]),
        }
        replacements = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "core.is_canonical":
                    replacements[obj] = self._counting_is_canonical(obj)
                elif name not in UNWRAPPED:
                    replacements[obj] = self.span(name, obj, sizes.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, replacements[obj])
        doc_cls = runblock.core.CompressedDoc
        post_init = doc_cls.__post_init__
        self._restore.append((doc_cls, "__post_init__", post_init))
        doc_cls.__post_init__ = self.span(VALIDATE, post_init)

    def _counting_is_canonical(self, fn):
        @functools.wraps(fn)
        def counted(runs):
            with self._lock:
                self.runs_validated += len(runs)
            return fn(runs)

        return counted

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # ---------------------------------------------------------------- folding

    def begin_request(self) -> None:
        self._request_start = time.process_time()

    def end_request(self) -> None:
        """Add the finished request's spans to the round's sums and drop them.

        `cli.self` is the request's process CPU time minus the self time of
        every span outside `cli`. So it also holds what no span covers: the
        private helpers and file reads that `evaluate` runs on its worker
        threads, and the pool itself.
        """
        request_cpu = time.process_time() - self._request_start
        spans, self.spans = self.spans, []
        children = defaultdict(list)
        names = {}
        for sid, parent, name, thread, start, end, _ in spans:
            children[parent].append((thread, end - start, name))
            names[sid] = name
        total = self.round
        outside_cli = 0.0
        for sid, parent, name, thread, start, end, size in spans:
            kids = [(cpu, n) for t, cpu, n in children.get(sid, ()) if t == thread]
            own = (end - start) - sum(cpu for cpu, _ in kids)
            total["self:" + name] += own
            total["total:" + name] += end - start
            total["size:" + name] += size
            if not name.startswith("cli."):
                outside_cli += own
            if name == "extract.extract_block_detailed":
                total["extract.trim"] += sum(cpu for cpu, n in kids if n == "extract.trim_row")
            elif name == "extract.extract_block" and names.get(parent) == "features.characterize":
                total["features.verify"] += end - start
        total["cli.self"] += request_cpu - outside_cli
        total["requests"] += 1
        with self._lock:
            total["runs_validated"] += self.runs_validated
            self.runs_validated = 0

    def end_round(self) -> None:
        self.rounds.append(self.round)
        self.round = defaultdict(float)

    # ---------------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values. A time is the layer's total in one round of the
        request list, median over rounds; a count is per request. A layer
        that never ran reads 0."""

        def ms(key):
            return 1e3 * statistics.median(r.get(key, 0.0) for r in self.rounds)

        first = self.rounds[0]  # counts repeat exactly in every round
        parsed = first["size:formats.read_rle"] + first["size:formats.read_pbm"]
        mh_ms = ms("total:mh.mh_decode_image")
        mh_bits = first["size:mh.mh_decode_image"]
        return {
            "formats.read_rle_ms": (ms("self:formats.read_rle"), "ms"),
            "formats.write_rle_ms": (ms("self:formats.write_rle"), "ms"),
            "formats.read_pbm_ms": (ms("self:formats.read_pbm"), "ms"),
            "formats.write_pbm_ms": (ms("self:formats.write_pbm"), "ms"),
            "formats.bytes_parsed": (parsed / first["requests"], "bytes"),
            "core.validate_ms": (ms("self:" + VALIDATE), "ms"),
            "core.runs_validated": (first["runs_validated"] / first["requests"], "runs"),
            "core.encode_image_ms": (ms("self:core.encode_image"), "ms"),
            "core.decode_image_ms": (ms("self:core.decode_image"), "ms"),
            "mh.decode_image_ms": (ms("self:mh.mh_decode_image"), "ms"),
            "mh.decode_mbit_per_s": (mh_bits / mh_ms / 1e3 if mh_ms else 0.0, "Mbit/s"),
            "extract.scan_ms": (ms("self:extract.extract_block_detailed"), "ms"),
            "extract.trim_ms": (ms("extract.trim"), "ms"),
            "features.density_ms": (ms("total:features.density"), "ms"),
            "features.ceq_ms": (ms("total:features.ceq"), "ms"),
            "features.seq_ms": (ms("total:features.seq"), "ms"),
            "features.verify_ms": (ms("features.verify"), "ms"),
            "oracle.accuracy_compressed_ms": (ms("self:oracle.accuracy_compressed"), "ms"),
            "oracle.accuracy_pixel_ms": (ms("self:oracle.accuracy_pixel"), "ms"),
            "cli.self_ms": (ms("cli.self"), "ms"),
        }

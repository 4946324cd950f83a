"""`perfbench/tracer.py` wraps runblock's functions by their names, so a
rename in the package fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import runblock
from runblock import CompressedDoc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the spans that the benchmark's per-layer metrics read, by name
SPANS = [
    "formats.read_rle", "formats.write_rle", "formats.read_pbm", "formats.write_pbm",
    "core.encode_image", "core.decode_image", "mh.mh_decode_image",
    "extract.extract_block", "extract.extract_block_detailed", "extract.trim_row",
    "features.characterize", "features.density", "features.ceq", "features.seq",
    "oracle.accuracy_compressed", "oracle.accuracy_pixel",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_traced_names_and_uninstall_restores_them():
    tracer = load_tracer()
    namespaces = [runblock, *(importlib.import_module(f"runblock.{m}") for m in tracer.MODULES)]

    def bindings():
        """Every function bound in the traced namespaces, and the
        constructor's check, by (namespace, name)."""
        found = {(ns.__name__, attr): obj for ns in namespaces for attr, obj in vars(ns).items() if inspect.isfunction(obj)}
        found["CompressedDoc", "__post_init__"] = CompressedDoc.__post_init__
        return found

    before = bindings()
    traced = tracer.Tracer()
    traced.install()
    try:
        during = bindings()
    finally:
        traced.uninstall()
    assert bindings() == before
    wrapped = {key for key, obj in before.items() if during[key] is not obj}
    assert ("CompressedDoc", "__post_init__") in wrapped
    for name in SPANS:
        module, attr = name.split(".")
        assert (f"runblock.{module}", attr) in wrapped, name

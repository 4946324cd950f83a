"""runblock CLI benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload text_a4_rlc --seed 1 --seconds 45 --trace 0

Generates the workload's pages from the seed, measures set-up time in fresh
interpreters, replays the workload's requests in one separate process
(server.py), checks every output against the independent reference and
prints one JSON result as the last line. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced replay.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5  # timed set-ups before the replay, and as many after it
SETUP_CODE = "import sys, numpy, runblock.cli; sys.exit(runblock.cli.main(sys.argv[1:]))"
COMMANDS = ("extract", "characterize", "decode", "encode", "info", "evaluate")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(argv: list[str], env: dict, runs: int, problems: list[str]) -> list[float]:
    """CPU times (user + system) of fresh interpreters importing numpy and
    runblock and serving the first request. CPU time rather than wall time,
    because a start-up's wall time follows the load of the shared machine."""
    times = []
    for _ in range(runs):
        start = children_cpu_s()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(children_cpu_s() - start)
        if proc.returncode != 0:
            problems.append(f"set-up run exited {proc.returncode}: {proc.stderr[-200:]!r}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "runblock" / "cli.py").is_file():
        print(f"perfbench: no runblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = Path("perfbench") / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))

    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, work)
    generate_s = time.perf_counter() - start
    requests = workload.requests
    problems: list[str] = []
    setup_times = []
    if not args.trace:
        # the first run, untimed, brings the files it reads into the cache;
        # timed runs sit on both sides of the replay, so one slow spell of
        # the machine moves fewer of them
        measure_setup(requests[0].argv, env, 1, problems)
        setup_times = measure_setup(requests[0].argv, env, SETUP_RUNS, problems)

    spec, result_file = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({
        "requests": [r.argv for r in requests],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "main_page": workload.main_page,
    }))
    proc = subprocess.run([sys.executable, "perfbench/server.py", str(spec), str(result_file)],
                          env=env, timeout=args.seconds + 120)
    if proc.returncode != 0:
        print(f"perfbench: the request server exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text())

    for i, (request, stdout) in enumerate(zip(requests, result["stdout"])):
        if result["codes"][i] != 0:
            continue  # counted in `failed`
        try:
            problems += [f"{' '.join(request.argv[:2])}: {p}" for p in request.check(stdout)]
        except Exception as exc:  # a malformed output must not stop the other checks
            problems.append(f"{' '.join(request.argv[:2])}: check raised {exc!r}")
    for i in result["changed"]:
        problems.append(f"{' '.join(requests[i].argv[:2])}: output differs between rounds")
    for i, err in enumerate(result["stderr"]):
        if result["codes"][i] != 0:
            print(f"perfbench: request {requests[i].argv} exited {result['codes'][i]}: {err}",
                  file=sys.stderr)
    if not args.trace:  # after the checks, which read the first request's output
        setup_times += measure_setup(requests[0].argv, env, SETUP_RUNS, problems)
    for p in problems:
        print(f"perfbench: CHECK FAILED {p}", file=sys.stderr)

    durations = result["durations"]
    rounds = result["rounds"]
    round_s = [sum(d[k] for d in durations) for k in range(rounds)]
    requests_per_s = len(requests) / statistics.median(round_s)

    extracts = []
    for request, out in zip(requests, result["stdout"]):
        if request.extract:
            try:
                extracts.append((json.loads(out)["counters"], request.extract))
            except (ValueError, KeyError):  # already reported by the check
                pass
    counters = dict.fromkeys(["extract.rows", "extract.runs_visited", "extract.runs_emitted",
                              "extract.baseline_cell_ops", "extract.work_ratio"], 0.0)
    if extracts:
        baseline = [shape[0] * shape[1] + 2 * (x2 - x1 + 1) * (y2 - y1 + 1)
                    for _, ((x1, x2, y1, y2), shape) in extracts]
        for key in ("rows", "runs_visited", "runs_emitted"):
            counters[f"extract.{key}"] = statistics.fmean(c[key] for c, _ in extracts)
        counters["extract.baseline_cell_ops"] = statistics.fmean(baseline)
        work_ops = sum(c["runs_visited"] + c["runs_emitted"] for c, _ in extracts)
        counters["extract.work_ratio"] = work_ops / sum(baseline)
    transitions = [int(ref.transitions_per_row(r.characterized).sum())
                   for r in requests if r.characterized is not None]
    counters["features.transitions"] = statistics.fmean(transitions)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
        units = {"extract.work_ratio": "ratio", "features.transitions": "count"}
        for name, value in counters.items():
            metrics[name] = {"value": value, "unit": units.get(name, "count")}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   "requests_per_s": {"value": requests_per_s, "unit": "req/s"}}
        for command in COMMANDS:
            medians = [statistics.median(d) for r, d in zip(requests, durations)
                       if r.argv[0] == command]
            metrics[f"{command}_ms"] = {"value": 1e3 * statistics.fmean(medians), "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "requests_per_round": len(requests),
        "generate_s": generate_s,
        "requests_per_s": requests_per_s,
        "counters": counters,
        "inputs": workload.inputs,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1, default=int))
    print(json.dumps(summary, default=int))
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(requests),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

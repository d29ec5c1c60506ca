"""Run one benchmark workload against the sliceball sources of this checkout.

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick

A run builds its inputs from the seed, performs one untimed warm-up op, then
repeats whole rounds of ops, one op at a time, while another round still fits
in ``--seconds`` of op time (at least one round), and checks every output.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics, which come from spans around the calls
into each module (see layers.py).  Results and traces are also written under
``bench/out/``.  ``--quick`` runs every workload and the layer probe at a tiny
size, with every check, to exercise the harness.  See bench/README.md.
"""

from __future__ import annotations

import time

_LOADED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hamilton  # noqa: E402
import layers  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def process_age() -> float:
    """Seconds since this process started; since this file loaded where /proc is missing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _LOADED


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


WORKLOADS = ("verify-suite", "cli-oneshot", "library-calls")


def make_workload(name: str, seed: int, quick: bool = False):
    if name == "verify-suite" and quick:
        return W.VerifySuite(ROOT, seed, seeds=(seed,), extra_args=("--trials", "2"))
    if name == "verify-suite":
        return W.VerifySuite(ROOT, seed)
    if name == "library-calls":
        return W.LibraryCalls(ROOT, seed, items=10 if quick else 1000)
    return W.CliOneshot(ROOT, seed)


class Run:
    """Op latencies, per-round wall and CPU time, failures and problems of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.round_walls: list[float] = []
        self.round_cpus: list[float] = []
        self.failures: list[str] = []
        self.problems: list[str] = []

    def op(self, i: int, tracer=None):
        try:
            if tracer is None:
                return self.workload.run(i)
            return tracer.call("op", self.workload.run, i, tracer)
        except W.OpFailed as exc:
            self.failures.append(f"op {i} failed: {exc}")
            return None

    def one_round(self, tracer=None) -> None:
        outputs, timer = [], time.perf_counter
        cpu0 = cpu_seconds()
        wall = 0.0
        for i in range(len(self.workload)):
            if tracer is not None:
                tracer.new_op()
            start = timer()
            outputs.append(self.op(i, tracer))
            elapsed = timer() - start
            self.latencies.append(elapsed)
            wall += elapsed
        self.round_cpus.append(cpu_seconds() - cpu0)
        self.round_walls.append(wall)
        for i, out in enumerate(outputs):
            if out is not None:
                self.problems += self.workload.check(i, out)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {"setup_s": setup_s,
                "wall_s": statistics.median(self.round_walls),
                "op_ms_p50": 1e3 * statistics.median(self.latencies),
                "cpu_s": statistics.median(self.round_cpus),
                "peak_rss_mb": peak_rss_mb(self.workload.in_process)}


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Warm up, then time whole rounds while another still fits in ``seconds``.
    A traced run alternates untraced rounds with traced ones, keeps the spans
    of the first traced round, and then probes every layer."""
    warm = Run(workload)
    out = warm.op(0)
    if out is not None:
        warm.problems += workload.check(0, out)
    setup_s = process_age()

    tracer = layers.Tracer()
    runs = [Run(workload)] + ([Run(workload)] if trace else [])
    while True:
        runs[0].one_round()
        if trace:
            runs[1].one_round(tracer if not runs[1].round_walls else layers.Tracer())
        spent = sum(sum(r.round_walls) for r in runs)
        if spent + sum(r.round_walls[-1] for r in runs) > seconds:
            break
    timed = runs[0]
    result = {"end_to_end": timed.end_to_end(setup_s), "attempted": len(timed.latencies),
              "failed": len(timed.failures), "failures": warm.failures + timed.failures,
              "problems": warm.problems + timed.problems}
    if trace:
        traced = runs[1]
        result["per_layer"], probe_problems = layers.probe(ROOT, workload.seed, tracer,
                                                           quick=False)
        result["problems"] += traced.problems + probe_problems
        untraced_wall = statistics.median(timed.round_walls)
        traced_wall = statistics.median(traced.round_walls)
        result["trace"] = {"rounds": len(traced.round_walls),
                           "untraced_round_wall_s": untraced_wall,
                           "traced_round_wall_s": traced_wall,
                           "overhead": traced_wall / untraced_wall - 1.0,
                           "spans": tracer.as_records()}
    return result


def quick(seed: int, per_layer_names) -> int:
    """Every workload at a tiny size for one round, then one tiny layer probe."""
    ok = True
    for name in WORKLOADS:
        result = run_workload(make_workload(name, seed, quick=True), 0.0, trace=False)
        for problem in result["failures"] + result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        ok = ok and not result["failures"] and not result["problems"]
        print(json.dumps({"workload": name, "correct": not result["problems"],
                          "failed": result["failed"], "end_to_end": result["end_to_end"]}))
    per_layer, problems = layers.probe(ROOT, seed, layers.Tracer(), quick=True)
    for problem in problems:
        print(f"probe: {problem}", file=sys.stderr)
    missing = sorted(set(per_layer_names) - set(per_layer))
    print(json.dumps({"probe": "per_layer", "correct": not problems, "missing": missing}))
    return 0 if ok and not problems and not missing else 1


def environment() -> dict:
    from importlib import metadata
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions, "cores": os.cpu_count(),
            "machine": platform.machine()}


def metric_units() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def summary(result: dict, units: dict[str, str], kind: str) -> dict:
    values = result[kind]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values}}


def write_out(filename: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / filename, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload and the layer probe at a tiny size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sliceball" / "__init__.py").is_file():
        print(f"no sliceball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    units = metric_units()
    hamilton.self_check()

    if args.quick:
        return quick(args.seed, units["per_layer"])

    result = run_workload(make_workload(args.workload, args.seed), args.seconds, bool(args.trace))
    for problem in (result["failures"] + result["problems"])[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    line = summary(result, units[kind], kind)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(), **line}
    if args.trace:
        trace = result["trace"]
        print(f"tracing overhead: {100 * trace['overhead']:+.2f}% (median round "
              f"{trace['traced_round_wall_s']:.4f} s traced, "
              f"{trace['untraced_round_wall_s']:.4f} s untraced, {trace['rounds']} of each)",
              file=sys.stderr)
        write_out(f"trace-{args.workload}-seed{args.seed}.json", {**record, "trace": trace})
    else:
        write_out(f"result-{args.workload}-seed{args.seed}.json", record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

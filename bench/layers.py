"""Spans around the benchmark's calls into each layer of sliceball, and the
probe that turns them into the per-layer metrics of a traced run.

Layers are the program's modules.  Every figure is measured from outside the
module, by timing calls into its public functions on the workload's own
inputs; no span sits inside ``src/``.  Calls faster than about 10 us are timed
as a loop over all probe items, and the figure is the loop time per call.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as W


class Tracer:
    """Spans kept in memory as (op id, name, parent index, start, end, calls)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = 0

    def new_op(self) -> None:
        self.op_id += 1

    def call(self, name: str, fn, *args, calls: int = 1, **kwargs):
        """Run fn(*args, **kwargs) inside a span covering ``calls`` layer calls."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (self.op_id, name, parent, start, time.perf_counter(), calls)
            self._stack.pop()

    def per_call(self, name: str) -> float:
        """Median seconds per call over the spans of this name."""
        return statistics.median((end - start) / calls for _, n, _, start, end, calls
                                 in self.spans if n == name)

    def as_records(self) -> list[dict]:
        return [{"op": op, "name": name, "parent": parent, "start": start, "end": end,
                 "calls": calls} for op, name, parent, start, end, calls in self.spans]


# ---------------------------------------------------------------------------
# cli: import times, from the interpreter's own import timer.

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def package_import_ms(stderr: str, package: str) -> float:
    """Cumulative milliseconds spent importing ``package``: the sum over its
    modules whose importer lies outside the package.  Children are listed
    before their parent, one indent deeper."""
    entries = [(len(m.group(3)), m.group(4), int(m.group(2)))
               for m in map(_IMPORTTIME.match, stderr.splitlines()) if m]
    total, stack = 0, []  # stack of (depth, name) for importers seen so far
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if _in_package(name, package) and not _in_package(parent, package):
            total += cumulative
        stack.append((depth, name))
    return total / 1000.0


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def import_times(root: Path, tracer: Tracer, reps: int) -> dict[str, float]:
    runs = []
    for _ in range(reps):
        tracer.new_op()
        proc = tracer.call("process.importtime", subprocess.run,
                           [sys.executable, "-X", "importtime", "-c", "import sliceball.cli"],
                           capture_output=True, text=True, cwd=root, env=W.program_env(root),
                           timeout=W.CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import sliceball.cli failed: {proc.stderr[-300:]}")
        runs.append({f"cli.import{suffix}_ms": package_import_ms(proc.stderr, package)
                     for suffix, package in (("", "sliceball"), ("_scipy", "scipy"),
                                             ("_numpy", "numpy"))})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# cli: in-process commands, excluding import.

def cli_times(cli_workload: W.CliOneshot, tracer: Tracer, reps: int) -> tuple[dict, list]:
    from sliceball import cli

    def run_main(argv, stdin):
        out = io.StringIO()
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            sys.stdin = old_stdin
        if code != 0:
            raise W.OpFailed(f"sliceball {' '.join(argv)} returned {code} in process")
        return out.getvalue()

    problems = []
    for _ in range(reps):
        for i, (argv, stdin, _) in enumerate(cli_workload.commands):
            tracer.new_op()
            stdout = tracer.call(f"cli.{argv[0]}", run_main, argv, stdin)
            problems += cli_workload.check(i, stdout)
    return ({f"cli.{cmd}_ms": 1e3 * tracer.per_call(f"cli.{cmd}")
             for cmd in ("check", "mobius", "decompose", "table")}, problems)


# ---------------------------------------------------------------------------
# quat, hmat, starpoly, mobius, metrics, lie: calls on library-calls inputs.

def library_times(lib: W.LibraryCalls, tracer: Tracer, loops: int) -> dict[str, float]:
    from sliceball import hmat, lie, metrics, mobius, starpoly

    items = lib.items
    for it in items:
        # The star-quadratic whose ball zero quotient_point finds.
        inv = hmat.sp11_inverse(it["a"])
        it["den_conj"] = starpoly.reg_conj(starpoly.linear_map(inv.m12, inv.m22))
        it["num_line"] = starpoly.linear_map(inv.m11, inv.m21)
        it["num"] = it["den_conj"] * it["num_line"]
        it["map"] = lambda p, a=it["a"]: mobius.classical_apply(a, p)
    rng = np.random.default_rng(0)

    # (metric, call on one item, timed as a loop over all items)
    table = (
        ("quat.mul", lambda it: it["q"] * it["alpha"], True),
        ("quat.inverse", lambda it: it["q"].inverse(), True),
        ("hmat.matmul", lambda it: it["a"] @ it["m"], True),
        ("hmat.sp11_inverse", lambda it: hmat.sp11_inverse(it["a"]), False),
        ("hmat.exp_m", lambda it: hmat.exp_m(it["x"]), True),
        ("hmat.exp_general", lambda it: hmat.exp_general(it["alg"]), False),
        ("hmat.psi_embed", lambda it: hmat.psi_embed(it["a"]), False),
        ("starpoly.star_mul", lambda it: it["den_conj"] * it["num_line"], False),
        ("starpoly.eval", lambda it: it["num"].eval(it["q"]), True),
        ("starpoly.quadratic_root", lambda it: starpoly.quadratic_root_in_ball(it["num"]), False),
        ("mobius.classical_apply", lambda it: mobius.classical_apply(it["a"], it["q"]), True),
        ("mobius.regular_apply", lambda it: mobius.regular_apply(it["a"], it["q"]), False),
        ("mobius.quotient_point", lambda it: mobius.quotient_point(it["a"]), False),
        ("mobius.differential", lambda it: mobius.differential(it["map"], it["q"]), False),
        ("metrics.slice_g", lambda it: metrics.slice_g(it["q"], it["alpha"], it["beta"]), True),
        ("metrics.poincare_g",
         lambda it: metrics.poincare_g(it["q"], it["alpha"], it["beta"]), True),
        ("metrics.pullback_residual",
         lambda it: metrics.pullback_residual(it["map"], metrics.poincare_g, it["q"], rng), False),
        ("lie.symm_decompose", lambda it: lie.symm_decompose(it["a"]), False),
        ("lie.slice_decompose", lambda it: lie.slice_decompose(it["a"]), False),
        ("lie.iso_g_act", lambda it: lie.iso_g_act(it["iso"], it["q"]), True),
        ("lie.orbit_invariant", lambda it: lie.orbit_invariant(it["q"]), True),
    )
    out = {}
    for name, fn, looped in table:
        if looped:
            def loop(fn=fn):
                for it in items:
                    fn(it)
            for _ in range(loops):
                tracer.new_op()
                tracer.call(name, loop, calls=len(items))
        else:
            for it in items:
                tracer.new_op()
                tracer.call(name, fn, it)
        out[f"{name}_us"] = 1e6 * tracer.per_call(name)
    return out


# ---------------------------------------------------------------------------
# verify: one span per registered check, in process.

def verify_times(seed: int, tracer: Tracer, trials: int | None) -> tuple[dict, list]:
    from sliceball import verify

    tracer.new_op()
    results = tracer.call("verify.suite", lambda: [
        tracer.call(f"verify.{check.name}", verify.run_check, check, seed, index, trials)
        for index, check in enumerate(verify.CHECKS)])
    out = {"verify.suite_ms": 1e3 * tracer.per_call("verify.suite")}
    out.update({f"verify.{check.name}_ms": 1e3 * tracer.per_call(f"verify.{check.name}")
                for check in verify.CHECKS})
    problems = W.verify_report_problems(
        [{"name": r.name, "pass": r.passed, "value": r.value} for r in results],
        f"in-process verify --seed {seed}")
    return out, problems


def probe(root: Path, seed: int, tracer: Tracer, quick: bool) -> tuple[dict, list]:
    """Every per-layer metric, on inputs drawn from the workload seed."""
    metrics = import_times(root, tracer, reps=1 if quick else 3)
    lib = W.LibraryCalls(root, seed, items=8 if quick else 200)
    metrics.update(library_times(lib, tracer, loops=2 if quick else 5))
    cli_metrics, problems = cli_times(W.CliOneshot(root, seed), tracer, reps=1 if quick else 3)
    metrics.update(cli_metrics)
    verify_seed = W.VerifySuite(root, seed).seeds[0]
    verify_metrics, verify_problems = verify_times(verify_seed, tracer, 1 if quick else None)
    metrics.update(verify_metrics)
    return metrics, problems + verify_problems

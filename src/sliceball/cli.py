"""Command line front end: membership checks, Mobius evaluation, decompositions,
geodesic/orbit tables, and the randomized verification suite.

All numeric output is printed with 17 significant digits so reports are stable
under diffing; identical seed and configuration give byte-identical reports.
Timing is written to stderr only. Only this module reads and writes the JSON wire
format: a quaternion is [w, x, y, z], a matrix a 2x2 array of quaternions. Input
comes from stdin; output is json or the human report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import CENTRALIZER_SUBGROUPS, SUITES
from .errors import ConsistencyError, DomainError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _quat_to_list(q) -> list[float]:
    return [q.w, q.x, q.y, q.z]


def _quat_from_list(data):
    """Read [w, x, y, z]; every coordinate must be a JSON number (not a string or a bool)."""
    from .quat import Quaternion
    if (not isinstance(data, (list, tuple)) or len(data) != 4
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data)):
        raise ValueError(f"expected a [w, x, y, z] array of numbers, got {data!r}")
    try:
        return Quaternion(*data)
    except OverflowError as exc:  # a JSON integer beyond the double range
        raise ValueError(f"coordinate out of the double range: {exc}") from exc


def _mat_from_list(data):
    """Read a 2x2 array of quaternions, checking the shape before any entry."""
    from .hmat import QMat2
    if (not isinstance(data, (list, tuple)) or len(data) != 2
            or any(not isinstance(row, (list, tuple)) or len(row) != 2 for row in data)):
        raise ValueError(f"expected a 2x2 array of quaternions, got {data!r}")
    return QMat2(_quat_from_list(data[0][0]), _quat_from_list(data[0][1]),
                 _quat_from_list(data[1][0]), _quat_from_list(data[1][1]))


def _parse_json(text: str) -> object:
    try:
        return json.loads(text)
    except RecursionError as exc:  # nesting deeper than the interpreter's stack
        raise ValueError("JSON input is nested too deeply") from exc


def _emit(payload: dict | list, fmt: str, human_lines: list[str]) -> None:
    if fmt == "json":
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity: fail rather than print non-JSON
            raise ConsistencyError(f"result is not finite: {payload!r}") from exc
        print(text)
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    from .hmat import algebra_check, sp11_check
    mat = _mat_from_list(_parse_json(sys.stdin.read()))
    what = args.what
    if what == "algebra":
        ok, residual = algebra_check(mat)
    elif what.startswith("centralizer:"):
        from .lie import centralizer_check
        ok, residual = centralizer_check(mat, what.split(":", 1)[1])
    else:  # sp11 or o11; argparse admits no other choice
        ok, residual = sp11_check(mat)
        if what == "o11":
            from .lie import o11_classify
            try:
                parts = o11_classify(mat)
            except DomainError:
                ok = False
            else:
                payload = {"pass": True, "residual": residual, "eps": parts.eps,
                           "reflected": parts.reflected, "t": parts.t}
                _emit(payload, args.format,
                      [f"PASS o11 eps={parts.eps} reflected={parts.reflected} t={_fmt(parts.t)}"])
                return EXIT_OK
    _emit({"pass": ok, "residual": residual}, args.format,
          [f"{'PASS' if ok else 'FAIL'} {what} residual={_fmt(residual)}"])
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# mobius

def cmd_mobius(args) -> int:
    from .hmat import ensure_sp11
    from .mobius import classical_apply, regular_apply
    from .quat import ensure_in_ball
    data = _parse_json(sys.stdin.read())
    mat = _mat_from_list(data["matrix"])
    point = _quat_from_list(data["point"])
    ensure_sp11(mat)
    image = (classical_apply if args.kind == "classical" else regular_apply)(mat, point)
    # Far along the group the image can round onto the boundary sphere.
    ensure_in_ball(image, "the image is not in the open ball", name="image")
    coords = _quat_to_list(image)
    _emit({"point": coords}, args.format, [" ".join(_fmt(v) for v in coords)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose

def cmd_decompose(args) -> int:
    from .lie import slice_compose, slice_decompose, symm_compose, symm_decompose
    decompose, compose = ((symm_decompose, symm_compose) if args.mode == "symm"
                          else (slice_decompose, slice_compose))
    mat = _mat_from_list(_parse_json(sys.stdin.read()))
    fact = decompose(mat)
    residual = (compose(fact) - mat).max_norm()
    payload = {"u": _quat_to_list(fact.u), "v": _quat_to_list(fact.v),
               "X": _quat_to_list(fact.x), "residual": residual}
    human = [f"u = {' '.join(_fmt(v) for v in payload['u'])}",
             f"X = {' '.join(_fmt(v) for v in payload['X'])}",
             f"v = {' '.join(_fmt(v) for v in payload['v'])}",
             f"residual = {_fmt(residual)}"]
    _emit(payload, args.format, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    # The suite's linear algebra is 4x4, too small to share between threads:
    # OpenBLAS's extra threads would only cost CPU time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import verify  # numpy loads only for the suite
    start = time.perf_counter()
    results = verify.run_checks(args.suite, seed=args.seed, trials=args.trials)
    wall = time.perf_counter() - start
    width = max(len(r.name) for r in results)
    human = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  value={_fmt(r.value)} "
             f"{r.op} tol={_fmt(r.tol)}  trials={r.trials}" for r in results]
    human.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    # JSON has no infinity: a failing check reads null
    _emit([{"name": r.name, "suite": r.suite, "value": r.value if math.isfinite(r.value) else None,
            "tol": r.tol, "op": r.op, "trials": r.trials, "pass": r.passed} for r in results],
          args.format, human)
    for r in results:
        if r.error is not None:
            print(f"error in {r.name}: {r.error}", file=sys.stderr)
    checks = sum(r.seconds for r in results)  # CPU time: exceeds the wall time once checks overlap
    print(f"wall time: {wall:.3f} s, check time: {checks:.3f} s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    from .metrics import geodesic_table
    from .quat import ensure_in_ball
    if args.a is not None and args.kind != "orbit":
        raise ValueError(f"--a applies only to --kind orbit, not --kind {args.kind}")
    u = _quat_from_list(_parse_json(args.u))
    base = None if args.a is None else _quat_from_list(_parse_json(args.a))
    rows = geodesic_table(u, args.t_min, args.t_max, args.steps, a=base)
    for t, p in rows:  # far out along the orbit a point can round onto the boundary
        if abs(math.tanh(t)) == 1.0:  # iso_g_act's rule: the row lies on the sphere
            raise DomainError(f"a table row is not in the open ball: |tanh({t!r})| rounds to 1")
        ensure_in_ball(p, "a table point is not in the open ball", name="p")
    print("t,w,x,y,z")
    for t, p in rows:
        print(",".join(_fmt(v) for v in (t, p.w, p.x, p.y, p.z)))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sliceball",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="membership checks on a 2x2 quaternionic matrix")
    p_check.add_argument("--what", required=True,
                         choices=["sp11", "algebra", "o11"]
                         + [f"centralizer:{s}" for s in CENTRALIZER_SUBGROUPS])
    p_check.add_argument("--format", choices=["json", "human"], default="human")
    p_check.set_defaults(run=cmd_check)

    p_mob = sub.add_parser("mobius", help="apply a Mobius transformation to a ball point")
    p_mob.add_argument("--kind", choices=["classical", "regular"], default="classical")
    p_mob.add_argument("--format", choices=["json", "human"], default="human")
    p_mob.set_defaults(run=cmd_mobius)

    p_dec = sub.add_parser("decompose", help="factor a group matrix")
    p_dec.add_argument("--mode", choices=["symm", "slice"], required=True)
    p_dec.add_argument("--format", choices=["json", "human"], default="human")
    p_dec.set_defaults(run=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the randomized verification suite")
    p_ver.add_argument("--suite", choices=list(SUITES), default="all")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--trials", type=int, default=None,
                       help="override the per-check sample count")
    p_ver.add_argument("--format", choices=["json", "human"], default="human")
    p_ver.set_defaults(run=cmd_verify)

    p_tab = sub.add_parser("table", help="emit a geodesic or orbit sample table as CSV")
    p_tab.add_argument("--kind", choices=["geodesic", "orbit"], default="geodesic",
                       help="geodesic: tanh(t) u through the origin; orbit: the "
                            "one-parameter orbit through --a, which is not a geodesic "
                            "unless a lies on the line tanh(s) u")
    p_tab.add_argument("--u", default="[1,0,0,0]", help="unit direction quaternion as JSON")
    p_tab.add_argument("--a", help="orbit base point as JSON (--kind orbit only; default 0)")
    p_tab.add_argument("--t-min", type=float, default=-2.0)
    p_tab.add_argument("--t-max", type=float, default=2.0)
    p_tab.add_argument("--steps", type=int, default=41)
    p_tab.set_defaults(run=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # includes DomainError, malformed JSON and structures
        if isinstance(exc, DomainError):
            print(f"domain error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

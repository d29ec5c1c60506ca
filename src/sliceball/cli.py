"""Command line front end: membership checks, Mobius evaluation, decompositions,
geodesic/orbit tables, and the randomized verification suite.

All numeric output is printed with 17 significant digits so reports are stable
under diffing; identical seed and configuration give byte-identical reports.
Timing is written to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .errors import ConsistencyError, DomainError, PoleError
from .hmat import algebra_check, ensure_sp11, mat_from_list, sp11_check, sp11_residual
from .lie import (centralizer_check, CENTRALIZER_SUBGROUPS, fact_to_dict,
                  slice_compose, slice_decompose, symm_compose, symm_decompose)
from .metrics import geodesic_table
from .mobius import classical_apply, o11_classify, regular_apply
from .quat import Quaternion, quat_from_list, quat_to_list

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _read_input(args) -> object:
    text = None
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return json.loads(text)


def _emit(payload: dict, fmt: str, human_lines: list[str]) -> None:
    if fmt == "json":
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity: fail rather than print non-JSON
            raise ConsistencyError(f"result is not finite: {payload!r}") from exc
        print(text)
    elif fmt == "csv":
        keys = sorted(payload)
        print(",".join(keys))
        print(",".join(_fmt(payload[k]) if isinstance(payload[k], float) else str(payload[k])
                       for k in keys))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    data = _read_input(args)
    mat = mat_from_list(data)
    what = args.what
    if what == "sp11":
        ok, residual = sp11_check(mat)
    elif what == "algebra":
        ok, residual = algebra_check(mat)
    elif what.startswith("centralizer:"):
        ok, residual = centralizer_check(mat, what.split(":", 1)[1])
    elif what == "o11":
        residual = sp11_residual(mat)
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
    else:
        raise DomainError(f"unknown check {what!r}")
    _emit({"pass": ok, "residual": residual}, args.format,
          [f"{'PASS' if ok else 'FAIL'} {what} residual={_fmt(residual)}"])
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# mobius

def cmd_mobius(args) -> int:
    data = _read_input(args)
    mat = mat_from_list(data["matrix"])
    point = quat_from_list(data["point"])
    ensure_sp11(mat)
    image = (classical_apply if args.kind == "classical" else regular_apply)(mat, point)
    _emit({"point": quat_to_list(image)}, args.format,
          [" ".join(_fmt(v) for v in quat_to_list(image))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose

def cmd_decompose(args) -> int:
    data = _read_input(args)
    mat = mat_from_list(data)
    if args.mode == "symm":
        fact = symm_decompose(mat)
        recomposed = symm_compose(fact)
    else:
        fact = slice_decompose(mat)
        recomposed = slice_compose(fact)
    residual = (recomposed - mat).max_norm()
    payload = fact_to_dict(fact)
    payload["residual"] = residual
    human = [f"u = {' '.join(_fmt(v) for v in payload['u'])}",
             f"X = {' '.join(_fmt(v) for v in payload['X'])}",
             f"v = {' '.join(_fmt(v) for v in payload['v'])}",
             f"residual = {_fmt(residual)}"]
    _emit(payload, args.format, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _parse_tols(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--tol expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name] = float(value)
    return out


def cmd_verify(args) -> int:
    tols = _parse_tols(args.tol)
    results = verify.run_checks(args.suite, seed=args.seed, trials=args.trials,
                                tol_overrides=tols)
    if args.format == "json":
        print(json.dumps([{"name": r.name, "suite": r.suite, "value": r.value,
                           "tol": r.tol, "op": r.op, "trials": r.trials,
                           "pass": r.passed} for r in results], sort_keys=True))
    elif args.format == "csv":
        print("name,suite,value,tol,op,trials,pass")
        for r in results:
            print(f"{r.name},{r.suite},{_fmt(r.value)},{_fmt(r.tol)},{r.op},"
                  f"{r.trials},{r.passed}")
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  value={_fmt(r.value)} "
                  f"{r.op} tol={_fmt(r.tol)}  trials={r.trials}")
        done = sum(r.passed for r in results)
        print(f"{done}/{len(results)} checks passed")
    total = sum(r.seconds for r in results)
    print(f"wall time: {total:.3f} s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    u = quat_from_list(json.loads(args.u))
    base = quat_from_list(json.loads(args.a)) if args.kind == "orbit" else Quaternion()
    rows = geodesic_table(u, args.t_min, args.t_max, args.steps, a=base)
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
    p_check.add_argument("--file", help="JSON input file (default: stdin)")
    p_check.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p_check.set_defaults(run=cmd_check)

    p_mob = sub.add_parser("mobius", help="apply a Mobius transformation to a ball point")
    p_mob.add_argument("--kind", choices=["classical", "regular"], default="classical")
    p_mob.add_argument("--file", help="JSON {matrix, point} input file (default: stdin)")
    p_mob.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p_mob.set_defaults(run=cmd_mobius)

    p_dec = sub.add_parser("decompose", help="factor a group matrix")
    p_dec.add_argument("--mode", choices=["symm", "slice"], required=True)
    p_dec.add_argument("--file", help="JSON matrix input file (default: stdin)")
    p_dec.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p_dec.set_defaults(run=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the randomized verification suite")
    p_ver.add_argument("--suite", choices=list(verify.SUITES), default="all")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--trials", type=int, default=None,
                       help="override the per-check sample count")
    p_ver.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a check tolerance (repeatable)")
    p_ver.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p_ver.set_defaults(run=cmd_verify)

    p_tab = sub.add_parser("table", help="emit a geodesic or orbit sample table as CSV")
    p_tab.add_argument("--kind", choices=["geodesic", "orbit"], default="geodesic",
                       help="geodesic: tanh(t) u through the origin; orbit: the "
                            "one-parameter orbit through --a, which is not a geodesic "
                            "unless a lies on the line tanh(s) u")
    p_tab.add_argument("--u", default="[1,0,0,0]", help="unit direction quaternion as JSON")
    p_tab.add_argument("--a", default="[0,0,0,0]", help="orbit base point as JSON")
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
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # includes DomainError and malformed structures
        if isinstance(exc, DomainError):
            print(f"domain error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConsistencyError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

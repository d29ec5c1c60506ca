"""The three workloads: their seeded inputs, their operations and the checks
that judge each operation's output.

A workload builds one round of operations from its seed.  ``run(i)`` performs
operation ``i`` and returns its raw output, raising ``OpFailed`` when the
program reports an error; ``check(i, output)`` returns the list of problems
found in that output by computations made apart from the program.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hamilton as H

# Orbit distances of sampled group elements lie in (0, R_MAX]; ball points
# reach |q| = Q_MAX.  slice_decompose starts to fail near r = 3, so R_MAX stays
# short of it (see CHANGES.md).
R_MAX = 2.0
Q_MAX = 0.99

# Factorizations must recompose and recover their factors to this (absolute).
DECOMP_TOL = 1e-9
# Ball maps, quotient points and orbit invariants against the benchmark's own
# arithmetic (absolute; every value compared here has norm below cosh(R_MAX)).
MAP_TOL = 1e-11
# Metric values against the benchmark's own arithmetic (relative).
METRIC_TOL = 1e-11
# Membership residuals the CLI reports against our own (absolute).
RESIDUAL_TOL = 1e-12

VERIFY_CHECKS = 46
VERIFY_SEEDS = (1, 2, 3, 4)
CHILD_TIMEOUT_S = 120


class OpFailed(Exception):
    """The program reported an error for one operation."""


def _arr(p) -> np.ndarray:
    return np.array([p.w, p.x, p.y, p.z])


def _dist(p, q) -> float:
    return float(H.norm(np.asarray(p) - np.asarray(q)))


def sample_group(rng, n: int):
    """A = diag(u, 1) exp(X) v with u, v uniform unit quaternions and the
    off-diagonal block x of orbit distance |x| uniform in (0, R_MAX]."""
    u, v = H.unit(rng, n), H.unit(rng, n)
    x = H.unit(rng, n) * (R_MAX * (1.0 - rng.random(n)))[:, None]
    a = H.scalar_right(H.matmul(H.diag(u, H.real(np.ones(n))), H.exp_off(x)), v)
    return u, x, v, a


def sample_ball(rng, n: int, radius: float = Q_MAX) -> np.ndarray:
    """Uniform points of the ball of the given radius."""
    return H.unit(rng, n) * (radius * rng.random(n) ** 0.25)[:, None]


def symm_factors(u, x, v):
    """diag(u, 1) exp(X) v = diag(u v, v) exp(conj(v) X v): the factors
    (u, x, v) that symm_decompose must return for a slice-built element."""
    return H.mul(u, v), H.mul(H.mul(H.conj(v), x), v), v


def decomposition_problems(kind: str, got_u, got_x, got_v, a, u, x, v) -> list[str]:
    """Recompose the returned factors with our own arithmetic and compare them
    with the factors A was built from."""
    if kind == "slice":
        recomposed = H.scalar_right(H.matmul(H.diag(got_u, H.ONE), H.exp_off(got_x)), got_v)
        want = (u, x, v)
    else:
        recomposed = H.matmul(H.diag(got_u, got_v), H.exp_off(got_x))
        want = symm_factors(u, x, v)
    problems = []
    err = float(H.max_norm(recomposed - a))
    if not err <= DECOMP_TOL:
        problems.append(f"{kind} factors recompose to A only within {err:.3g}")
    for name, got, exp in zip("uxv", (got_u, got_x, got_v), want):
        err = _dist(got, exp)
        if not err <= DECOMP_TOL:
            problems.append(f"{kind} factor {name} off the built one by {err:.3g}")
    return problems


def _close(name: str, got, want, tol: float) -> list[str]:
    err = _dist(got, want)
    return [] if err <= tol else [f"{name} off by {err:.3g} (tolerance {tol:g})"]


def _rel_close(name: str, got: float, want: float, tol: float) -> list[str]:
    err = abs(got - want) / max(abs(want), 1e-300)
    return [] if err <= tol else [f"{name} off by {err:.3g} relative (tolerance {tol:g})"]


def _in_ball(name: str, p) -> list[str]:
    n = float(H.norm(p))
    return [] if n < 1.0 else [f"{name} left the ball: |p| = {n!r}"]


def _untraced(name: str, fn, *args):
    return fn(*args)


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ---------------------------------------------------------------------------
# library-calls

class LibraryCalls:
    """One op passes a group element A and a ball point q through every public
    per-call function a library user or the CLI reaches, in this process."""

    in_process = True

    def __init__(self, root: Path, seed: int, items: int = 1000):
        import_program(root)
        from sliceball.hmat import QMat2, Sp11Algebra
        from sliceball.lie import IsoGElement
        from sliceball.quat import Quaternion

        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.u, self.x, self.v, self.a = sample_group(rng, items)
        self.q = sample_ball(rng, items)
        self.alpha, self.beta = rng.standard_normal((2, items, 4))
        iso_u = H.unit(rng, items)
        eps1, eps2 = rng.choice([-1, 1], size=(2, items))
        iso_t = rng.uniform(-1.2, 1.2, items)
        diag_p, diag_q = H.imaginary_unit(rng, items), H.imaginary_unit(rng, items)

        def quat(p):
            return Quaternion(*p.tolist())

        def qmat(m):
            return QMat2(quat(m[0, 0]), quat(m[0, 1]), quat(m[1, 0]), quat(m[1, 1]))

        centering = H.mobius_m(self.q)
        self.items = [
            {"a": qmat(self.a[i]), "q": quat(self.q[i]), "m": qmat(centering[i]),
             "alpha": quat(self.alpha[i]), "beta": quat(self.beta[i]),
             "iso": IsoGElement(quat(iso_u[i]), int(eps1[i]), float(iso_t[i]), int(eps2[i])),
             "x": quat(self.x[i]),
             "alg": Sp11Algebra(quat(diag_p[i]), quat(diag_q[i]), quat(self.x[i]))}
            for i in range(items)]
        self._judged: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.items)

    def run(self, i: int, tracer=None) -> list:
        from sliceball import lie, metrics, mobius
        from sliceball.errors import ConsistencyError, DomainError, PoleError
        call = tracer.call if tracer is not None else _untraced
        it = self.items[i]
        a, q = it["a"], it["q"]
        try:
            image = call("lie.iso_g_act", lie.iso_g_act, it["iso"], q)
            return [call("lie.slice_decompose", lie.slice_decompose, a),
                    call("lie.symm_decompose", lie.symm_decompose, a),
                    call("mobius.quotient_point", mobius.quotient_point, a),
                    call("mobius.classical_apply", mobius.classical_apply, a, q),
                    call("mobius.regular_apply", mobius.regular_apply, a, q),
                    call("mobius.regular_apply", mobius.regular_apply, it["m"], q),
                    call("metrics.slice_g", metrics.slice_g, q, it["alpha"], it["beta"]),
                    call("metrics.poincare_g", metrics.poincare_g, q, it["alpha"], it["beta"]),
                    image,
                    call("lie.orbit_invariant", lie.orbit_invariant, q),
                    call("lie.orbit_invariant", lie.orbit_invariant, image)]
        except (ConsistencyError, DomainError, PoleError) as exc:
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc

    def check(self, i: int, out) -> list[str]:
        """Judge an item's outputs; an output equal to one already judged for
        the same item (a later round) is accepted as it stands."""
        if self._judged.get(i) == out:
            return []
        self._judged[i] = out
        sd, sy, qp, ca, ra, r0, sg, pg, image, inv_q, inv_image = out
        a, q, x = self.a[i], self.q[i], self.x[i]
        r = float(H.norm(x))
        problems = decomposition_problems("slice", _arr(sd.u), _arr(sd.x), _arr(sd.v),
                                          a, self.u[i], x, self.v[i])
        problems += decomposition_problems("symm", _arr(sy.u), _arr(sy.x), _arr(sy.v),
                                           a, self.u[i], x, self.v[i])
        problems += _close("quotient_point against tanh|X| sgn(X)", _arr(qp),
                           math.tanh(r) * x / r, DECOMP_TOL)
        problems += _close("classical_apply", _arr(ca), H.classical(a, q), MAP_TOL)
        problems += _close("regular_apply", _arr(ra), H.regular(a, q), MAP_TOL)
        problems += _in_ball("regular_apply image", _arr(ra))
        problems += _close("regular map of M(q) at q", _arr(r0), np.zeros(4), MAP_TOL)
        problems += _rel_close("slice_g", sg, float(H.slice_g(q, self.alpha[i], self.beta[i])),
                               METRIC_TOL)
        problems += _rel_close("poincare_g", pg,
                               float(H.poincare_g(q, self.alpha[i], self.beta[i])), METRIC_TOL)
        problems += _in_ball("iso_g_act image", _arr(image))
        if not abs(inv_image - inv_q) <= MAP_TOL:
            problems.append(f"orbit_invariant moved along an orbit: {inv_q!r} -> {inv_image!r}")
        return problems


# ---------------------------------------------------------------------------
# Subprocess workloads.

def run_cli(root: Path, argv: list[str], stdin: str = "") -> str:
    """Run one `sliceball` command in a fresh interpreter; return its stdout."""
    proc = subprocess.run([sys.executable, "-m", "sliceball.cli", *argv], input=stdin,
                          capture_output=True, text=True, cwd=root, env=program_env(root),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise OpFailed(f"sliceball {' '.join(argv)} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-300:]}")
    return proc.stdout


def _mat_json(m) -> str:
    return json.dumps(np.asarray(m).tolist())


def _commutator_residual(a, probes) -> float:
    return max(float(H.max_norm(H.matmul(a, p) - H.matmul(p, a))) for p in probes)


def _csv_rows(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if lines[0] != "t,w,x,y,z":
        raise ValueError(f"unexpected table header {lines[0]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class CliOneshot:
    """One op is one fresh-process command from a fixed mix; the seed draws its inputs."""

    in_process = False

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        rng = np.random.default_rng([seed, 2])
        u, x, v, a = sample_group(rng, 1)
        u, x, v, a = u[0], x[0], v[0], a[0]
        q = sample_ball(rng, 1)[0]
        one = H.ONE
        eps, flip = rng.choice([-1.0, 1.0], size=2)
        t = float(rng.uniform(-R_MAX, R_MAX))
        real_group = eps * H.mat(H.real(math.cosh(t)), H.real(math.sinh(t)),
                                 H.real(math.sinh(t)), H.real(math.cosh(t)))
        real_group = H.matmul(real_group, H.diag(one, H.real(flip)))
        p_im, q_im = H.imaginary_unit(rng, 2) * rng.uniform(0.1, 2.0, (2, 1))
        alg = H.mat(p_im, H.conj(x), x, q_im)
        sign_diag = H.diag(H.real(rng.choice([-1.0, 1.0])), H.unit(rng, 1)[0])
        sign_sign = H.diag(*H.real(rng.choice([-1.0, 1.0], size=2)))
        geo_u, orbit_u = H.unit(rng, 2)
        orbit_a = sample_ball(rng, 1, 0.9)[0]
        t_lo, t_hi = -rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        steps = int(rng.integers(21, 82))
        table_args = [f"--t-min={t_lo!r}", f"--t-max={t_hi!r}", f"--steps={steps}"]
        ts = np.linspace(t_lo, t_hi, steps)
        diag_probes = [H.diag(H.I, one), H.diag(H.J, one)]
        scalar_probes = [H.diag(H.I, H.I), H.diag(H.J, H.J)]

        point_in = json.dumps({"matrix": a.tolist(), "point": q.tolist()})
        self.commands = [
            (["check", "--what", "sp11", "--format", "json"], _mat_json(a),
             self._membership(float(H.sp11_residual(a)), 1e-10)),
            (["check", "--what", "algebra", "--format", "json"], _mat_json(alg),
             self._membership(self._algebra_residual(alg), 1e-12)),
            (["check", "--what", "o11", "--format", "json"], _mat_json(real_group),
             self._o11(int(eps), bool(flip < 0.0), t)),
            (["check", "--what", "centralizer:sp1x1", "--format", "json"], _mat_json(sign_diag),
             self._membership(_commutator_residual(sign_diag, diag_probes), 1e-12)),
            (["check", "--what", "centralizer:sp1I2", "--format", "json"], _mat_json(real_group),
             self._membership(_commutator_residual(real_group, scalar_probes), 1e-12)),
            (["check", "--what", "centralizer:sp1xsp1", "--format", "json"], _mat_json(sign_sign),
             self._membership(_commutator_residual(sign_sign, diag_probes + scalar_probes), 1e-12)),
            (["mobius", "--kind", "classical", "--format", "json"], point_in,
             self._point(H.classical(a, q))),
            (["mobius", "--kind", "regular", "--format", "json"], point_in,
             self._point(H.regular(a, q))),
            (["decompose", "--mode", "symm", "--format", "json"], _mat_json(a),
             self._decomposition("symm", a, u, x, v)),
            (["decompose", "--mode", "slice", "--format", "json"], _mat_json(a),
             self._decomposition("slice", a, u, x, v)),
            (["table", "--kind", "geodesic", "--u", json.dumps(geo_u.tolist())] + table_args, "",
             self._table(ts, H.symm_orbit(geo_u, np.zeros(4), ts))),
            (["table", "--kind", "orbit", "--u", json.dumps(orbit_u.tolist()),
              "--a", json.dumps(orbit_a.tolist())] + table_args, "",
             self._table(ts, H.symm_orbit(orbit_u, orbit_a, ts))),
        ]

    @staticmethod
    def _algebra_residual(x) -> float:
        k = H.diag(H.ONE, -H.ONE)
        return float(H.max_norm(H.matmul(H.adjoint(x), k) + H.matmul(k, x)))

    @staticmethod
    def _membership(own_residual: float, tol: float):
        def check(out: dict) -> list[str]:
            problems = [] if out["pass"] is True else ["member reported as FAIL"]
            if not out["residual"] <= tol:
                problems.append(f"residual {out['residual']!r} above {tol:g}")
            if not abs(out["residual"] - own_residual) <= RESIDUAL_TOL:
                problems.append(f"residual {out['residual']!r} differs from ours {own_residual!r}")
            return problems
        return check

    @staticmethod
    def _o11(eps: int, reflected: bool, t: float):
        def check(out: dict) -> list[str]:
            problems = [] if out["pass"] is True else ["real group element reported as FAIL"]
            if out["eps"] != eps or out["reflected"] is not reflected:
                problems.append(f"o11 parts {out['eps']}, {out['reflected']} "
                                f"differ from the built {eps}, {reflected}")
            if not abs(out["t"] - t) <= DECOMP_TOL:
                problems.append(f"o11 t = {out['t']!r}, built with {t!r}")
            return problems
        return check

    @staticmethod
    def _point(want):
        def check(out: dict) -> list[str]:
            got = np.array(out["point"], dtype=float)
            return _close("mobius image", got, want, MAP_TOL) + _in_ball("mobius image", got)
        return check

    @staticmethod
    def _decomposition(kind, a, u, x, v):
        def check(out: dict) -> list[str]:
            problems = decomposition_problems(kind, np.array(out["u"]), np.array(out["X"]),
                                              np.array(out["v"]), a, u, x, v)
            if not out["residual"] <= DECOMP_TOL:
                problems.append(f"reported residual {out['residual']!r}")
            return problems
        return check

    @staticmethod
    def _table(ts, want):
        def check(rows: np.ndarray) -> list[str]:
            if rows.shape != (len(ts), 5):
                return [f"table has shape {rows.shape}, expected {(len(ts), 5)}"]
            problems = _close("table t column", rows[:, 0], ts, 1e-12)
            err = float(np.max(H.norm(rows[:, 1:] - want)))
            if not err <= MAP_TOL:
                problems.append(f"table points off the orbit by {err:.3g}")
            if not np.all(H.norm(rows[:, 1:]) < 1.0):
                problems.append("table points left the ball")
            return problems
        return check

    def __len__(self) -> int:
        return len(self.commands)

    def run(self, i: int, tracer=None) -> str:
        argv, stdin, _ = self.commands[i]
        if tracer is None:
            return run_cli(self.root, argv, stdin)
        return tracer.call("process." + argv[0], run_cli, self.root, argv, stdin)

    def check(self, i: int, stdout: str) -> list[str]:
        argv, _, judge = self.commands[i]
        try:
            parsed = _csv_rows(stdout) if argv[0] == "table" else json.loads(stdout)
            return judge(parsed)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output of {' '.join(argv)}: {exc!r}: {stdout[:200]!r}"]


class VerifySuite:
    """One op is one `sliceball verify --suite all --format json` in a fresh
    process; a round covers the fixed seed list in an order drawn from the seed."""

    in_process = False

    def __init__(self, root: Path, seed: int, seeds=VERIFY_SEEDS, extra_args=()):
        self.root, self.seed = root, seed
        self.seeds = [int(s) for s in np.random.default_rng([seed, 1]).permutation(seeds)]
        self.extra_args = list(extra_args)
        self._first_stdout: dict[int, str] = {}

    def argv(self, i: int) -> list[str]:
        return (["verify", "--suite", "all", "--format", "json", "--seed", str(self.seeds[i])]
                + self.extra_args)

    def __len__(self) -> int:
        return len(self.seeds)

    def run(self, i: int, tracer=None) -> str:
        if tracer is None:
            return run_cli(self.root, self.argv(i))
        return tracer.call("process.verify", run_cli, self.root, self.argv(i))

    def check(self, i: int, stdout: str) -> list[str]:
        seed = self.seeds[i]
        first = self._first_stdout.setdefault(seed, stdout)
        problems = [] if first == stdout else [f"verify --seed {seed} stdout changed between runs"]
        try:
            results = json.loads(stdout)
        except ValueError as exc:
            return problems + [f"verify --seed {seed} printed unreadable JSON: {exc}"]
        problems += verify_report_problems(results, f"verify --seed {seed}")
        return problems


def verify_report_problems(results: list[dict], where: str) -> list[str]:
    names = [r["name"] for r in results]
    problems = []
    if len(set(names)) != len(names) or len(names) < VERIFY_CHECKS:
        problems.append(f"{where}: {len(set(names))} distinct checks, expected {VERIFY_CHECKS}")
    for r in results:
        if r["pass"] is not True or not math.isfinite(r["value"]):
            problems.append(f"{where}: {r['name']} pass={r['pass']} value={r['value']!r}")
    return problems


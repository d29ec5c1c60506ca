"""Runner mechanics of the verification suite."""

import math
import os
import time

import numpy as np
import pytest

from sliceball import SUITES, hmat, lie, metrics, mobius, verify
from sliceball.errors import ConsistencyError, DomainError, PoleError
from sliceball.quat import I, J, ONE, ZERO, Quaternion
from sliceball.starpoly import StarPoly, reg_conj


def test_registry_names_unique():
    assert len(set(verify.CHECK_NAMES)) == len(verify.CHECK_NAMES)


def test_the_suites_are_those_of_the_registry():
    # the CLI offers sliceball.SUITES without importing verify
    named = tuple(dict.fromkeys(check.suite for check in verify.CHECKS))
    assert SUITES == ("all",) + named


def test_suite_filtering():
    results = verify.run_checks("orbits", seed=2, trials=5)
    assert results and all(r.suite == "orbits" for r in results)
    with pytest.raises(ValueError):
        verify.run_checks("everything")


def test_same_seed_same_values():
    a = verify.run_checks("metrics", seed=4, trials=5)
    b = verify.run_checks("metrics", seed=4, trials=5)
    assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]


def test_check_rng_independent_of_suite_selection():
    # running a check alone or within "all" must feed it the same generator
    alone = {r.name: r.value for r in verify.run_checks("orbits", seed=6, trials=5)}
    together = {r.name: r.value for r in verify.run_checks("all", seed=6, trials=5)}
    for name, value in alone.items():
        assert together[name] == value


def test_full_suite_passes_quickly():
    results = verify.run_checks("all", seed=11, trials=10)
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"failing checks: {failures}"


def test_quotient_survives_small_height_points():
    idx = verify.CHECK_NAMES.index("equivariance-right")
    for seed in (9, 13):
        result = verify.run_check(verify.CHECKS[idx], seed, idx)
        assert result.passed, f"seed {seed}: residual {result.value!r}"


@pytest.mark.parametrize("trials", [0, -3])
def test_fewer_than_one_trial_is_rejected(trials):
    # a run that samples nothing must not read as a pass
    with pytest.raises(ValueError):
        verify.run_checks("orbits", trials=trials)
    with pytest.raises(ValueError):
        verify.run_check(verify.CHECKS[0], 1, 0, trials=trials)


def _bits(a: hmat.QMat2) -> list[str]:
    return [c.hex() for m in a.entries() for c in (m.w, m.x, m.y, m.z)]


def test_checks_leave_the_constant_matrices_unchanged():
    # IDENTITY, I11 and the centralizer probes are built once and shared by
    # every caller, so no check may mutate them; compare with fresh builds
    for index, check in enumerate(verify.CHECKS):
        verify.run_check(check, 1, index, trials=2)
    q = Quaternion
    one, i, j = q(1.0), q(0.0, 1.0), q(0.0, 0.0, 1.0)
    assert _bits(hmat.IDENTITY) == _bits(hmat.QMat2(one, q(), q(), one))
    assert _bits(hmat.I11) == _bits(hmat.QMat2(one, q(), q(), q(-1.0)))
    sp1x1 = [hmat.QMat2(i, q(), q(), one), hmat.QMat2(j, q(), q(), one)]
    sp1i2 = [hmat.QMat2(i, q(), q(), i), hmat.QMat2(j, q(), q(), j)]
    fresh = {"sp1x1": sp1x1, "sp1I2": sp1i2, "sp1xsp1": sp1x1 + sp1i2}
    assert {name: [_bits(p) for p in probes] for name, probes in lie._PROBES.items()} == {
        name: [_bits(p) for p in probes] for name, probes in fresh.items()}


def _run_named(name: str, seed: int = 1):
    index = verify.CHECK_NAMES.index(name)
    return verify.run_check(verify.CHECKS[index], seed, index)


def test_exp_psi_oracle_catches_a_wrong_exponential(monkeypatch):
    assert _run_named("exp-psi-oracle").passed
    monkeypatch.setattr(verify, "exp_general",
                        lambda x: hmat.exp_general(x) + hmat.IDENTITY * 1e-8)
    assert not _run_named("exp-psi-oracle").passed


_STAR_CHECKS = ("star-symmetrize-real", "star-conj-antihom", "star-real-commute")
_STAR = StarPoly.__mul__
_STAR_DEFECTS = {
    "conjugated-right-factor": lambda f, g: _STAR(f, reg_conj(g)),
    "offset-1e-11": lambda f, g: StarPoly([c + Quaternion(0.0, 1e-11)
                                           for c in _STAR(f, g).coeffs]),
}


@pytest.mark.parametrize("measure", ["relative", "absolute"])
@pytest.mark.parametrize("defect", list(_STAR_DEFECTS))
def test_star_checks_catch_a_wrong_star_product(monkeypatch, measure, defect):
    # the star checks divide each residual by the norms of the terms it sums;
    # with every scale set to 1 they measure as they once did, in absolute terms,
    # and both measures must fail the same seeded defects
    if measure == "absolute":
        monkeypatch.setattr(verify, "_coeff_scales",
                            lambda f, g: [1.0] * (len(f.coeffs) + len(g.coeffs) - 1))
        monkeypatch.setattr(verify, "_abs_eval", lambda f, r: 1.0)
    assert all(_run_named(name).passed for name in _STAR_CHECKS)
    monkeypatch.setattr(StarPoly, "__mul__", _STAR_DEFECTS[defect])
    assert not any(_run_named(name).passed for name in _STAR_CHECKS)


def test_regular_star_oracle_catches_a_wrong_regular_map(monkeypatch):
    assert _run_named("regular-star-oracle").passed
    monkeypatch.setattr(verify, "regular_apply",
                        lambda a, q: mobius.regular_apply(a, q) + Quaternion(0.0, 1e-11))
    assert not _run_named("regular-star-oracle").passed


_REAL_EIG = np.linalg.eig


def _nan_eig(m):
    lam, vecs = _REAL_EIG(m)
    return lam * math.nan, vecs


def _singular_eig(m):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


@pytest.mark.parametrize("eig", [_nan_eig, _singular_eig])
def test_exp_psi_oracle_fails_when_the_decomposition_fails(monkeypatch, eig):
    # a NaN or a LinAlgError reads as infinity, never as a dropped trial
    monkeypatch.setattr(np.linalg, "eig", eig)
    result = _run_named("exp-psi-oracle")
    assert result.value == math.inf and not result.passed


def test_orbit_grid_oracle_catches_a_wrong_invariant(monkeypatch):
    assert _run_named("orbit-grid-oracle").passed
    monkeypatch.setattr(verify, "orbit_invariant", lambda q: lie.orbit_invariant(q) + 1e-5)
    assert not _run_named("orbit-grid-oracle").passed


def test_orbit_grid_oracle_needs_a_bracketed_crossing():
    q = J * 0.5  # crosses the imaginary axis at t = 0
    assert abs(verify._orbit_grid_oracle(q) - 0.5) <= 1e-15
    # a point so near the boundary that its crossing lies beyond t = -5
    with pytest.raises(ConsistencyError):
        verify._orbit_grid_oracle(Quaternion(0.9999999, 1e-9))


def test_regular_pullback_takes_one_jacobian_per_point(monkeypatch):
    calls = []

    def counted(fn, q, *args, **kwargs):
        calls.append(q)
        return mobius.differential(fn, q, *args, **kwargs)

    monkeypatch.setattr(verify, "differential", counted)
    monkeypatch.setattr(metrics, "differential", counted)
    index = verify.CHECK_NAMES.index("regular-pullback")
    assert verify.run_check(verify.CHECKS[index], 1, index, trials=7).passed
    assert len(calls) == 7


# The finite-difference regularity residual behind regularity-polynomial and
# noncoincidence-nonreal.

def test_regularity_residual_polynomial():
    f = StarPoly([Quaternion(0.3, 1, 0, 0), Quaternion(), ONE])
    q = Quaternion(0.2, 0.3, -0.1, 0.4) * 0.5
    assert verify._regularity_residual(f.eval, q, h=1e-4) <= 1e-7
    # a real point is differentiated along the canonical slice
    assert verify._regularity_residual(f.eval, Quaternion(0.4), h=1e-4) <= 1e-7


def test_regularity_residual_conjugation_defect():
    # conj has residual |(1 + I(-I))/2| = 1 on every slice
    q = Quaternion(0.2, 0.3, 0, 0)
    res = verify._regularity_residual(lambda p: p.conj(), q, h=1e-5)
    assert abs(res - 1.0) <= 1e-8


def test_regularity_residual_rate():
    f = StarPoly([Quaternion(0.1, 0.2, -0.3, 0.4), I, ONE, J])
    q = Quaternion(0.1, 0.2, 0.3, -0.1)
    r1 = verify._regularity_residual(f.eval, q, h=2e-3)
    r2 = verify._regularity_residual(f.eval, q, h=1e-3)
    assert r1 <= 1e-4
    assert 2.5 <= r1 / r2 <= 5.5  # second-order decay


def test_regularity_residual_step_underflow():
    f = StarPoly([Quaternion(), ONE])
    with pytest.raises(DomainError):
        verify._regularity_residual(f.eval, Quaternion(0.5), h=0.0)
    with pytest.raises(DomainError):
        verify._regularity_residual(f.eval, Quaternion(0.5), h=1e-30)


# NaN injections: a NaN anywhere in a check's residuals must fail it, never be
# dropped by the reduction.

_NAN_QUAT = Quaternion(math.nan, math.nan, math.nan, math.nan)


@pytest.mark.parametrize("target, nan, names", [
    ("quotient_point", _NAN_QUAT,
     ["quotient-consistency", "quotient-well-defined", "equivariance-left",
      "equivariance-right", "iso-from-translations", "quotient-root-oracle"]),
    ("orbit_invariant", math.nan,
     ["orbit-real-axis", "orbit-invariance", "orbit-grid-oracle", "orbit-axis-example"]),
    ("slice_g", math.nan,
     ["slice-positive-definite", "slice-conjugation-invariance", "iso-isometry",
      "slice-hyperbolicity", "regular-pullback"]),
    ("_regularity_residual", math.nan, ["regularity-polynomial", "noncoincidence-nonreal"]),
    ("classical_apply", _NAN_QUAT,
     ["quotient-consistency", "mobius-antihom", "mobius-inverse-map", "coincidence-real",
      "noncoincidence-nonreal", "poincare-invariance", "geodesic-reversal"]),
    ("iso_g_act", _NAN_QUAT,
     ["iso-isometry", "iso-orientation", "iso-ineffective-kernel", "iso-star-axiom",
      "iso-from-translations", "orbit-invariance", "orbit-grid-oracle", "orbit-axis-example"]),
    ("centralizer_check", (False, math.nan), ["centralizer-members", "centralizer-outsiders"]),
])
def test_a_nan_fails_every_check_that_sees_it(monkeypatch, target, nan, names):
    for name in names:
        assert _run_named(name).passed, name
    monkeypatch.setattr(verify, target, lambda *args, **kwargs: nan)
    for name in names:
        result = _run_named(name)
        failing = math.inf if result.op == "<=" else -math.inf
        assert not result.passed and result.value == failing, (name, result.value)


# Exceptions: a numerical failure inside a check fails that check only.

def _raise_after_a_pass(exc):
    def fn(rng, trials):
        yield 0.0
        raise exc
    return fn


@pytest.mark.parametrize("exc", [DomainError("off the ball"),
                                 np.linalg.LinAlgError("Singular matrix"),
                                 ConsistencyError("no axis crossing"),
                                 PoleError("at a pole"), ZeroDivisionError("float division")])
@pytest.mark.parametrize("op, failing", [("<=", math.inf), (">=", -math.inf)])
def test_a_check_that_raises_fails_with_its_message(exc, op, failing):
    check = verify.CheckDef("raises", "orbits", _raise_after_a_pass(exc), 10, 1.0, op)
    result = verify.run_check(check, 1, 0)
    assert not result.passed and result.value == failing
    assert result.error == f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("exc", [TypeError("bad call"), AttributeError("no such field")])
def test_a_programming_error_in_a_check_propagates(exc):
    check = verify.CheckDef("broken", "orbits", _raise_after_a_pass(exc), 10, 1.0)
    with pytest.raises(type(exc)):
        verify.run_check(check, 1, 0)


def test_a_nan_action_reports_every_check(monkeypatch):
    # once stopped the run: the orbit-grid bisection finds no crossing of a NaN orbit
    monkeypatch.setattr(verify, "iso_g_act", lambda *args, **kwargs: _NAN_QUAT)
    results = verify.run_checks("all", 1)
    assert len(results) == len(verify.CHECKS) == 48
    failed = {r.name for r in results if not r.passed}
    assert failed == {"iso-isometry", "iso-orientation", "iso-ineffective-kernel",
                      "iso-star-axiom", "iso-from-translations", "orbit-invariance",
                      "orbit-grid-oracle", "orbit-axis-example"}
    errors = {r.name: r.error.split(":")[0] for r in results if r.error is not None}
    assert errors == {"iso-isometry": "DomainError", "orbit-invariance": "DomainError",
                      "orbit-grid-oracle": "ConsistencyError",
                      "orbit-axis-example": "DomainError"}
    assert all(r.value == math.inf for r in results if r.error is not None)


@pytest.mark.parametrize("op, failing", [("<=", math.inf), (">=", -math.inf)])
def test_a_check_that_yields_nothing_fails(op, failing):
    empty = verify.CheckDef("empty", "orbits", lambda rng, trials: iter(()), 10, 1.0, op)
    result = verify.run_check(empty, 1, 0)
    assert not result.passed and result.value == failing


@pytest.mark.parametrize("op", ["<=", ">="])
def test_worst_is_nan_for_a_nan_or_no_value(op):
    assert math.isnan(verify._worst(iter(()), op))
    for values in ([math.nan], [1.0, math.nan], [math.nan, 1.0], [0.5, math.nan, 2.0]):
        assert math.isnan(verify._worst(iter(values), op))


def test_worst_is_the_max_or_the_min():
    assert verify._worst(iter([1.0, math.inf]), "<=") == math.inf
    assert verify._worst(iter([0.5, 2.0]), ">=") == 0.5
    for zeros in ([0.0, -0.0], [-0.0, 0.0]):
        assert verify._worst(iter(zeros), ">=").hex() == min(zeros).hex()  # keeps the sign


def test_a_check_reports_its_cpu_time():
    # 50 ms asleep cost no CPU; a wall clock would report them
    def sleeps(rng, trials):
        time.sleep(0.05)
        yield 0.0

    result = verify.run_check(verify.CheckDef("sleeps", "orbits", sleeps, 1, 1.0), 1, 0)
    assert result.passed and 0.0 <= result.seconds < 0.025


@pytest.mark.parametrize("trials", [3, 15, 100])
def test_orbit_invariance_makes_one_comparison_per_trial(trials):
    rng = np.random.default_rng([1, 0])
    assert sum(1 for _ in verify.check_orbit_invariance(rng, trials)) == trials


# The worker pool: the same results as one check at a time, in registry order.

def _without_seconds(results):
    return [r._replace(seconds=None) for r in results]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_pool_matches_running_each_check_alone(monkeypatch, seed):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    # 5 trials keep this short; the order of the results and the stream each
    # check draws do not depend on the trial count
    alone = [verify.run_check(check, seed, index, trials=5)
             for index, check in enumerate(verify.CHECKS)]
    pooled = verify.run_checks("all", seed, trials=5)
    assert _without_seconds(pooled) == _without_seconds(alone)


def test_a_programming_error_propagates_out_of_the_pool(monkeypatch):
    broken = verify.CheckDef("broken", "orbits", _raise_after_a_pass(TypeError("bad call")),
                             10, 1.0)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + (broken,))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    with pytest.raises(TypeError, match="bad call"):
        verify.run_checks("orbits", trials=5)


def test_one_usable_cpu_runs_the_checks_in_process(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    pooled = verify.run_checks("all", seed=5, trials=5)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)

    def no_fork():
        raise AssertionError("started a child process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _without_seconds(verify.run_checks("all", seed=5, trials=5)) == _without_seconds(pooled)


def test_a_negative_seed_is_rejected_before_any_worker_starts(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)

    def no_fork():
        raise AssertionError("started a child process")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match="seed"):
        verify.run_checks("orbits", seed=-1)


# The embedding oracle of hat-membership.

def test_hat_check_examples(monkeypatch):
    j, k = hmat.psi_embed(hmat.diag(J, J)), hmat.psi_embed(hmat.I11)
    i2 = np.eye(2)
    assert np.array_equal(j, np.block([[0 * i2, i2], [-i2, 0 * i2]]))
    assert np.abs(j @ j + np.eye(4)).max() == 0.0
    assert np.array_equal(k, np.diag([1.0, -1.0, 1.0, -1.0]))

    def hat(a):
        monkeypatch.setattr(verify, "_rand_sp11", lambda rng, max_t: a)
        return _run_named("hat-membership").value

    assert hat(hmat.IDENTITY) <= hmat.GROUP_TOL
    assert hat(hmat.hyperbolic(1.0)) <= hmat.GROUP_TOL
    assert not hat(hmat.IDENTITY * 2.0) <= hmat.GROUP_TOL

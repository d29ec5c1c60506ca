"""Runner mechanics of the verification suite."""

import math

import numpy as np
import pytest

from sliceball import hmat, lie, verify
from sliceball.errors import ConsistencyError
from sliceball.quat import J, Quaternion


def test_registry_names_unique():
    assert len(set(verify.CHECK_NAMES)) == len(verify.CHECK_NAMES)


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


def test_tol_override_applies():
    results = verify.run_checks("orbits", seed=2, trials=5,
                                tol_overrides={"orbit-invariance": 0.0})
    by_name = {r.name: r for r in results}
    assert not by_name["orbit-invariance"].passed
    with pytest.raises(ValueError):
        verify.run_checks("orbits", trials=2, tol_overrides={"nope": 1.0})


def test_full_suite_passes_quickly():
    results = verify.run_checks("all", seed=11, trials=10)
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"failing checks: {failures}"


def test_quotient_survives_small_height_points():
    # These seeds once produced quotient points a few 1e-4 off the real axis,
    # where the unit-imaginary gate of the root finder is noise-limited.
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


def _run_named(name: str, seed: int = 1):
    index = verify.CHECK_NAMES.index(name)
    return verify.run_check(verify.CHECKS[index], seed, index)


def test_exp_psi_oracle_catches_a_wrong_exponential(monkeypatch):
    assert _run_named("exp-psi-oracle").passed
    monkeypatch.setattr(verify, "exp_general",
                        lambda x: hmat.exp_general(x) + hmat.identity() * 1e-8)
    assert not _run_named("exp-psi-oracle").passed


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
    with pytest.raises(ConsistencyError):
        verify._orbit_grid_oracle(q, t_lo=1.0, t_hi=5.0)
    # a point so near the boundary that its crossing lies beyond t = -5
    with pytest.raises(ConsistencyError):
        verify._orbit_grid_oracle(Quaternion(0.9999999, 1e-9))


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
    ("regularity_residual", math.nan, ["noncoincidence-nonreal"]),
])
def test_a_nan_fails_every_check_that_sees_it(monkeypatch, target, nan, names):
    for name in names:
        assert _run_named(name).passed, name
    monkeypatch.setattr(verify, target, lambda *args, **kwargs: nan)
    for name in names:
        result = _run_named(name)
        failing = math.inf if result.op == "<=" else -math.inf
        assert not result.passed and result.value == failing, (name, result.value)


@pytest.mark.parametrize("op, failing", [("<=", math.inf), (">=", -math.inf)])
def test_a_check_that_yields_nothing_fails(op, failing):
    empty = verify.CheckDef("empty", "orbits", lambda rng, trials: iter(()), 10, 1.0, op)
    result = verify.run_check(empty, 1, 0)
    assert not result.passed and result.value == failing

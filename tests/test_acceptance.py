"""Acceptance gate: every advertised guarantee at its pinned tolerance and
sample count.  One PASS/FAIL line prints per criterion (run with -s to see
them on success)."""

from sliceball import verify

SEED = 1


def run_named(criterion: str, name: str, *, tol: float, trials=None):
    index = verify.CHECK_NAMES.index(name)
    result = verify.run_check(verify.CHECKS[index], SEED, index, trials=trials)
    # the registry sets every tolerance; it must hold the criterion's bound
    assert result.tol == tol, f"{name} is registered at tol {result.tol!r}, not {tol!r}"
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {criterion}: {name} value={result.value:.3e} {result.op} "
          f"tol={result.tol:.0e} trials={result.trials}")
    assert result.passed, (f"{criterion} violated by {name}: "
                           f"value {result.value!r} {result.op} tol {result.tol!r} fails")
    return result


def test_criterion_01_exponential_closed_form():
    run_named("criterion 1a (off-diagonal exponential closed form)",
              "exp-closed-form", trials=200, tol=1e-12)
    run_named("criterion 1b (complex-embedding exponential oracle)",
              "exp-psi-oracle", trials=100, tol=1e-10)


def test_criterion_02_decomposition_bijectivity():
    run_named("criterion 2a (isotropy-times-orbit factorization, 500 round trips)",
              "symm-roundtrip", trials=500, tol=1e-9)
    run_named("criterion 2b (left-unit/orbit/right-unit factorization, 500 round trips)",
              "slice-roundtrip", trials=500, tol=1e-9)


def test_criterion_03_isometry_invariance():
    run_named("criterion 3a (Poincare metric invariant under the group action)",
              "poincare-invariance", trials=100, tol=1e-5)
    run_named("criterion 3b (slice metric invariant under both isometry branches)",
              "iso-isometry", trials=200, tol=1e-5)


def test_criterion_04_regular_pullback():
    run_named("criterion 4a (centerings send their parameter to the origin)",
              "regular-map-zero", trials=100, tol=1e-9)
    run_named("criterion 4b (slice metric equals its origin pullback)",
              "regular-pullback", trials=100, tol=1e-5)


def test_criterion_05_slice_hyperbolicity():
    run_named("criterion 5a (in-slice values equal the disk hyperbolic metric)",
              "slice-hyperbolicity", trials=200, tol=1e-12)
    run_named("criterion 5b (off-slice example separates the two metrics)",
              "metrics-differ-example", tol=1e-12)


def test_criterion_06_double_coset_well_defined():
    run_named("criterion 6a (quotient map constant on double cosets)",
              "quotient-well-defined", trials=200, tol=1e-9)
    run_named("criterion 6b (descended left-translation action)",
              "equivariance-left", trials=200, tol=1e-9)
    run_named("criterion 6c (descended right-translation action)",
              "equivariance-right", trials=200, tol=1e-9)


def test_criterion_07_coincidence_set():
    run_named("criterion 7a (real-parameter maps are classical and regular)",
              "coincidence-real", trials=100, tol=1e-10)
    run_named("criterion 7b (non-real parameters break slice regularity)",
              "noncoincidence-nonreal", trials=20, tol=1e-3)


def test_criterion_08_centralizers():
    run_named("criterion 8a (all claimed centralizer members pass)",
              "centralizer-members", trials=100, tol=0.0)
    run_named("criterion 8b (all sampled outsiders fail)",
              "centralizer-outsiders", trials=100, tol=0.0)


def test_criterion_09_orbit_structure():
    run_named("criterion 9a (invariant constant on 10 bases x 100 images)",
              "orbit-invariance", trials=1000, tol=1e-9)
    run_named("criterion 9b (real points return exactly zero)",
              "orbit-real-axis", trials=100, tol=0.0)
    run_named("criterion 9c (grid-search oracle agreement)",
              "orbit-grid-oracle", trials=10, tol=1e-6)


def test_criterion_10_root_finder():
    run_named("criterion 10a (root residuals on 500 factored quadratics)",
              "root-finder-residual", trials=500, tol=1e-10)
    run_named("criterion 10b (agreement with the Newton oracle)",
              "root-finder-newton", trials=200, tol=1e-8)

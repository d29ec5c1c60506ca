"""Star-product calculus and root finding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_quat import _qbits, anyquat
from sliceball.errors import DomainError, PoleError
from sliceball.quat import I, J, K, ONE, ZERO, Quaternion
from sliceball.starpoly import StarPoly, quadratic_root_in_ball, reg_conj, symmetrize
from sliceball.verify import sample_ball, sample_imaginary_unit

coeff = st.builds(Quaternion,
                  *(st.floats(min_value=-3, max_value=3, allow_nan=False),) * 4)
polys = st.lists(coeff, min_size=1, max_size=7).map(StarPoly)


def test_star_mul_examples():
    f = StarPoly([-I, ONE])   # q - i
    g = StarPoly([-J, ONE])   # q - j
    prod = f * g
    assert prod == StarPoly([I * J, -(I + J), ONE])
    assert f * StarPoly([ONE]) == f
    assert StarPoly([Quaternion(), I]) * StarPoly([Quaternion(), J]) == StarPoly(
        [Quaternion(), Quaternion(), K])


def test_degree_and_trimming():
    assert StarPoly([ONE, Quaternion()]).degree == 0
    assert StarPoly([]).degree == -1
    assert StarPoly([Quaternion()]).is_zero()


def test_reg_conj_examples():
    assert reg_conj(StarPoly([-I, ONE])) == StarPoly([I, ONE])
    real = StarPoly([ONE, Quaternion(-2.0), Quaternion(3.0)])
    assert reg_conj(real) == real
    assert reg_conj(StarPoly([Quaternion(), Quaternion(1, 0, 1, 0)])) == StarPoly(
        [Quaternion(), Quaternion(1, 0, -1, 0)])


def test_symmetrize_examples():
    a = Quaternion(0.25, 0.5, -0.75, 0.125)
    f = StarPoly([-a, ONE])  # q - a
    fs = symmetrize(f)
    assert fs == StarPoly([Quaternion(a.norm_sq()), Quaternion(-2 * a.w), ONE])
    assert symmetrize(StarPoly([a])) == StarPoly([Quaternion(a.norm_sq())])
    assert symmetrize(StarPoly([Quaternion(), ONE])) == StarPoly([ZERO, ZERO, ONE])


@given(polys)
def test_symmetrize_real(f):
    assert all(c.im_norm() <= 1e-12 for c in symmetrize(f).coeffs)


@given(polys, polys)
def test_conj_antihomomorphism(f, g):
    lhs = reg_conj(f * g)
    rhs = reg_conj(g) * reg_conj(f)
    n = max(len(lhs.coeffs), len(rhs.coeffs))
    assert all((lhs.coeff(k) - rhs.coeff(k)).norm() <= 1e-12 for k in range(n))


def test_eval_examples():
    assert StarPoly([ONE, ZERO, ONE]).eval(I) == Quaternion()
    prod = StarPoly([-I, ONE]) * StarPoly([-J, ONE])
    assert prod.eval(I).norm() <= 1e-15
    a = Quaternion(0.5, 1, 2, 3)
    p = Quaternion(1, -1, 0, 2)
    assert (StarPoly([Quaternion(), a]).eval(p) - p * a).norm() == 0.0


@given(st.lists(anyquat, max_size=6).map(StarPoly), anyquat)
def test_eval_is_horner_bit_for_bit(f, q):
    acc = ZERO
    for c in reversed(f.coeffs):
        acc = q * acc + c
    assert _qbits(f.eval(q)) == _qbits(acc)


@pytest.mark.parametrize("coeffs, slot", [([0.5, ONE], 0), ([ONE, I, 2], 2),
                                          ([ZERO, np.float64(1.0)], 1)])
def test_a_coefficient_must_be_a_quaternion(coeffs, slot):
    with pytest.raises(TypeError, match=f"StarPoly coefficient {slot} must be a Quaternion"):
        StarPoly(coeffs)


def test_left_factor_root_annihilates():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = sample_ball(rng)
        b = Quaternion(*rng.standard_normal(4))
        prod = StarPoly([-a, ONE]) * StarPoly([-b, ONE])
        assert prod.eval(a).norm() <= 1e-13


def star_inverse_eval(f: StarPoly, q: Quaternion) -> Quaternion:
    """Value at q of the star-inverse (1/f^s) f^c; PoleError where f^s vanishes."""
    den = symmetrize(f).eval(q)
    if den.norm() == 0.0:
        raise PoleError(f"star-inverse evaluated on the zero set of the symmetrization at {q!r}")
    return den.inverse() * reg_conj(f).eval(q)


def test_star_inverse_examples():
    assert star_inverse_eval(StarPoly([ONE]), Quaternion(0.3, 0.4, 0, 0)) == ONE
    # in-slice evaluation reduces to commutative arithmetic
    a = Quaternion(0.2, 0.3, 0, 0)
    q = Quaternion(-0.1, 0.5, 0, 0)
    f = StarPoly([-a, ONE])
    assert (star_inverse_eval(f, q) - (q - a).inverse()).norm() <= 1e-14


def test_star_inverse_is_star_reciprocal():
    rng = np.random.default_rng(12)
    for _ in range(40):
        f = StarPoly([Quaternion(*rng.standard_normal(4)) for _ in range(3)])
        q = sample_ball(rng, 0.9)
        fs_val = symmetrize(f).eval(q)
        if fs_val.norm() < 1e-3:
            continue
        # f star f^{-*} evaluated at q: f(q) times f^{-*} at the twisted point
        val = f.eval(q)
        if val.norm() < 1e-6:
            continue
        moved = val.inverse() * q * val
        assert (val * star_inverse_eval(f, moved) - ONE).norm() <= 1e-9


def test_star_inverse_pole():
    f = StarPoly([Quaternion(), ONE])  # q, symmetrization q^2
    with pytest.raises(PoleError):
        star_inverse_eval(f, Quaternion())


def test_root_finder_linear():
    for a0, a1, zero in [
        (Quaternion(-0.4), Quaternion(2.0), Quaternion(0.2)),
        # coefficients that do not commute: the zero is -(a0 a1^-1), and the other
        # order -(a1^-1 a0) would give the opposite imaginary part
        (Quaternion(0, 0, 0, 0.3), Quaternion(0, 1, 2, 0), Quaternion(0, -0.12, 0.06, 0)),
    ]:
        p = StarPoly([a0, a1])
        report = quadratic_root_in_ball(p)
        assert len(report.points) == 1 and not report.spheres
        assert (report.points[0] - zero).norm() <= 1e-14
        assert p.eval(report.points[0]).norm() <= 1e-15


def test_root_finder_spherical():
    report = quadratic_root_in_ball(StarPoly([ONE, ZERO, ONE]))  # q^2 + 1
    assert not report.points
    assert len(report.spheres) == 1
    x, y = report.spheres[0]
    assert abs(x) <= 1e-9 and abs(y - 1.0) <= 1e-9
    # the sphere sits on the boundary, not in the open ball
    assert not report.spheres_in_ball()


def test_root_finder_mixed_example():
    p = StarPoly([-(I * 0.3), ONE]) * StarPoly([Quaternion(-0.1), ONE])
    report = quadratic_root_in_ball(p)
    assert any((r - I * 0.3).norm() <= 1e-10 for r in report.points)
    assert any((r - Quaternion(0.1)).norm() <= 1e-10 for r in report.points)
    for r in report.points:
        assert p.eval(r).norm() <= 1e-10


def test_root_finder_same_sphere_pair():
    a = Quaternion(0.2, 0.4, 0.1, 0.0)
    p = StarPoly([-a, ONE]) * StarPoly([-a.conj(), ONE])
    report = quadratic_root_in_ball(p)
    assert not report.points
    assert len(report.spheres) == 1
    x, y = report.spheres[0]
    assert abs(x - 0.2) <= 1e-8 and abs(y - a.im_norm()) <= 1e-8


def _planted_quadratic(family, rng):
    """(q - a) * g with the zero a near the real axis, on it, or beside the huge
    zero of a g with a tiny leading coefficient."""
    g = StarPoly([-Quaternion(*(0.8 * rng.standard_normal(4))), ONE])
    if family == "near-axis":
        height = 10.0 ** rng.uniform(-10, -4)
        a = Quaternion(rng.uniform(-0.9, 0.9)) + sample_imaginary_unit(rng) * height
    elif family == "real-zero":
        a = Quaternion(rng.uniform(-0.95, 0.95))
    else:
        a = sample_ball(rng, 0.95)
        g = StarPoly([Quaternion(*rng.standard_normal(4)),
                      Quaternion(*rng.standard_normal(4)) * 10.0 ** rng.uniform(-9, -3)])
    return StarPoly([-a, ONE]) * g, a


def test_root_finder_random_residuals():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = sample_ball(rng, 0.95)
        b = Quaternion(*(0.8 * rng.standard_normal(4)))
        p = StarPoly([-a, ONE]) * StarPoly([-b, ONE])
        report = quadratic_root_in_ball(p)
        assert any((r - a).norm() <= 1e-9 for r in report.points_in_ball())
        for r in report.points:
            assert p.eval(r).norm() <= 1e-10
    rng = np.random.default_rng(14)
    for family in ("near-axis", "real-zero", "tiny-leading"):
        for _ in range(100):
            p, a = _planted_quadratic(family, rng)
            report = quadratic_root_in_ball(p)
            assert any((r - a).norm() <= 1e-9 for r in report.points_in_ball())
            for r in report.points_in_ball():
                assert p.eval(r).norm() <= 1e-10


def test_root_finder_double_zero_is_one_point():
    # (q - a) * (q - a) has the one zero a; a real a is not a thin sphere beside a point
    rng = np.random.default_rng(15)
    cases = [(StarPoly([Quaternion(0.09), Quaternion(-0.6), ONE]), Quaternion(0.3))]
    for a in [Quaternion(-0.7), Quaternion(0.9)] + [sample_ball(rng, 0.95) for _ in range(50)]:
        cases.append((StarPoly([-a, ONE]) * StarPoly([-a, ONE]), a))
    for p, a in cases:
        report = quadratic_root_in_ball(p)
        assert not report.spheres and len(report.points) == 1
        assert (report.points[0] - a).norm() <= 1e-10


def test_root_finder_near_axis_zero_not_collapsed():
    # a genuine zero a hair off the real axis must keep its imaginary part
    a = Quaternion(0.3, 1e-8, 0, 0)
    p = StarPoly([-a, ONE]) * StarPoly([-Quaternion(0.7, 0.2, 0, 0), ONE])
    report = quadratic_root_in_ball(p)
    assert any((r - a).norm() <= 1e-12 for r in report.points)


def test_root_finder_tiny_leading_coefficient():
    # near-degenerate quadratic: the honest small zero survives the huge partner root
    a = Quaternion(0.2, 0.1, -0.3, 0.0)
    p = StarPoly([-a, ONE]) * StarPoly([ONE, Quaternion(1e-9)])  # second factor root at -1e9
    report = quadratic_root_in_ball(p)
    assert any((r - a).norm() <= 1e-9 for r in report.points_in_ball())


def test_root_finder_rejects_bad_degree():
    with pytest.raises(DomainError):
        quadratic_root_in_ball(StarPoly([]))
    with pytest.raises(DomainError):
        quadratic_root_in_ball(StarPoly([Quaternion(2.0)]))
    with pytest.raises(DomainError):
        quadratic_root_in_ball(StarPoly([ONE, ONE, ONE, ONE]))

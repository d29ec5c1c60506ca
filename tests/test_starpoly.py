"""Star-product calculus, root finding, and the regularity residual."""

import pytest
from hypothesis import given, strategies as st

from sliceball.errors import DomainError, PoleError
from sliceball.quat import I, J, K, ONE, Quaternion, make_rng, sample_ball
from sliceball.starpoly import (StarPoly, constant, quadratic_root_in_ball, reg_conj,
                                regularity_residual, star_inverse_eval,
                                symmetrize)

coeff = st.builds(Quaternion,
                  *(st.floats(min_value=-3, max_value=3, allow_nan=False),) * 4)
polys = st.lists(coeff, min_size=1, max_size=7).map(StarPoly)


def test_star_mul_examples():
    f = StarPoly([-I, ONE])   # q - i
    g = StarPoly([-J, ONE])   # q - j
    prod = f * g
    assert prod == StarPoly([I * J, -(I + J), ONE])
    assert f * constant(1.0) == f
    assert StarPoly([Quaternion(), I]) * StarPoly([Quaternion(), J]) == StarPoly(
        [Quaternion(), Quaternion(), K])


def test_degree_and_trimming():
    assert StarPoly([ONE, Quaternion()]).degree == 0
    assert StarPoly([]).degree == -1
    assert StarPoly([Quaternion()]).is_zero()
    assert (StarPoly([ONE]) - StarPoly([ONE])).is_zero()


def test_reg_conj_examples():
    assert reg_conj(StarPoly([-I, ONE])) == StarPoly([I, ONE])
    real = StarPoly([1.0, -2.0, 3.0])
    assert reg_conj(real) == real
    assert reg_conj(StarPoly([Quaternion(), Quaternion(1, 0, 1, 0)])) == StarPoly(
        [Quaternion(), Quaternion(1, 0, -1, 0)])


def test_symmetrize_examples():
    a = Quaternion(0.25, 0.5, -0.75, 0.125)
    f = StarPoly([-a, ONE])  # q - a
    fs = symmetrize(f)
    assert (fs - StarPoly([a.norm_sq(), -2 * a.w, 1.0])).coeffs == ()
    assert symmetrize(constant(a)) == StarPoly([a.norm_sq()])
    assert symmetrize(StarPoly([Quaternion(), ONE])) == StarPoly([0.0, 0.0, 1.0])


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
    assert StarPoly([1.0, 0.0, 1.0]).eval(I) == Quaternion()
    prod = StarPoly([-I, ONE]) * StarPoly([-J, ONE])
    assert prod.eval(I).norm() <= 1e-15
    a = Quaternion(0.5, 1, 2, 3)
    p = Quaternion(1, -1, 0, 2)
    assert (StarPoly([Quaternion(), a]).eval(p) - p * a).norm() == 0.0


def test_left_factor_root_annihilates():
    rng = make_rng(11)
    for _ in range(50):
        a = sample_ball(rng)
        b = Quaternion(*rng.standard_normal(4))
        prod = StarPoly([-a, ONE]) * StarPoly([-b, ONE])
        assert prod.eval(a).norm() <= 1e-13


def test_star_inverse_examples():
    assert star_inverse_eval(constant(1.0), Quaternion(0.3, 0.4, 0, 0)) == ONE
    # in-slice evaluation reduces to commutative arithmetic
    a = Quaternion(0.2, 0.3, 0, 0)
    q = Quaternion(-0.1, 0.5, 0, 0)
    f = StarPoly([-a, ONE])
    assert (star_inverse_eval(f, q) - (q - a).inverse()).norm() <= 1e-14


def test_star_inverse_is_star_reciprocal():
    rng = make_rng(12)
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
    report = quadratic_root_in_ball(StarPoly([-0.4, 2.0]))
    assert len(report.points) == 1 and not report.spheres
    assert (report.points[0] - Quaternion(0.2)).norm() <= 1e-14


def test_root_finder_spherical():
    report = quadratic_root_in_ball(StarPoly([1.0, 0.0, 1.0]))  # q^2 + 1
    assert not report.points
    assert len(report.spheres) == 1
    x, y = report.spheres[0]
    assert abs(x) <= 1e-9 and abs(y - 1.0) <= 1e-9
    # the sphere sits on the boundary, not in the open ball
    assert not report.spheres_in_ball()
    assert report.any_in_closed_ball()


def test_root_finder_mixed_example():
    p = StarPoly([-(I * 0.3), ONE]) * StarPoly([-0.1, ONE])
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


def test_root_finder_random_residuals():
    rng = make_rng(13)
    for _ in range(100):
        a = sample_ball(rng, 0.95)
        b = Quaternion(*(0.8 * rng.standard_normal(4)))
        p = StarPoly([-a, ONE]) * StarPoly([-b, ONE])
        report = quadratic_root_in_ball(p)
        assert any((r - a).norm() <= 1e-9 for r in report.points_in_ball())
        for r in report.points:
            assert p.eval(r).norm() <= 1e-10


def test_root_finder_near_axis_zero_not_collapsed():
    # a genuine zero a hair off the real axis must keep its imaginary part
    a = Quaternion(0.3, 1e-8, 0, 0)
    p = StarPoly([-a, ONE]) * StarPoly([-Quaternion(0.7, 0.2, 0, 0), ONE])
    report = quadratic_root_in_ball(p)
    assert any((r - a).norm() <= 1e-12 for r in report.points)


def test_root_finder_tiny_leading_coefficient():
    # near-degenerate quadratic: the honest small zero survives the huge partner root
    a = Quaternion(0.2, 0.1, -0.3, 0.0)
    p = StarPoly([-a, ONE]) * StarPoly([1.0, 1e-9])  # second factor root at -1e9
    report = quadratic_root_in_ball(p)
    assert any((r - a).norm() <= 1e-9 for r in report.points_in_ball())


def test_root_finder_rejects_bad_degree():
    with pytest.raises(DomainError):
        quadratic_root_in_ball(StarPoly([]))
    with pytest.raises(DomainError):
        quadratic_root_in_ball(constant(2.0))
    with pytest.raises(DomainError):
        quadratic_root_in_ball(StarPoly([1.0, 1.0, 1.0, 1.0]))


def test_regularity_residual_polynomial():
    f = StarPoly([Quaternion(0.3, 1, 0, 0), Quaternion(), ONE])
    q = Quaternion(0.2, 0.3, -0.1, 0.4) * 0.5
    assert regularity_residual(f.eval, q, h=1e-4) <= 1e-7


def test_regularity_residual_conjugation_defect():
    # conj has residual |(1 + I(-I))/2| = 1 on every slice
    q = Quaternion(0.2, 0.3, 0, 0)
    res = regularity_residual(lambda p: p.conj(), q, h=1e-5)
    assert abs(res - 1.0) <= 1e-8


def test_regularity_residual_rate():
    f = StarPoly([Quaternion(0.1, 0.2, -0.3, 0.4), I, ONE, J])
    q = Quaternion(0.1, 0.2, 0.3, -0.1)
    r1 = regularity_residual(f.eval, q, h=2e-3)
    r2 = regularity_residual(f.eval, q, h=1e-3)
    assert r1 <= 1e-4
    assert 2.5 <= r1 / r2 <= 5.5  # second-order decay


def test_regularity_residual_real_point_uses_given_unit():
    f = StarPoly([Quaternion(), ONE, ONE])
    res = regularity_residual(f.eval, Quaternion(0.4), h=1e-5, unit=J)
    assert res <= 1e-8
    with pytest.raises(DomainError):
        regularity_residual(f.eval, Quaternion(0.4), h=1e-5, unit=Quaternion(1, 1, 0, 0))


def test_regularity_residual_step_underflow():
    f = StarPoly([Quaternion(), ONE])
    with pytest.raises(DomainError):
        regularity_residual(f.eval, Quaternion(0.5), h=0.0)
    with pytest.raises(DomainError):
        regularity_residual(f.eval, Quaternion(0.5), h=1e-30)

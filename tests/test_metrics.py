"""Both metrics, the Hermitian form, pullback residuals, geodesics and tables."""

import math

import pytest

from sliceball.errors import DomainError
from sliceball.hmat import exp_m, hyperbolic, i11
from sliceball.metrics import (geodesic_table, poincare_g, pullback_residual,
                               slice_g, slice_h, slice_omega, slice_ray,
                               symm_geodesic)
from sliceball.mobius import classical_apply, mobius_M, regular_apply
from sliceball.quat import I, J, ONE, Quaternion, make_rng, sample_ball, sample_sphere3


def test_poincare_examples():
    assert poincare_g(Quaternion(), ONE, ONE) == 1.0
    assert abs(poincare_g(Quaternion(0.5), ONE, ONE) - 16.0 / 9.0) <= 1e-15
    q = Quaternion(0.3, -0.2, 0.1, 0.4)
    assert poincare_g(q, I, J) == 0.0


def test_slice_h_examples():
    alpha = Quaternion(0.5, 1, -2, 0.25)
    beta = Quaternion(-1, 0.5, 3, 2)
    assert (slice_h(Quaternion(), alpha, beta) - alpha * beta.conj()).norm() == 0.0
    x = 0.6
    got = slice_h(Quaternion(x), ONE, ONE)
    assert (got - Quaternion(1.0 / (1 - x * x) ** 2)).norm() <= 1e-14


def test_h_decomposes_into_g_plus_omega():
    rng = make_rng(31)
    for _ in range(40):
        q = sample_ball(rng, 0.7)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        h = slice_h(q, alpha, beta)
        assert abs(h.w - slice_g(q, alpha, beta)) <= 1e-12
        assert (h.im() - slice_omega(q, alpha, beta)).norm() == 0.0
        assert (h - slice_h(q, beta, alpha).conj()).norm() <= 1e-12


def test_metrics_differ_off_slice():
    q = I * 0.5
    assert abs(slice_g(q, J, J) - 0.64) <= 1e-15
    assert abs(poincare_g(q, J, J) - 16.0 / 9.0) <= 1e-15


def test_slice_g_in_slice_reduces_to_hyperbolic():
    rng = make_rng(32)
    for _ in range(40):
        unit = Quaternion(0, *(rng.standard_normal(3)))
        unit = unit / unit.norm()
        x, y = 0.4 * rng.standard_normal(2)
        if x * x + y * y >= 0.81:
            continue
        q = Quaternion(x) + unit * y
        alpha = Quaternion(float(rng.standard_normal())) + unit * float(rng.standard_normal())
        beta = Quaternion(float(rng.standard_normal())) + unit * float(rng.standard_normal())
        want = (alpha * beta.conj()).w / (1 - q.norm_sq()) ** 2
        assert abs(slice_g(q, alpha, beta) - want) <= 1e-12


def test_pullback_identity_map():
    rng = make_rng(33)
    q = sample_ball(rng, 0.5)
    assert pullback_residual(lambda p: p, slice_g, q, rng) <= 1e-9
    assert pullback_residual(lambda p: p, poincare_g, q, rng) <= 1e-9


def test_pullback_residual_keeps_a_nan():
    rng = make_rng(34)
    q = sample_ball(rng, 0.5)
    assert math.isnan(pullback_residual(lambda p: p, lambda *args: math.nan, q, rng))
    # NaN on some tangent pairs only
    metric = lambda at, a, b: math.nan if a.w > 0.0 else slice_g(at, a, b)
    assert math.isnan(pullback_residual(lambda p: p, metric, q, rng))


def test_poincare_invariant_under_group():
    rng = make_rng(34)
    from sliceball.hmat import diag
    for _ in range(20):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * (0.8 * float(rng.random())))
        q = sample_ball(rng, 0.6)
        assert pullback_residual(lambda p: classical_apply(a, p),
                                 poincare_g, q, rng) <= 1e-5


def test_slice_g_invariant_under_regular_centering():
    rng = make_rng(35)
    for _ in range(20):
        q = sample_ball(rng, 0.7)
        mat = mobius_M(q)
        assert regular_apply(mat, q).norm() <= 1e-12
        assert pullback_residual(lambda p: regular_apply(mat, p),
                                 slice_g, q, rng) <= 1e-5


def test_geodesic_examples():
    u = sample_sphere3(make_rng(36))
    t = 1.0
    assert (symm_geodesic(u, Quaternion(), t) - u * math.tanh(t)).norm() <= 1e-15
    a = Quaternion(0.3, 0.2, 0, 0.1)
    assert symm_geodesic(u, a, 0.0) == a
    assert abs(symm_geodesic(ONE, Quaternion(), 1.0).w - math.tanh(1.0)) <= 1e-15


def test_geodesic_reversal_through_origin():
    rng = make_rng(37)
    for _ in range(20):
        u = sample_sphere3(rng)
        t = 3.0 * float(rng.random()) - 1.5
        lhs = classical_apply(i11(), symm_geodesic(u, Quaternion(), t))
        assert (lhs - symm_geodesic(u, Quaternion(), -t)).norm() <= 1e-15


def test_geodesic_matches_hyperbolic_action():
    rng = make_rng(38)
    for _ in range(20):
        a = sample_ball(rng, 0.7)
        t = 2.0 * float(rng.random()) - 1.0
        assert (symm_geodesic(ONE, a, t) - classical_apply(hyperbolic(t), a)).norm() <= 1e-14


def test_slice_ray():
    assert slice_ray(I, 0.0).norm() == 0.0
    assert (slice_ray(I, 1.0) - I * math.tanh(1.0)).norm() == 0.0


def test_slice_ray_unit_speed():
    # finite-difference velocity of the ray has slice-metric length 1
    h = 1e-6
    for t in (-1.2, -0.3, 0.0, 0.7, 1.5):
        p = slice_ray(I, t)
        v = (slice_ray(I, t + h) - slice_ray(I, t - h)) / (2 * h)
        speed = slice_g(p, v, v)
        assert abs(speed - 1.0) <= 1e-8


def test_geodesic_table():
    rows = geodesic_table(ONE, -2.0, 2.0, 5)
    assert len(rows) == 5
    t_mid, p_mid = rows[2]
    assert t_mid == 0.0 and p_mid.norm() == 0.0
    ts = [t for t, _ in rows]
    assert ts == [-2.0, -1.0, 0.0, 1.0, 2.0]
    rows = geodesic_table(ONE, 1.0, 1.0 + 1e-9, 2)
    assert abs(rows[0][1].w - math.tanh(1.0)) <= 1e-12
    with pytest.raises(ValueError):
        geodesic_table(ONE, 0.0, 1.0, 1)


@pytest.mark.parametrize("u", [ONE * 2.0, ONE * (1.0 + 1e-8), ONE * 0.5, Quaternion()])
@pytest.mark.parametrize("a", [None, Quaternion(0.3)])
def test_table_rejects_a_non_unit_direction(u, a):
    with pytest.raises(DomainError):
        geodesic_table(u, 2.0, 3.0, 2, a=a)


def test_orbit_table_through_base_point():
    u0 = I
    rows = geodesic_table(u0, -1.0, 1.0, 3, a=Quaternion())
    assert (rows[2][1] - I * math.tanh(1.0)).norm() <= 1e-15


def test_orbit_keeps_its_distance_from_the_axis():
    # off the line tanh(s) u the orbit is an equidistant curve, not a geodesic:
    # sinh of twice the Poincare distance to the line is 2 |p_perp| / (1 - |p|^2)
    u, a = Quaternion(0, 1, 0, 0), Quaternion(0.3, 0.1, 0.2, 0)

    def spread(p):
        along = (p * u.conj()).w
        return 2.0 * (p - u * along).norm() / (1.0 - p.norm_sq())

    values = [spread(symm_geodesic(u, a, t)) for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)]
    assert max(values) - min(values) <= 1e-12 and min(values) > 0.5

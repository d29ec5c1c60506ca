"""Both metrics, the Hermitian form, pullback residuals, geodesics and tables."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from test_hmat import unitquat
from test_quat import _bits, _qbits, anyfloat, anyquat

from sliceball.errors import DomainError
from sliceball.hmat import I11, exp_m, hyperbolic
from sliceball.lie import orbit_invariant
from sliceball.metrics import geodesic_table, poincare_g, pullback_residual, slice_g, slice_h
from sliceball.mobius import classical_apply, differential, mobius_M, regular_apply
from sliceball.quat import I, J, ONE, Quaternion, slice_split
from sliceball.verify import sample_ball, sample_sphere3


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
    rng = np.random.default_rng(31)
    for _ in range(40):
        q = sample_ball(rng, 0.7)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        h = slice_h(q, alpha, beta)
        assert abs(h.w - slice_g(q, alpha, beta)) <= 1e-12
        assert (h - slice_h(q, beta, alpha).conj()).norm() <= 1e-12


def test_metrics_differ_off_slice():
    q = I * 0.5
    assert abs(slice_g(q, J, J) - 0.64) <= 1e-15
    assert abs(poincare_g(q, J, J) - 16.0 / 9.0) <= 1e-15


def test_slice_g_in_slice_reduces_to_hyperbolic():
    rng = np.random.default_rng(32)
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


def _split(v: Quaternion, unit: Quaternion) -> tuple[Quaternion, Quaternion]:
    """v = v_par + v_perp with v_par in the slice C_I of the imaginary unit I."""
    par = Quaternion(v.w) + unit * (v * unit.conj()).w
    return par, v - par


def test_slice_g_splits_into_poincare_on_the_slice_and_less_off_it():
    # slice_g = Re(a_par conj(b_par)) / (1 - |q|^2)^2 + Re(a_perp conj(b_perp)) / |1 - q^2|^2
    rng = np.random.default_rng(33)
    for _ in range(200):
        q = sample_ball(rng, 0.95)
        _, _, unit = slice_split(q)
        alpha, beta = (Quaternion(*rng.standard_normal(4).tolist()) for _ in range(2))
        (a_par, a_perp), (b_par, b_perp) = _split(alpha, unit), _split(beta, unit)
        d2, n2 = (1.0 - q.norm_sq()) ** 2, (ONE - q * q).norm_sq()
        want = (a_par * b_par.conj()).w / d2 + (a_perp * b_perp.conj()).w / n2
        # relative to sqrt(g(alpha, alpha) g(beta, beta)), the scale of a bilinear form
        scale = math.sqrt((a_par.norm_sq() / d2 + a_perp.norm_sq() / n2)
                          * (b_par.norm_sq() / d2 + b_perp.norm_sq() / n2))
        assert abs(slice_g(q, alpha, beta) - want) <= 1e-13 * scale


def test_rho_of_the_orbit_invariant_is_the_off_slice_factor():
    # rho(y) = ((1 - y^2)/(1 + y^2))^2 = (1 - |q|^2)^2 / |1 - q^2|^2, so g_S <= g_P,
    # with equality along each slice
    rng = np.random.default_rng(34)
    for k in range(300):
        u = rng.standard_normal(4)
        r = 0.5 if k == 0 else 1.0 - 10.0 ** rng.uniform(-6, 0)
        q = Quaternion(*(u * (r / np.linalg.norm(u))).tolist())
        y = orbit_invariant(q)
        d = 1.0 - q.norm_sq()
        rho = ((1.0 - y * y) / (1.0 + y * y)) ** 2
        assert abs(rho - d * d / (ONE - q * q).norm_sq()) <= 1e-14 / d
        assert rho <= 1.0


def _twisted(q: Quaternion, v: Quaternion) -> Quaternion:
    # the bilinear numerator factor v - q v q, in quaternion operators
    return v - q * v * q


def _slice_g_product_form(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> float:
    num = (_twisted(q, alpha) * _twisted(q, beta).conj()).w
    return num / ((ONE - q * q).norm_sq() * (1.0 - q.norm_sq()) ** 2)


def _slice_h_product_form(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> Quaternion:
    left, right = (ONE - q * q).inverse(), (ONE - q.conj() * q.conj()).inverse()
    den = 1.0 - q.norm_sq()
    return (left * _twisted(q, alpha) * _twisted(q, beta).conj() * right) / (den * den)


@given(st.one_of(st.builds(Quaternion, *[st.floats(-0.5, 0.5)] * 4), anyquat),
       st.one_of(unitquat, anyquat), st.one_of(unitquat, anyquat))
def test_slice_g_is_the_twisted_product_form_bit_for_bit(q, alpha, beta):
    # slice_g on float locals, and slice_h through the same float factor
    if not q.norm() < 1.0:
        with pytest.raises(DomainError):
            slice_g(q, alpha, beta)
        return
    assert _bits(slice_g(q, alpha, beta)) == _bits(_slice_g_product_form(q, alpha, beta))
    assert _qbits(slice_h(q, alpha, beta)) == _qbits(_slice_h_product_form(q, alpha, beta))


def test_eight_normals_are_two_draws_of_four():
    # pullback_residual takes both tangents of a trial from one standard_normal(8);
    # the reports stay the same only while numpy gives that the stream of two
    # standard_normal(4) calls, here over the (seed, check index) streams of verify
    for seed in range(1, 6):
        for index in range(48):
            one, two = np.random.default_rng([seed, index]), np.random.default_rng([seed, index])
            for _ in range(20):
                pair = np.concatenate([two.standard_normal(4), two.standard_normal(4)])
                assert one.standard_normal(8).tobytes() == pair.tobytes()


def test_pullback_identity_map():
    # one defect per tangent pair, 8 at the default
    rng = np.random.default_rng(33)
    q = sample_ball(rng, 0.5)
    for metric in (slice_g, poincare_g):
        defects = pullback_residual(lambda p: p, metric, q, rng)
        assert type(defects) is list and len(defects) == 8
        assert max(defects) <= 1e-9


class _Draws(list):
    """A plain list of draws offering the tolist() of a numpy array."""

    def tolist(self):
        return list(self)


class _FixedRng:
    def __init__(self, draws):
        self.draws = draws

    def standard_normal(self, n):
        return _Draws(self.draws[:n])


@given(st.builds(Quaternion, *[st.floats(-0.5, 0.5)] * 4), unitquat,
       st.one_of(st.lists(anyfloat, min_size=8, max_size=8),
                 st.builds(lambda seed: np.random.default_rng(seed).standard_normal(8).tolist(),
                           st.integers(0, 2 ** 32 - 1))))
def test_pullback_push_is_the_operator_form_bit_for_bit(q, m, draws):
    # the fused push against the quaternion operators on differential's columns
    def fn(p):
        return p * m * p + m

    seen = []

    def metric(at, alpha, beta):
        seen.append((alpha, beta))
        return 0.0

    pullback_residual(fn, metric, q, _FixedRng(draws), trials=1)
    c0, c1, c2, c3 = differential(fn, q)
    want = [(c0 * t.w + c2 * t.y) + (c1 * t.x + c3 * t.z) for t in seen[0]]
    assert [_qbits(t) for t in seen[1]] == [_qbits(t) for t in want]


def test_pullback_runs_without_numpy():
    # differential and pullback_residual work on quaternions alone; the rng is
    # any object whose standard_normal(8) offers tolist()
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # any numpy import now raises ImportError
        from sliceball.metrics import pullback_residual, slice_g
        from sliceball.mobius import differential
        from sliceball.quat import Quaternion

        class Draws(list):
            def tolist(self):
                return list(self)

        class Rng:
            def standard_normal(self, n):
                return Draws([0.3, -0.1, 0.7, 0.2, -0.5, 0.4, 0.1, 0.9][:n])

        q = Quaternion(0.1, 0.2, 0.3, -0.1)
        cols = differential(lambda p: p * p, q)
        assert len(cols) == 4 and all(type(c) is Quaternion for c in cols)
        assert max(pullback_residual(lambda p: p, slice_g, q, Rng())) <= 1e-9
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_pullback_residual_keeps_a_nan():
    rng = np.random.default_rng(34)
    q = sample_ball(rng, 0.5)
    assert all(map(math.isnan, pullback_residual(lambda p: p, lambda *args: math.nan, q, rng)))
    # NaN on some tangent pairs only
    metric = lambda at, a, b: math.nan if a.w > 0.0 else slice_g(at, a, b)
    defects = pullback_residual(lambda p: p, metric, q, rng)
    assert any(map(math.isnan, defects)) and not all(map(math.isnan, defects))
    # a map whose image the metric rejects (NaN, or off the ball) raises, as
    # every metric call on such a point does
    for image in (Quaternion(math.nan), Quaternion(2.0)):
        for metric in (poincare_g, slice_g):
            with pytest.raises(DomainError):
                pullback_residual(lambda p: p * 0.0 + image, metric, q, rng)


def test_poincare_invariant_under_group():
    rng = np.random.default_rng(34)
    from sliceball.hmat import diag
    for _ in range(20):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * (0.8 * float(rng.random())))
        q = sample_ball(rng, 0.6)
        assert max(pullback_residual(lambda p: classical_apply(a, p),
                                     poincare_g, q, rng)) <= 1e-5


def test_slice_g_invariant_under_regular_centering():
    rng = np.random.default_rng(35)
    for _ in range(20):
        q = sample_ball(rng, 0.7)
        mat = mobius_M(q)
        assert regular_apply(mat, q).norm() <= 1e-12
        assert max(pullback_residual(lambda p: regular_apply(mat, p),
                                     slice_g, q, rng)) <= 1e-5


def tanh_orbit(u, a, t):
    """(1 + tanh(t) a conj(u))^-1 (a + tanh(t) u): the orbit point exp(t P_u) . a in
    closed form, the reference the tables are held to."""
    tt = math.tanh(t)
    return (ONE + a * u.conj() * tt).inverse() * (a + u * tt)


def orbit(u, a, t):
    """The point at t of the orbit table through a."""
    return geodesic_table(u, t, t, 2, a=a)[0][1]


def test_geodesic_examples():
    u = sample_sphere3(np.random.default_rng(36))
    t = 1.0
    assert (orbit(u, Quaternion(), t) - u * math.tanh(t)).norm() <= 1e-15
    a = Quaternion(0.3, 0.2, 0, 0.1)
    assert orbit(u, a, 0.0) == a
    assert abs(orbit(ONE, Quaternion(), 1.0).w - math.tanh(1.0)) <= 1e-15


def test_orbit_table_is_the_tanh_form():
    rng = np.random.default_rng(39)
    for _ in range(200):
        u, a, t = sample_sphere3(rng), sample_ball(rng, 0.9), 6.0 * float(rng.random()) - 3.0
        assert (orbit(u, a, t) - tanh_orbit(u, a, t)).norm() <= 4e-15


def test_geodesic_reversal_through_origin():
    rng = np.random.default_rng(37)
    for _ in range(20):
        u = sample_sphere3(rng)
        t = 3.0 * float(rng.random()) - 1.5
        lhs = classical_apply(I11, orbit(u, Quaternion(), t))
        assert (lhs - orbit(u, Quaternion(), -t)).norm() <= 1e-15


def test_geodesic_matches_hyperbolic_action():
    rng = np.random.default_rng(38)
    for _ in range(20):
        a = sample_ball(rng, 0.7)
        t = 2.0 * float(rng.random()) - 1.0
        assert orbit(ONE, a, t) == classical_apply(hyperbolic(t), a)
        assert (tanh_orbit(ONE, a, t) - classical_apply(hyperbolic(t), a)).norm() <= 1e-14


def test_slice_ray():
    # the slice-metric geodesic ray tanh(t) u is the orbit through the origin;
    # 4.4e-16 at most over 6001 t in [-3, 3]
    assert orbit(I, Quaternion(), 0.0).norm() == 0.0
    for t in np.linspace(-3.0, 3.0, 61):
        assert (orbit(I, Quaternion(), t) - I * math.tanh(t)).norm() <= 1e-15


def test_slice_ray_unit_speed():
    # finite-difference velocity of the ray has slice-metric length 1
    h = 1e-6
    for t in (-1.2, -0.3, 0.0, 0.7, 1.5):
        p = orbit(I, Quaternion(), t)
        v = (orbit(I, Quaternion(), t + h) - orbit(I, Quaternion(), t - h)) / (2 * h)
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


def test_geodesic_table_t_column_is_linspace():
    # the t column is np.linspace(t_min, t_max, steps) bit for bit, signed zeros
    # and a step that underflows included
    rng = np.random.default_rng(60)
    cases = [(float(lo), float(hi), int(n)) for lo, hi, n in
             zip(rng.uniform(-5, 5, 200), rng.uniform(-5, 5, 200), rng.integers(2, 200, 200))]
    cases += [(3.0, -2.0, 7), (0.7, 0.7, 4), (-0.0, -0.0, 3), (0.0, -0.0, 3), (-0.0, 1.0, 5),
              (-1.0, -0.0, 5), (1.0, 2.0, 2), (-2.5, 2.5, 5000), (0.0, 5e-324, 3),
              (-5e-324, 5e-324, 7), (300.0, -300.0, 9)]
    for t_min, t_max, steps in cases:
        got = [t.hex() for t, _ in geodesic_table(ONE, t_min, t_max, steps)]
        assert got == [float(t).hex() for t in np.linspace(t_min, t_max, steps)]


@pytest.mark.parametrize("t_max, match", [(400.0, "squared norm overflows"),
                                          (1e300, "exp_m needs"), (-1e300, "exp_m needs")])
@pytest.mark.parametrize("a", [None, Quaternion(0.3, 0.1, 0.0, 0.2)])
def test_orbit_table_rejects_a_t_past_the_float_orbit(t_max, match, a):
    # at t = 400 cosh(t)^2 overflows, and the inverse of the action's denominator
    # would round to 0 and put the point at the origin
    with pytest.raises(DomainError, match=match):
        geodesic_table(I, 0.0, t_max, 2, a=a)


@pytest.mark.parametrize("t_min, t_max", [(-1.0, math.inf), (-math.inf, 1.0),
                                          (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)])
def test_geodesic_table_rejects_a_non_finite_range(t_min, t_max):
    with pytest.raises(DomainError, match="finite"):
        geodesic_table(ONE, t_min, t_max, 3)


@pytest.mark.parametrize("u", [ONE * 2.0, ONE * (1.0 + 1e-8), ONE * 0.5, Quaternion()])
@pytest.mark.parametrize("a", [None, Quaternion(0.3)])
def test_table_rejects_a_non_unit_direction(u, a):
    # the `table --u` error text of the CLI
    text = f"orbit direction must be a unit quaternion, |u| = {u.norm()!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
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

    values = [spread(orbit(u, a, t)) for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)]
    assert max(values) - min(values) <= 1e-12 and min(values) > 0.5


@pytest.mark.parametrize("metric", [poincare_g, slice_g, slice_h])
@pytest.mark.parametrize("q", [Quaternion(2.0), Quaternion(1.0), Quaternion(0.0, 0.6, 0.8),
                               Quaternion(math.nan), Quaternion(0.1, math.inf)])
def test_metrics_reject_points_off_the_ball(metric, q):
    # poincare_g(2) once returned 0.111 and slice_g(1) divided by zero
    with pytest.raises(DomainError):
        metric(q, ONE, ONE)

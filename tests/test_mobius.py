"""Classical/regular Mobius transformations, the quotient map, differentials,
and the real-coset classification."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from sliceball.errors import ConsistencyError, DomainError
from sliceball.hmat import I11, IDENTITY, QMat2, diag, exp_m, hyperbolic, sp11_inverse
from sliceball.lie import iso_g_act, o11_classify
from sliceball.mobius import (classical_apply, differential, f_au, f_au_matrix,
                              mobius_M, quotient_point, regular_apply)
from sliceball.quat import I, J, K, ONE, ZERO, Quaternion, sgn
from sliceball.starpoly import linear_map, reg_conj, symmetrize
from sliceball.verify import _orientation_sign, _rand_iso, _rand_sp11, sample_ball, sample_sphere3


def test_classical_examples():
    q = Quaternion(0.2, -0.3, 0.1, 0.4)
    assert (classical_apply(I11, q) + q).norm() == 0.0
    assert classical_apply(IDENTITY, q) == q
    t = 0.9
    img = classical_apply(hyperbolic(t), Quaternion())
    assert (img - Quaternion(math.tanh(t))).norm() <= 1e-15


def test_classical_rejects_boundary():
    with pytest.raises(DomainError):
        classical_apply(IDENTITY, Quaternion(1.0))
    # a group matrix whose denominator's squared norm overflows: its inverse would read 0
    with pytest.raises(DomainError, match="squared norm overflows"):
        classical_apply(exp_m(Quaternion(400.0)), Quaternion(0.1))


def test_regular_examples():
    rng = np.random.default_rng(21)
    a = sample_ball(rng, 0.9)
    assert regular_apply(mobius_M(a), a).norm() <= 1e-14
    q = sample_ball(rng, 0.9)
    assert regular_apply(IDENTITY, q) == q
    # hyperbolic rotations act identically in both flavors
    for _ in range(10):
        t = 2.0 * float(rng.random()) - 1.0
        p = sample_ball(rng, 0.8)
        h = hyperbolic(t)
        assert (regular_apply(h, p) - classical_apply(h, p)).norm() <= 1e-14


def _star_product_form(a, q):
    """The regular map through the star calculus: (f^s)(q)^-1 (f^c * g)(q)."""
    den = linear_map(a.m12, a.m22)
    return (symmetrize(den).eval(q).inverse()
            * (reg_conj(den) * linear_map(a.m11, a.m21)).eval(q))


def _bits(q: Quaternion) -> bytes:
    return struct.pack("<4d", q.w, q.x, q.y, q.z)


def test_regular_apply_is_the_star_product_form_exactly():
    rng = np.random.default_rng(31)
    for k in range(500):
        u, v, w = sample_sphere3(rng), sample_sphere3(rng), sample_sphere3(rng)
        a = diag(u, v) @ exp_m(w * (3.0 * float(rng.random())))
        if k % 5 == 0:  # entries with exact zeros, where signed zeros could differ
            a = [IDENTITY, hyperbolic(0.7), I11, diag(sample_sphere3(rng), ONE),
                 mobius_M(Quaternion(0.4))][k // 5 % 5]
        q = sample_ball(rng, 0.95)
        assert _bits(regular_apply(a, q)) == _bits(_star_product_form(a, q)), (k, a, q)


def test_regular_apply_rejects_a_vanishing_denominator():
    # f(q) = q - 1/2 has f^s(q) = (q - 1/2)^2, which vanishes at q = 1/2
    with pytest.raises(ConsistencyError):
        regular_apply(QMat2(ONE, ONE, ZERO, Quaternion(-0.5)), Quaternion(0.5))
    with pytest.raises(ConsistencyError):
        regular_apply(QMat2(ONE, ZERO, ZERO, ZERO), Quaternion(0.3, 0.1))


def test_both_maps_refuse_a_denominator_whose_squared_norm_overflows():
    # members the group gate decides: f^s(q) is quadratic in cosh r, so its squared
    # norm overflows from r ~ 178.4 on, where its inverse would round to 0
    q = Quaternion(0.1)
    assert regular_apply(exp_m(J * 178.0), q).norm() <= 1.0 + 1e-15
    for r in (185.0, 400.0):
        with pytest.raises(DomainError, match=r"f\^s\(q\) is too large"):
            regular_apply(exp_m(J * r), q)
    # q m12 + m22 is linear in cosh r: at r = 185 the image rounds onto the sphere,
    # which the CLI's ball guard rejects, and from r ~ 355.6 the guard here raises
    assert classical_apply(exp_m(J * 185.0), q).norm() >= 1.0
    with pytest.raises(DomainError, match="squared norm overflows"):
        classical_apply(exp_m(J * 400.0), q)


def test_mobius_M_examples():
    assert (mobius_M(Quaternion()) - IDENTITY).max_norm() == 0.0
    a = math.tanh(1.0)
    assert (mobius_M(Quaternion(a)) - exp_m(Quaternion(-1.0))).max_norm() <= 1e-14
    assert (mobius_M(Quaternion(a)) - hyperbolic(-1.0)).max_norm() <= 1e-14
    rng = np.random.default_rng(23)
    b = sample_ball(rng, 0.9)
    assert (mobius_M(b) @ mobius_M(-b) - IDENTITY).max_norm() <= 1e-14
    assert (mobius_M(b) - exp_m(-sgn(b) * math.atanh(b.norm()))).max_norm() <= 1e-14
    with pytest.raises(DomainError):
        mobius_M(Quaternion(1.0))
    with pytest.raises(DomainError):
        mobius_M(Quaternion(math.nan))


def test_f_au_examples():
    u = sample_sphere3(np.random.default_rng(24))
    q = Quaternion(0.1, 0.2, -0.3, 0.05)
    assert (f_au(0.0, u, q) - q * u).norm() == 0.0
    assert f_au(0.5, u, Quaternion(0.5)).norm() <= 1e-16
    got = f_au(0.5, ONE, Quaternion(0.25))
    assert abs(got.w - (-0.25 / 0.875)) <= 1e-15
    # a real parameter of another numeric type is read as a float
    for a in (np.float32(0.5), np.int64(0), Fraction(1, 2)):
        assert f_au(a, u, q) == f_au(float(a), u, q)
    with pytest.raises(DomainError):
        f_au(1.5, u, q)


def test_f_au_matrix_coincidence():
    rng = np.random.default_rng(25)
    for _ in range(30):
        a = 1.8 * float(rng.random()) - 0.9
        u = sample_sphere3(rng)
        q = sample_ball(rng, 0.8)
        mat = f_au_matrix(a, u)
        want = f_au(a, u, q)
        assert (classical_apply(mat, q) - want).norm() <= 1e-13
        assert (regular_apply(mat, q) - want).norm() <= 1e-13


def test_quotient_point_examples():
    assert quotient_point(IDENTITY).norm() == 0.0
    rng = np.random.default_rng(26)
    a = sample_ball(rng, 0.9)
    assert (quotient_point(sp11_inverse(mobius_M(a))) - a).norm() <= 1e-12
    q = sample_sphere3(rng) * 0.7
    want = sgn(q) * math.tanh(q.norm())
    assert (quotient_point(exp_m(q)) - want).norm() <= 1e-12


def test_quotient_point_near_diagonal():
    # tiny displacements from a diagonal matrix must come back at full precision
    rng = np.random.default_rng(29)
    for mag in (1e-3, 1e-6, 1e-9, 1e-11):
        u, v = sample_sphere3(rng), sample_sphere3(rng)
        q = sample_sphere3(rng) * mag
        a = diag(u, v) @ exp_m(q)
        want = (v * sgn(q) * v.conj()) * math.tanh(q.norm())
        assert (quotient_point(a) - want).norm() <= 1e-15 * mag + 1e-18


def test_quotient_point_rejects_non_members():
    with pytest.raises((ConsistencyError, DomainError)):
        quotient_point(diag(ONE, Quaternion(2.0)))


def _max_gap(cols, want) -> float:
    return max((c - w).norm() for c, w in zip(cols, want, strict=True))


def test_differential_examples():
    q = Quaternion(0.1, 0.2, 0.3, -0.1)
    assert _max_gap(differential(lambda p: p, q), (ONE, I, J, K)) <= 1e-9
    assert _max_gap(differential(lambda p: -p, q), (-ONE, -I, -J, -K)) <= 1e-9
    assert _orientation_sign(lambda p: -p, q) == 1.0
    assert _max_gap(differential(lambda p: p.conj(), q), (ONE, -I, -J, -K)) <= 1e-9
    assert _orientation_sign(lambda p: p.conj(), q) == -1.0


def test_differential_pushes_the_basis():
    # p -> p a is linear, so its columns are the pushes a, i a, j a, k a
    rng = np.random.default_rng(30)
    for _ in range(20):
        a, q = Quaternion(*rng.standard_normal(4)), sample_ball(rng, 0.9)
        cols = differential(lambda p: p * a, q)
        assert all(type(c) is Quaternion for c in cols)
        assert _max_gap(cols, (a, I * a, J * a, K * a)) <= 1e-9



class Dual:
    """p + eps v with eps^2 = 0, over quaternions: a foreign quaternion-like type
    that carries a push v through the quaternion operators (forward-mode
    differentiation). Quaternion's operators return NotImplemented for it, so
    Python falls back to the reflected operators here."""

    def __init__(self, p, v):
        self.p, self.v = p, v

    def _parts(self, o):
        return (o.p, o.v) if isinstance(o, Dual) else (o, ZERO)

    def __add__(self, o):
        r, w = self._parts(o)
        return Dual(self.p + r, self.v + w)

    def __radd__(self, o):
        r, w = self._parts(o)
        return Dual(r + self.p, w + self.v)

    def __mul__(self, o):
        r, w = self._parts(o)
        return Dual(self.p * r, self.p * w + self.v * r)

    def __rmul__(self, o):
        r, w = self._parts(o)
        return Dual(r * self.p, r * self.v + w * self.p)

    def inverse(self):
        ip = self.p.inverse()
        return Dual(ip, -(ip * self.v * ip))

    def conj(self):
        return Dual(self.p.conj(), self.v.conj())

    def norm(self):  # the ball guards compare values
        return self.p.norm()


def test_the_three_maps_stay_generic():
    # classical_apply, regular_apply and iso_g_act run unmodified on Dual: the values
    # are the float calls bit for bit, the pushes of 1, i, j, k the differential's columns
    rng = np.random.default_rng(41)
    for _ in range(100):
        mat, e, q = _rand_sp11(rng, 1.2), _rand_iso(rng), sample_ball(rng, 0.7)
        for fn in (lambda p: classical_apply(mat, p), lambda p: regular_apply(mat, p),
                   lambda p: iso_g_act(e, p)):
            duals = [fn(Dual(q, v)) for v in (ONE, I, J, K)]
            assert all(d.p == fn(q) for d in duals)
            cols = differential(fn, q)
            scale = max(c.norm() for c in cols)
            assert _max_gap([d.v for d in duals], cols) <= 1e-8 * scale

def test_differential_step_underflow():
    with pytest.raises(DomainError):
        differential(lambda p: p, Quaternion(0.5), h=0.0)
    with pytest.raises(DomainError):
        differential(lambda p: p, Quaternion(0.5), h=1e-300)


def test_anti_homomorphism_and_inverse():
    rng = np.random.default_rng(27)
    for _ in range(25):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * (0.8 * float(rng.random())))
        b = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * (0.8 * float(rng.random())))
        q = sample_ball(rng, 0.6)
        assert (classical_apply(a @ b, q)
                - classical_apply(b, classical_apply(a, q))).norm() <= 1e-12
        assert (classical_apply(sp11_inverse(a), classical_apply(a, q)) - q).norm() <= 1e-12


def test_o11_classify_examples():
    eps, reflected, t = o11_classify(IDENTITY)
    assert (eps, reflected, t) == (1, False, 0.0)
    eps, reflected, t = o11_classify(I11)
    assert (eps, reflected, t) == (1, True, 0.0)
    eps, reflected, t = o11_classify(hyperbolic(2.0) * -1.0)
    assert (eps, reflected) == (-1, False) and abs(t - 2.0) <= 1e-14


def test_o11_classify_roundtrip():
    rng = np.random.default_rng(28)
    for _ in range(40):
        t = 4.0 * float(rng.random()) - 2.0
        eps = 1 if rng.random() < 0.5 else -1
        reflected = rng.random() < 0.5
        mat = hyperbolic(t) * float(eps)
        if reflected:
            mat = mat @ I11
        parts = o11_classify(mat)
        assert (parts.eps, parts.reflected) == (eps, reflected)
        assert abs(parts.t - t) <= 1e-12
        recomposed = hyperbolic(parts.t) * float(parts.eps)
        if parts.reflected:
            recomposed = recomposed @ I11
        assert (recomposed - mat).max_norm() <= 1e-12


@pytest.mark.parametrize("t", [10.0, -12.0, 20.0, 30.0])
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("reflected", [False, True])
def test_o11_classify_far_from_the_identity(t, eps, reflected):
    # the absolute residual of H(10) is already 3e-8; the column-scaled gate
    # accepts these, so the parts must come out right too
    mat = hyperbolic(t) * float(eps)
    if reflected:
        mat = mat @ I11
    parts = o11_classify(mat)
    assert (parts.eps, parts.reflected) == (eps, reflected)
    assert abs(parts.t - t) <= 1e-15 * abs(t)


def test_o11_classify_rejects():
    with pytest.raises(DomainError):
        o11_classify(diag(I, ONE))
    with pytest.raises(DomainError):
        o11_classify(diag(ONE, Quaternion(2.0)))
    with pytest.raises(DomainError):
        o11_classify(diag(Quaternion(math.nan), ONE))

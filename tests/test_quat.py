"""Quaternion arithmetic, slice coordinates, and sampling."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sliceball.errors import DomainError
from sliceball.quat import (I, J, K, ONE, ZERO, Quaternion, ensure_in_ball, ensure_unit, sgn,
                            slice_split)
from sliceball.verify import (BALL_MARGIN, sample_ball, sample_imaginary_unit,
                              sample_real_interval, sample_sphere3)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_defining_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == Quaternion(-1)
    assert I * J != J * I


def test_conj_and_inverse_examples():
    assert Quaternion(1, 2, 0, 0).conj() == Quaternion(1, -2, 0, 0)
    assert I.inverse() == -I
    assert (ONE * 3).inverse() == Quaternion(1 / 3)
    with pytest.raises(DomainError):
        ZERO.inverse()


def test_scalar_mixing():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == q + q
    assert q / 2 == Quaternion(0.5, 1, 1.5, 2)
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert q - 1 == Quaternion(0, 2, 3, 4)
    # a scalar stands only on the right of + and -, and a Quaternion has no hash
    for removed in (lambda: 1 + q, lambda: 1 - q, lambda: hash(q)):
        with pytest.raises(TypeError):
            removed()


def _coords_are_floats(q: Quaternion) -> bool:
    return all(type(c) is float for c in (q.w, q.x, q.y, q.z))


def test_every_slot_holds_an_exact_float():
    # the public constructor and the int and numpy scalar paths coerce, so the
    # operators, which allocate without float(), only ever see floats
    q = Quaternion(1, np.float64(2), True, 4)
    assert _coords_are_floats(q) and q == Quaternion(1.0, 2.0, 1.0, 4.0)
    results = [q * np.float64(2), q * 3, 3 * q, np.float64(2) * q, q + 1,
               q - 1, q / 2, q / np.float64(2), q * 0.5, q + 0.5,
               -q, q.conj(), q.inverse(), q.im(), q * q, q + q, q - q]
    assert all(_coords_are_floats(r) for r in results)


# Coordinates for the bit-for-bit pins, also imported by test_hmat.py and
# test_starpoly.py: any double, with NaN, both infinities, both zeros and the
# smallest subnormal drawn often.
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324)
anyfloat = st.one_of(st.sampled_from(SPECIAL), st.floats())
anyquat = st.builds(Quaternion, anyfloat, anyfloat, anyfloat, anyfloat)


def _bits(*values) -> bytes:
    # Every NaN packs as math.nan: CPython itself does not keep a NaN's sign
    # and payload stable, since `x * y` of two NaNs returns the other operand's
    # NaN once the interpreter specializes the multiplication.
    return struct.pack(f"<{len(values)}d", *(math.nan if v != v else v for v in values))


def _qbits(q: Quaternion) -> bytes:
    return _bits(q.w, q.x, q.y, q.z)


@given(anyquat, anyquat)
def test_mul_is_the_hamilton_product_bit_for_bit(p, q):
    pw, px, py, pz = p.w, p.x, p.y, p.z
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    assert _qbits(p * q) == _bits(pw * qw - px * qx - py * qy - pz * qz,
                                  pw * qx + px * qw + py * qz - pz * qy,
                                  pw * qy - px * qz + py * qw + pz * qx,
                                  pw * qz + px * qy - py * qx + pz * qw)


@given(anyquat, anyquat)
def test_add_and_sub_are_coordinatewise_bit_for_bit(p, q):
    assert _qbits(p + q) == _bits(p.w + q.w, p.x + q.x, p.y + q.y, p.z + q.z)
    assert _qbits(p - q) == _bits(p.w - q.w, p.x - q.x, p.y - q.y, p.z - q.z)


@given(anyquat, anyfloat)
def test_scalar_operators_bit_for_bit(q, s):
    scaled = _bits(q.w * s, q.x * s, q.y * s, q.z * s)
    assert _qbits(q * s) == _qbits(s * q) == _qbits(q * np.float64(s)) == scaled
    assert _qbits(q + s) == _bits(q.w + s, q.x, q.y, q.z)
    assert _qbits(q - s) == _bits(q.w - s, q.x, q.y, q.z)
    if s == 0.0:
        with pytest.raises(ZeroDivisionError):
            q / s
    else:
        assert _qbits(q / s) == _bits(q.w / s, q.x / s, q.y / s, q.z / s)


@given(anyquat)
def test_unary_operators_bit_for_bit(q):
    n2 = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    assert _qbits(-q) == _bits(-q.w, -q.x, -q.y, -q.z)
    assert _qbits(q.conj()) == _bits(q.w, -q.x, -q.y, -q.z)
    assert _qbits(q.im()) == _bits(0.0, q.x, q.y, q.z)
    assert _bits(q.norm_sq(), q.norm()) == _bits(n2, math.sqrt(n2))
    if n2 == 0.0:
        with pytest.raises(DomainError):
            q.inverse()
    else:
        assert _qbits(q.inverse()) == _bits(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)
    if not math.sqrt(n2) < 1.0:
        with pytest.raises(DomainError, match=re.escape(f"|q| = {math.sqrt(n2)!r}")):
            ensure_in_ball(q, "test")


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-9 * (1 + p.norm() * q.norm())


@given(quats, quats)
def test_conj_antiautomorphism(p, q):
    assert ((p * q).conj() - q.conj() * p.conj()).norm() <= 1e-9 * (1 + (p * q).norm())


@given(quats, quats, quats)
def test_mul_associative(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    assert (lhs - rhs).norm() <= 1e-6 * (1.0 + lhs.norm())


@given(quats)
def test_inverse_property(q):
    if q.norm() < 1e-6:
        return
    assert (q * q.inverse() - ONE).norm() <= 1e-9


def test_sgn():
    assert sgn(Quaternion(0, 3, 4, 0)) == Quaternion(0, 0.6, 0.8, 0)
    assert sgn(ZERO) == ZERO
    assert sgn(ONE) == ONE


def test_slice_split_examples():
    assert slice_split(Quaternion(1, 2, 0, 0)) == (1, 2, I)
    x, y, unit = slice_split(Quaternion(1, -2, 0, 0))
    assert (x, y) == (1, 2) and unit == -I
    assert slice_split(Quaternion(0.5)) == (0.5, 0, I)


@given(quats)
@example(Quaternion(0, 0, 0, 2.5459942040496302e-160))  # its square is subnormal
@example(Quaternion(0, 0, 0, 1e-170))  # its square underflows to zero
def test_slice_split_recomposes(q):
    x, y, unit = slice_split(q)
    assert y >= 0
    assert (Quaternion(x) + unit * y - q).norm() <= 1e-14 * (1 + q.norm())
    if y > 0:
        assert (unit * unit + ONE).norm() <= 1e-12


def test_slice_split_keeps_a_tiny_imaginary_part():
    assert slice_split(Quaternion(0, 0, 0, 1e-170)) == (0, 1e-170, K)


# verify's samplers, from which every check draws its quaternions
SAMPLERS = {"ball": sample_ball, "sphere3": sample_sphere3,
            "imaginary-unit": sample_imaginary_unit, "real-interval": sample_real_interval}


@pytest.mark.parametrize("kind", list(SAMPLERS))
def test_sampling_invariants(kind):
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = SAMPLERS[kind](rng)
        if kind == "ball":
            assert q.norm() < 1.0 - BALL_MARGIN
        elif kind == "sphere3":
            assert abs(q.norm() - 1.0) <= 1e-12
        elif kind == "imaginary-unit":
            assert q.w == 0.0 and abs(q.norm() - 1.0) <= 1e-12
        else:
            assert q.im_norm() == 0.0 and -1 < q.w < 1


@pytest.mark.parametrize("sampler, size", [(sample_sphere3, 4), (sample_imaginary_unit, 3)])
def test_sampler_norm_is_the_numpy_norm(sampler, size):
    # the samplers divide by np.linalg.norm(v), bit for bit, without calling it
    for seed in range(5):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            v = twin.standard_normal(size)
            want = [0.0] * (4 - size) + [float(c) for c in v / float(np.linalg.norm(v))]
            q = sampler(rng)
            assert [q.w, q.x, q.y, q.z] == want


def test_sampling_deterministic():
    for sampler in SAMPLERS.values():
        a = [sampler(np.random.default_rng(3)) for _ in range(5)]
        b = [sampler(np.random.default_rng(3)) for _ in range(5)]
        assert a == b
        assert sampler(np.random.default_rng(3)) != sampler(np.random.default_rng(4))


def test_ensure_in_ball_rejects_the_boundary_and_nan():
    ensure_in_ball(Quaternion(0.5), "unused")
    with pytest.raises(DomainError, match=r"^maps need the ball, \|a\| = 1\.0$"):
        ensure_in_ball(J, "maps need the ball", name="a")
    with pytest.raises(DomainError, match="nan"):
        ensure_in_ball(Quaternion(math.nan), "maps need the ball")
    # the whole open ball is accepted, up to the last double below 1
    ensure_in_ball(Quaternion(0.0, 0.0, math.nextafter(1.0, 0.0)), "unused")


def test_ensure_unit_rejects_non_units_nan_and_infinity():
    ensure_unit(I, "unused")
    ensure_unit(Quaternion(1.0 + 1e-10), "unused")
    with pytest.raises(DomainError, match=r"^needs a unit, \|u\| = 2\.0$"):
        ensure_unit(Quaternion(2.0), "needs a unit")
    with pytest.raises(DomainError, match=r"^needs a unit, \|u\| = 0\.0$"):
        ensure_unit(ZERO, "needs a unit")
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ensure_unit(Quaternion(0.0, bad), "needs a unit")

"""Quaternion arithmetic, slice coordinates, and sampling."""

import math

import pytest
from hypothesis import given, strategies as st

from sliceball.errors import DomainError
from sliceball.quat import (I, J, K, ONE, ZERO, Quaternion, in_ball,
                            is_imaginary_unit, is_unit, make_rng, normalized,
                            qexp, quat_from_list, quat_to_list, sample_ball,
                            sample_imaginary_unit, sample_real_interval,
                            sample_sphere3, sgn, slice_split)

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
    assert 1 + q == q + 1 == Quaternion(2, 2, 3, 4)


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
def test_slice_split_recomposes(q):
    x, y, unit = slice_split(q)
    assert y >= 0
    assert (Quaternion(x) + unit * y - q).norm() <= 1e-14 * (1 + q.norm())
    if y > 0:
        assert (unit * unit + ONE).norm() <= 1e-12


def test_qexp_matches_euler():
    got = qexp(I * (math.pi / 2))
    assert (got - I).norm() <= 1e-15
    assert (qexp(ZERO) - ONE).norm() == 0.0


SAMPLERS = {"ball": sample_ball, "sphere3": sample_sphere3,
            "imaginary-unit": sample_imaginary_unit, "real-interval": sample_real_interval}


@pytest.mark.parametrize("kind", list(SAMPLERS))
def test_sampling_invariants(kind):
    rng = make_rng(7)
    for _ in range(200):
        q = SAMPLERS[kind](rng)
        if kind == "ball":
            assert in_ball(q)
        elif kind == "sphere3":
            assert is_unit(q)
        elif kind == "imaginary-unit":
            assert is_imaginary_unit(q)
        else:
            assert q.im_norm() == 0.0 and -1 < q.w < 1


def test_sampling_deterministic():
    for sampler in SAMPLERS.values():
        a = [sampler(make_rng(3)) for _ in range(5)]
        b = [sampler(make_rng(3)) for _ in range(5)]
        assert a == b
        assert sampler(make_rng(3)) != sampler(make_rng(4))


def test_normalized():
    assert is_unit(normalized(Quaternion(1, 1, 1, 1)))
    with pytest.raises(DomainError):
        normalized(ZERO)


def test_json_roundtrip():
    q = Quaternion(1.5, -2.25, 0.125, 9.0)
    assert quat_from_list(quat_to_list(q)) == q
    assert quat_to_list(q) == [1.5, -2.25, 0.125, 9.0]
    with pytest.raises(ValueError):
        quat_from_list([1, 2, 3])

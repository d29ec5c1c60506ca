"""Decompositions, the slice-metric isometry group, centralizers, and orbits."""

import json
import math

import numpy as np
import pytest

from sliceball.errors import DomainError
from sliceball.hmat import QMat2, diag, exp_m, hyperbolic, i_eps, identity, scalar
from sliceball.lie import (ISO_IDENTITY, IsoGElement,
                           SliceFactorization, SymmFactorization,
                           centralizer_check, fact_to_dict, iso_g_act,
                           iso_g_inverse, iso_g_mul, orbit_invariant,
                           slice_compose, slice_decompose, symm_compose,
                           symm_decompose)
from sliceball.mobius import differential, quotient_point
from sliceball.quat import I, J, ONE, Quaternion, make_rng, sample_ball, sample_sphere3


def test_symm_decompose_examples():
    q = Quaternion(0, 0.4, -0.2, 0.1)
    fact = symm_decompose(exp_m(q))
    assert (fact.u - ONE).norm() <= 1e-14
    assert (fact.v - ONE).norm() <= 1e-14
    assert (fact.x - q).norm() <= 1e-14

    u, v = sample_sphere3(make_rng(41)), sample_sphere3(make_rng(42))
    fact = symm_decompose(diag(u, v))
    assert (fact.u - u).norm() <= 1e-14 and (fact.v - v).norm() <= 1e-14
    assert fact.x.norm() <= 1e-14

    fact = symm_decompose(diag(I, J) @ exp_m(Quaternion(0.3)))
    assert (fact.u - I).norm() <= 1e-14 and (fact.v - J).norm() <= 1e-14
    assert (fact.x - Quaternion(0.3)).norm() <= 1e-14


def test_symm_compose_examples():
    assert symm_compose(SymmFactorization(ONE, ONE, Quaternion())) == identity()
    u, v = I, J
    assert (symm_compose(SymmFactorization(u, v, Quaternion())) - diag(u, v)).max_norm() == 0.0
    t = 0.8
    got = symm_compose(SymmFactorization(ONE, ONE, Quaternion(t)))
    assert (got - hyperbolic(t)).max_norm() <= 1e-15


def test_slice_decompose_examples():
    q = Quaternion(0, 0.4, 0.1, -0.2)
    fact = slice_decompose(exp_m(q))
    assert (fact.u - ONE).norm() <= 1e-12
    assert (fact.x - q).norm() <= 1e-12
    assert (fact.v - ONE).norm() <= 1e-12

    v = sample_sphere3(make_rng(43))
    fact = slice_decompose(scalar(v))
    assert (fact.u - ONE).norm() <= 1e-12
    assert fact.x.norm() <= 1e-12
    assert (fact.v - v).norm() <= 1e-12


def test_slice_compose_examples():
    assert slice_compose(SliceFactorization(ONE, Quaternion(), ONE)) == identity()
    u = sample_sphere3(make_rng(44))
    assert (slice_compose(SliceFactorization(u, Quaternion(), ONE)) - diag(u, ONE)).max_norm() == 0.0
    got = slice_compose(SliceFactorization(ONE, I * 0.3, J))
    assert (got - exp_m(I * 0.3) @ scalar(J)).max_norm() == 0.0


def test_roundtrips_both_ways():
    rng = make_rng(45)
    for _ in range(50):
        u, v = sample_sphere3(rng), sample_sphere3(rng)
        x = sample_sphere3(rng) * (1.2 * float(rng.random()))
        a = symm_compose(SymmFactorization(u, v, x))
        fact = symm_decompose(a)
        assert (symm_compose(fact) - a).max_norm() <= 1e-9
        assert (fact.u - u).norm() <= 1e-9
        assert (fact.v - v).norm() <= 1e-9
        assert (fact.x - x).norm() <= 1e-9

        b = slice_compose(SliceFactorization(u, x, v))
        sfact = slice_decompose(b)
        assert (slice_compose(sfact) - b).max_norm() <= 1e-9
        assert (sfact.u - u).norm() <= 1e-9
        assert (sfact.x - x).norm() <= 1e-9
        assert (sfact.v - v).norm() <= 1e-9


def test_decompose_rejects_non_members():
    with pytest.raises(DomainError):
        symm_decompose(diag(1.0, 2.0))
    with pytest.raises(DomainError):
        slice_decompose(diag(1.0, 2.0))


@pytest.mark.parametrize("a", [
    diag(1.0, 2.0),
    diag(1.0, 2.0) * 1e3,
    # a huge first column must not excuse the second: m21 m22^-1 here is ~1.6e11
    QMat2(math.cosh(15.0), 0.0, math.sinh(15.0), 1e-5),
], ids=["diag", "diag-scaled", "tiny-column"])
def test_scaled_gate_still_rejects_non_members(a):
    # the group gate scales with A's columns, which must not let these in
    for fn in (symm_decompose, slice_decompose, quotient_point):
        with pytest.raises(DomainError):
            fn(a)


@pytest.mark.parametrize("r", [3.0, 4.0, 7.5, 12.0, 20.0])
def test_decompositions_far_from_the_identity(r):
    # both factorizations are global: built factors come back at any orbit distance
    rng = make_rng(int(10 * r))
    u, v, w = sample_sphere3(rng), sample_sphere3(rng), sample_sphere3(rng)
    x = w * r
    a = slice_compose(SliceFactorization(u, x, v))
    sfact = slice_decompose(a)
    assert (sfact.u - u).norm() <= 1e-12 and (sfact.v - v).norm() <= 1e-12
    assert (sfact.x - x).norm() <= 1e-12 * r
    yfact = symm_decompose(symm_compose(SymmFactorization(u, v, x)))
    assert (yfact.u - u).norm() <= 1e-12 and (yfact.v - v).norm() <= 1e-12
    assert (yfact.x - x).norm() <= 1e-12 * r
    assert (quotient_point(a) - w * math.tanh(r)).norm() <= 1e-12


def test_iso_act_examples():
    q = Quaternion(0.2, 0.1, -0.3, 0.05)
    assert iso_g_act(ISO_IDENTITY, q) == q
    u = sample_sphere3(make_rng(46))
    got = iso_g_act(IsoGElement(u), q)
    assert (got - u * q * u.conj()).norm() <= 1e-15
    t = 0.7
    got = iso_g_act(IsoGElement(ONE, 1, t, 1), Quaternion())
    assert (got - Quaternion(math.tanh(t))).norm() <= 1e-16
    flipped = iso_g_act(IsoGElement(ONE, 1, 0.0, -1), q)
    assert (flipped - q.conj()).norm() == 0.0


def test_iso_mul_examples():
    e1 = IsoGElement(ONE, -1, 1.0, 1)
    e2 = IsoGElement(ONE, -1, 2.0, 1)
    prod = iso_g_mul(e1, e2)
    assert prod.eps1 == 1 and abs(prod.t - 1.0) <= 1e-15

    e = IsoGElement(sample_sphere3(make_rng(47)), -1, 0.8, -1)
    assert iso_g_mul(e, ISO_IDENTITY) == e
    left = iso_g_mul(ISO_IDENTITY, e)
    assert (left.u - e.u).norm() == 0.0 and left.eps1 == e.eps1 and left.t == e.t

    inv = iso_g_inverse(e)
    unit = iso_g_mul(e, inv)
    assert unit.eps1 == 1 and unit.eps2 == 1 and abs(unit.t) <= 1e-15
    assert (unit.u - ONE).norm() <= 1e-15


def test_iso_action_axiom():
    rng = make_rng(48)
    for _ in range(50):
        e1 = IsoGElement(sample_sphere3(rng), 1 if rng.random() < 0.5 else -1,
                         2.0 * float(rng.random()) - 1.0, 1 if rng.random() < 0.5 else -1)
        e2 = IsoGElement(sample_sphere3(rng), 1 if rng.random() < 0.5 else -1,
                         2.0 * float(rng.random()) - 1.0, 1 if rng.random() < 0.5 else -1)
        q = sample_ball(rng, 0.7)
        lhs = iso_g_act(iso_g_mul(e1, e2), q)
        rhs = iso_g_act(e1, iso_g_act(e2, q))
        assert (lhs - rhs).norm() <= 1e-13


def test_iso_ineffective_kernel():
    rng = make_rng(49)
    for _ in range(30):
        u = sample_sphere3(rng)
        e = IsoGElement(u, 1, 0.9, 1)
        f = IsoGElement(-u, 1, 0.9, 1)
        q = sample_ball(rng, 0.8)
        assert (iso_g_act(e, q) - iso_g_act(f, q)).norm() <= 1e-14


def test_iso_orientation():
    rng = make_rng(50)
    for eps2, sign in ((1, 1.0), (-1, -1.0)):
        e = IsoGElement(sample_sphere3(rng), -1, 0.6, eps2)
        q = sample_ball(rng, 0.5)
        det = np.linalg.det(differential(lambda p: iso_g_act(e, p), q))
        assert math.copysign(1.0, det) == sign


def test_centralizer_examples():
    u = sample_sphere3(make_rng(51))
    assert centralizer_check(diag(Quaternion(-1.0), u), "sp1x1")[0]
    assert centralizer_check(hyperbolic(0.7), "sp1I2")[0]
    assert not centralizer_check(diag(I, ONE), "sp1x1")[0]
    assert centralizer_check(identity() * -1.0, "sp1xsp1")[0]
    assert not centralizer_check(diag(Quaternion(-1.0), u), "sp1xsp1")[0]
    with pytest.raises(DomainError):
        centralizer_check(identity(), "so3")


def test_centralizer_matches_closed_forms():
    from sliceball.lie import (is_plus_minus_identity, is_real_matrix,
                               is_sign_times_unit_diag)
    rng = make_rng(52)
    for _ in range(40):
        u, v = sample_sphere3(rng), sample_sphere3(rng)
        x = sample_sphere3(rng) * float(rng.random())
        a = diag(u, v) @ exp_m(x)
        assert centralizer_check(a, "sp1x1")[0] == is_sign_times_unit_diag(a)
        assert centralizer_check(a, "sp1I2")[0] == is_real_matrix(a)
        assert centralizer_check(a, "sp1xsp1")[0] == is_plus_minus_identity(a)


def test_orbit_invariant_examples():
    assert orbit_invariant(Quaternion(0.37)) == 0.0
    assert orbit_invariant(Quaternion(-0.8)) == 0.0
    assert abs(orbit_invariant(I * 0.3) - 0.3) <= 1e-15
    assert abs(orbit_invariant(J * 0.55) - 0.55) <= 1e-15


def test_orbit_invariant_under_action():
    rng = make_rng(53)
    base = J * 0.3
    for _ in range(60):
        e = IsoGElement(sample_sphere3(rng), 1 if rng.random() < 0.5 else -1,
                        2.4 * float(rng.random()) - 1.2, 1 if rng.random() < 0.5 else -1)
        image = iso_g_act(e, base)
        assert abs(orbit_invariant(image) - 0.3) <= 1e-12


def test_orbit_invariant_conjugation_symmetry():
    rng = make_rng(54)
    for _ in range(40):
        q = sample_ball(rng, 0.85)
        y = orbit_invariant(q)
        assert abs(orbit_invariant(q.conj()) - y) <= 1e-13
        assert abs(orbit_invariant(-q) - y) <= 1e-13
        assert 0.0 <= y < 1.0


def test_quotient_and_translations_generate_isometries():
    rng = make_rng(55)
    for _ in range(20):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        u = sample_sphere3(rng)
        t = 1.6 * float(rng.random()) - 0.8
        eps = 1 if rng.random() < 0.5 else -1
        moved = diag(ONE, u) @ a @ (hyperbolic(t) @ i_eps(eps))
        want = iso_g_act(IsoGElement(u, eps, t, 1), quotient_point(a))
        assert (quotient_point(moved) - want).norm() <= 1e-9


def test_factorization_json_roundtrip():
    want = {"u": [0.0, 1.0, 0.0, 0.0], "v": [0.0, 0.0, 1.0, 0.0], "X": [0.1, 0.2, 0.3, 0.4]}
    x = Quaternion(0.1, 0.2, 0.3, 0.4)
    for fact in (SymmFactorization(I, J, x), SliceFactorization(I, x, J)):
        assert json.loads(json.dumps(fact_to_dict(fact))) == want
    with pytest.raises(TypeError):
        fact_to_dict(x)

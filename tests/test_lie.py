"""Decompositions, the slice-metric isometry group, centralizers, and orbits."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given

from test_hmat import blockquat, finitequat
from test_quat import _bits

from sliceball.errors import DomainError
from sliceball.hmat import (IDENTITY, QMat2, diag, ensure_sp11, exp_m, hyperbolic, i_eps,
                            sp11_inverse)
from sliceball.lie import (ISO_IDENTITY, IsoGElement,
                           SliceFactorization, SymmFactorization,
                           centralizer_check, iso_g_act,
                           iso_g_inverse, iso_g_mul, orbit_invariant,
                           slice_compose, slice_decompose, symm_compose,
                           symm_decompose)
from sliceball.mobius import differential, quotient_point
from sliceball.quat import I, J, ONE, ZERO, Quaternion
from sliceball.verify import sample_ball, sample_sphere3


def test_symm_decompose_examples():
    q = Quaternion(0, 0.4, -0.2, 0.1)
    fact = symm_decompose(exp_m(q))
    assert (fact.u - ONE).norm() <= 1e-14
    assert (fact.v - ONE).norm() <= 1e-14
    assert (fact.x - q).norm() <= 1e-14

    u, v = sample_sphere3(np.random.default_rng(41)), sample_sphere3(np.random.default_rng(42))
    fact = symm_decompose(diag(u, v))
    assert (fact.u - u).norm() <= 1e-14 and (fact.v - v).norm() <= 1e-14
    assert fact.x.norm() <= 1e-14

    fact = symm_decompose(diag(I, J) @ exp_m(Quaternion(0.3)))
    assert (fact.u - I).norm() <= 1e-14 and (fact.v - J).norm() <= 1e-14
    assert (fact.x - Quaternion(0.3)).norm() <= 1e-14


def test_symm_compose_examples():
    assert symm_compose(SymmFactorization(ONE, ONE, Quaternion())) == IDENTITY
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

    v = sample_sphere3(np.random.default_rng(43))
    fact = slice_decompose(diag(v, v))
    assert (fact.u - ONE).norm() <= 1e-12
    assert fact.x.norm() <= 1e-12
    assert (fact.v - v).norm() <= 1e-12


def test_slice_compose_examples():
    assert slice_compose(SliceFactorization(ONE, Quaternion(), ONE)) == IDENTITY
    u = sample_sphere3(np.random.default_rng(44))
    assert (slice_compose(SliceFactorization(u, Quaternion(), ONE)) - diag(u, ONE)).max_norm() == 0.0
    got = slice_compose(SliceFactorization(ONE, I * 0.3, J))
    assert (got - exp_m(I * 0.3) @ diag(J, J)).max_norm() == 0.0


def _entries_equal_with_norms_bit_for_bit(got: QMat2, want: QMat2) -> None:
    assert got == want  # == counts -0.0 as 0.0
    assert [_bits(e.norm()) for e in got.entries()] == [_bits(e.norm()) for e in want.entries()]


def _finite(m: QMat2) -> bool:
    return all(math.isfinite(c) for e in m.entries() for c in (e.w, e.x, e.y, e.z))


@given(finitequat, finitequat, blockquat)
def test_compose_maps_are_the_matrix_products(u, v, x):
    # The closed forms drop the 0 * e terms that the products against the zero
    # blocks of diag(u, v), diag(u, 1) and diag(v, v) add. On finite factors such
    # a term is a signed zero, so it can only flip the sign of a zero coordinate.
    if not x.norm() <= 710.0:
        return  # exp_m's DomainError
    symm = diag(u, v) @ exp_m(x)
    sliced = diag(u, ONE) @ exp_m(x) @ diag(v, v)
    assume(_finite(symm) and _finite(sliced))
    _entries_equal_with_norms_bit_for_bit(symm_compose(SymmFactorization(u, v, x)), symm)
    _entries_equal_with_norms_bit_for_bit(slice_compose(SliceFactorization(u, x, v)), sliced)


def test_roundtrips_both_ways():
    rng = np.random.default_rng(45)
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
        symm_decompose(diag(ONE, Quaternion(2.0)))
    with pytest.raises(DomainError):
        slice_decompose(diag(ONE, Quaternion(2.0)))


@pytest.mark.parametrize("a", [
    diag(ONE, Quaternion(2.0)),
    diag(ONE, Quaternion(2.0)) * 1e3,
    # a huge first column must not excuse the second: m21 m22^-1 here is ~1.6e11
    QMat2(Quaternion(math.cosh(15.0)), ZERO, Quaternion(math.sinh(15.0)), Quaternion(1e-5)),
], ids=["diag", "diag-scaled", "tiny-column"])
def test_scaled_gate_still_rejects_non_members(a):
    # the group gate scales with A's columns, which must not let these in
    for fn in (symm_decompose, slice_decompose, quotient_point):
        with pytest.raises(DomainError):
            fn(a)


@pytest.mark.parametrize("r", [3.0, 4.0, 7.5, 12.0, 20.0])
def test_decompositions_far_from_the_identity(r):
    # both factorizations are global: built factors come back at any orbit distance
    rng = np.random.default_rng(int(10 * r))
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


@pytest.mark.parametrize("r", [200.0, 300.0, 355.5])
def test_members_out_to_the_squared_norm_edge(r):
    # a member's defect roundoff, near eps cosh(r)^2, would overflow when squared from
    # r ~ 196 on; the gate reads it unsquared, so members pass while cosh(r)^2 is finite
    rng = np.random.default_rng(int(r))
    for _ in range(10):
        u, v, w = sample_sphere3(rng), sample_sphere3(rng), sample_sphere3(rng)
        a = symm_compose(SymmFactorization(u, v, w * r))
        assert ensure_sp11(a) is a
        yfact = symm_decompose(a)
        assert (yfact.u - u).norm() <= 1e-12 and (yfact.v - v).norm() <= 1e-12
        assert (yfact.x - w * r).norm() <= 1e-12 * r
        assert abs(slice_decompose(a).x.norm() - r) <= 1e-12 * r
        assert (quotient_point(a) - v * w * v.conj()).norm() <= 1e-12  # tanh r rounds to 1


_UNDECIDABLE = "group membership cannot be decided in doubles: the largest entry norm"


def test_the_gate_names_an_overflowing_squared_norm():
    # cosh(r)^2 overflows from r = acosh(sqrt(max double)) ~ 355.58 on: the defect
    # is inf or NaN there, so the gate says membership cannot be decided rather than false
    near = exp_m(J * 355.0)
    for fn in (symm_decompose, slice_decompose):
        assert (fn(near).x - J * 355.0).norm() <= 1e-12 * 355.0
    far = exp_m(J * 360.0)
    for fn in (symm_decompose, slice_decompose, quotient_point, sp11_inverse):
        with pytest.raises(DomainError, match=_UNDECIDABLE) as exc:
            fn(far)
        assert f"{math.cosh(360.0)!r}" in str(exc.value) and "355.584" in str(exc.value)
    # a finite 1e308 entry is as undecidable; a NaN or an infinity is not in the group
    with pytest.raises(DomainError, match=_UNDECIDABLE):
        symm_decompose(QMat2(Quaternion(1e308), ZERO, ZERO, ONE))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="matrix is not in the group"):
            symm_decompose(QMat2(Quaternion(bad), ZERO, ZERO, ONE))


def test_iso_act_examples():
    q = Quaternion(0.2, 0.1, -0.3, 0.05)
    assert iso_g_act(ISO_IDENTITY, q) == q
    u = sample_sphere3(np.random.default_rng(46))
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

    e = IsoGElement(sample_sphere3(np.random.default_rng(47)), -1, 0.8, -1)
    assert iso_g_mul(e, ISO_IDENTITY) == e
    left = iso_g_mul(ISO_IDENTITY, e)
    assert (left.u - e.u).norm() == 0.0 and left.eps1 == e.eps1 and left.t == e.t

    inv = iso_g_inverse(e)
    unit = iso_g_mul(e, inv)
    assert unit.eps1 == 1 and unit.eps2 == 1 and abs(unit.t) <= 1e-15
    assert (unit.u - ONE).norm() <= 1e-15


def test_iso_action_axiom():
    rng = np.random.default_rng(48)
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
    rng = np.random.default_rng(49)
    for _ in range(30):
        u = sample_sphere3(rng)
        e = IsoGElement(u, 1, 0.9, 1)
        f = IsoGElement(-u, 1, 0.9, 1)
        q = sample_ball(rng, 0.8)
        assert (iso_g_act(e, q) - iso_g_act(f, q)).norm() <= 1e-14


def test_iso_orientation():
    rng = np.random.default_rng(50)
    for eps2, sign in ((1, 1.0), (-1, -1.0)):
        e = IsoGElement(sample_sphere3(rng), -1, 0.6, eps2)
        q = sample_ball(rng, 0.5)
        cols = differential(lambda p: iso_g_act(e, p), q)
        det = np.linalg.det(np.array([[c.w, c.x, c.y, c.z] for c in cols]).T)
        assert math.copysign(1.0, det) == sign


def test_centralizer_examples():
    u = sample_sphere3(np.random.default_rng(51))
    assert centralizer_check(diag(Quaternion(-1.0), u), "sp1x1")[0]
    assert centralizer_check(hyperbolic(0.7), "sp1I2")[0]
    assert not centralizer_check(diag(I, ONE), "sp1x1")[0]
    assert centralizer_check(IDENTITY * -1.0, "sp1xsp1")[0]
    assert not centralizer_check(diag(Quaternion(-1.0), u), "sp1xsp1")[0]
    with pytest.raises(DomainError):
        centralizer_check(IDENTITY, "so3")


@pytest.mark.parametrize("subgroup", ["sp1x1", "sp1I2", "sp1xsp1"])
def test_centralizer_residual_keeps_a_nan(subgroup):
    # a NaN in the last entry once left the commutators' max at 0 and passed
    ok, residual = centralizer_check(diag(ONE, Quaternion(math.nan)), subgroup)
    assert not ok and math.isnan(residual)


# Closed-form membership predicates: the references that the commutator test
# centralizer_check must agree with.

MEMBER_TOL = 1e-9


def is_sign_times_unit_diag(a: QMat2) -> bool:
    """diag(eps, u) with eps = +-1 and u a unit quaternion."""
    if a.m12.norm() > MEMBER_TOL or a.m21.norm() > MEMBER_TOL:
        return False
    if a.m11.im_norm() > MEMBER_TOL or abs(abs(a.m11.w) - 1.0) > MEMBER_TOL:
        return False
    return abs(a.m22.norm() - 1.0) <= MEMBER_TOL


def is_real_matrix(a: QMat2) -> bool:
    return all(m.im_norm() <= MEMBER_TOL for m in a.entries())


def is_plus_minus_identity(a: QMat2) -> bool:
    # two comparisons, not min(): min() drops a NaN that is not first
    return (a - IDENTITY).max_norm() <= MEMBER_TOL or (a + IDENTITY).max_norm() <= MEMBER_TOL


def test_plus_minus_identity_rejects_a_nan():
    assert is_plus_minus_identity(IDENTITY * -1.0)
    assert not is_plus_minus_identity(diag(ONE, Quaternion(math.nan)))


def test_probes_cover_the_package_subgroups():
    # the CLI offers the package's tuple without importing lie
    import sliceball
    from sliceball.lie import _PROBES
    assert tuple(sorted(_PROBES)) == sliceball.CENTRALIZER_SUBGROUPS


def test_records_are_immutable_values():
    e = IsoGElement(u=I, t=0.5)
    assert e == IsoGElement(I, 1, 0.5, 1) and (e.eps1, e.eps2) == (1, 1)
    assert repr(e) == f"IsoGElement(u={I!r}, eps1=1, t=0.5, eps2=1)"
    fact = SliceFactorization(I, J, ONE)
    assert fact == SliceFactorization(u=I, x=J, v=ONE) != SliceFactorization(I, J, -ONE)
    assert repr(fact) == f"SliceFactorization(u={I!r}, x={J!r}, v={ONE!r})"
    for record, field in ((e, "t"), (fact, "x"), (SymmFactorization(I, J, ONE), "u")):
        with pytest.raises(AttributeError):
            setattr(record, field, ONE)
    with pytest.raises(DomainError):
        IsoGElement(ONE, eps1=0)
    with pytest.raises(DomainError):
        IsoGElement(ONE, 1, 0.0, 2)


@pytest.mark.parametrize("u, t", [(Quaternion(2.0), 0.0), (ZERO, 0.0),
                                  (Quaternion(math.nan), 0.0), (ONE, math.inf),
                                  (ONE, -math.inf), (ONE, math.nan)],
                         ids=["u=2", "u=0", "u=nan", "t=inf", "t=-inf", "t=nan"])
def test_an_isometry_needs_a_unit_u_and_a_finite_t(u, t):
    # each of these once acted: u = 2 sent 0.5 to 2.0, off the ball; t = inf sent
    # every point to the boundary point 1; t = nan returned a NaN point
    with pytest.raises(DomainError, match="an isometry needs a (unit quaternion u|finite t)"):
        IsoGElement(u, 1, t, 1)


def test_centralizer_matches_closed_forms():
    rng = np.random.default_rng(52)
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


def _mp_orbit_invariant(q: Quaternion) -> mpmath.mpf:
    """The crossing height by the old route, independent of the closed form: the
    root tau in (-1, 1) of tau^2 x + tau (1 + x^2 + y0^2) + x = 0 translates q
    onto the imaginary axis, in 60-digit arithmetic from q's exact coordinates."""
    with mpmath.workdps(60):
        x = mpmath.mpf(q.w)
        y0 = mpmath.sqrt(mpmath.mpf(q.x) ** 2 + mpmath.mpf(q.y) ** 2 + mpmath.mpf(q.z) ** 2)
        b = 1 + x * x + y0 * y0
        tau = -2 * x / (b + mpmath.sqrt(b * b - 4 * x * x))
        return y0 * (1 - tau * tau) / ((1 + tau * x) ** 2 + (tau * y0) ** 2)


def test_orbit_invariant_matches_mpmath_up_to_the_boundary():
    rng = np.random.default_rng(56)
    points = [Quaternion(0.999999, 1e-7), Quaternion(-0.999999999, 0.0, 3e-12),
              Quaternion(0.5, 1e-170)]
    for k in range(400):
        u = rng.standard_normal(4)
        if k % 5 == 0:  # near the real axis
            u[1:] *= 10.0 ** rng.uniform(-12, -3)
        r = 1.0 - 10.0 ** rng.uniform(-9, 0)
        points.append(Quaternion(*(u * (r / np.linalg.norm(u))).tolist()))
    for q in points:
        want = _mp_orbit_invariant(q)
        assert float(abs(orbit_invariant(q) - want) / want) <= 1e-14, q


def test_orbit_invariant_on_the_whole_open_ball():
    # past the old 1 - 1e-12 margin; on the imaginary axis y is the height itself
    y0 = 0.9999999999999
    assert abs(orbit_invariant(J * y0) - y0) <= 2.0 * math.ulp(y0)
    # within ulps of the sphere the rounded d can fall below zero; y stays in [0, 1]
    last = math.nextafter(1.0, 0.0)
    for q in (Quaternion(last), Quaternion(0.0, 0.0, last), Quaternion(0.6, 0.0, 0.8 * last)):
        assert 0.0 <= orbit_invariant(q) <= 1.0


def test_orbit_invariant_under_long_translations():
    rng = np.random.default_rng(57)
    for _ in range(200):
        q = sample_ball(rng, 0.9)
        e = IsoGElement(sample_sphere3(rng), 1 if rng.random() < 0.5 else -1,
                        6.0 * float(rng.random()) - 3.0, 1 if rng.random() < 0.5 else -1)
        assert abs(orbit_invariant(iso_g_act(e, q)) - orbit_invariant(q)) <= 1e-12


def test_orbit_invariant_under_action():
    rng = np.random.default_rng(53)
    base = J * 0.3
    for _ in range(60):
        e = IsoGElement(sample_sphere3(rng), 1 if rng.random() < 0.5 else -1,
                        2.4 * float(rng.random()) - 1.2, 1 if rng.random() < 0.5 else -1)
        image = iso_g_act(e, base)
        assert abs(orbit_invariant(image) - 0.3) <= 1e-12


def test_orbit_invariant_conjugation_symmetry():
    rng = np.random.default_rng(54)
    for _ in range(40):
        q = sample_ball(rng, 0.85)
        y = orbit_invariant(q)
        assert abs(orbit_invariant(q.conj()) - y) <= 1e-13
        assert abs(orbit_invariant(-q) - y) <= 1e-13
        assert 0.0 <= y < 1.0


def test_quotient_and_translations_generate_isometries():
    rng = np.random.default_rng(55)
    for _ in range(20):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        u = sample_sphere3(rng)
        t = 1.6 * float(rng.random()) - 0.8
        eps = 1 if rng.random() < 0.5 else -1
        moved = diag(ONE, u) @ a @ (hyperbolic(t) @ i_eps(eps))
        want = iso_g_act(IsoGElement(u, eps, t, 1), quotient_point(a))
        assert (quotient_point(moved) - want).norm() <= 1e-9


_NAN = Quaternion(math.nan, 0.0, 0.0, 0.0)


def test_orbit_invariant_rejects_nan():
    # a NaN point must not read as a point of the real axis
    with pytest.raises(DomainError):
        orbit_invariant(_NAN)
    with pytest.raises(DomainError):
        orbit_invariant(Quaternion(0.3, math.nan))


def test_iso_g_act_rejects_nan():
    with pytest.raises(DomainError):
        iso_g_act(IsoGElement(ONE, 1, 0.5, 1), _NAN)
    with pytest.raises(DomainError):
        iso_g_act(IsoGElement(ONE, 1, 0.5, 1), Quaternion(1.0))


@pytest.mark.parametrize("t", [40.0, -40.0])
def test_iso_g_act_rejects_a_t_whose_tanh_rounds_to_one(t):
    # tanh(+-40) rounds to +-1: every orbit collapsed, and t = -40 gave exactly -1
    with pytest.raises(DomainError, match="t = "):
        iso_g_act(IsoGElement(ONE, 1, t, 1), Quaternion(0.1, 0.2, 0.3))
    assert iso_g_act(IsoGElement(ONE, 1, math.copysign(19.0, t), 1),
                     Quaternion(0.1, 0.2, 0.3)).norm() < 1.0

"""Matrix layer: group membership, the algebra split, exponentials, and the
complex embedding oracle."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from test_quat import _bits, anyfloat, anyquat
from sliceball import verify
from sliceball.errors import DomainError
from sliceball.hmat import (ALGEBRA_TOL, I11, IDENTITY, QMat2, Sp11Algebra, _sp11_residuals,
                            algebra_check, column_scaled_norm, diag, exp_general, exp_m,
                            hyperbolic, lie_bracket, off_diag, psi_embed, sigma, sp11_check,
                            sp11_inverse)
from sliceball.quat import I, J, K, ONE, ZERO, Quaternion, sgn
from sliceball.verify import sample_sphere3


def qexp(q: Quaternion) -> Quaternion:
    """Quaternion exponential exp(w)*(cos|v| + sgn(v) sin|v|), v = Im(q): the
    reference for exp_general on diagonal elements."""
    r = q.im_norm()
    s = math.exp(q.w)
    if r == 0.0:
        return Quaternion(s)
    f = s * math.sin(r) / r
    return Quaternion(s * math.cos(r), f * q.x, f * q.y, f * q.z)


def diag_alg(p, q) -> Sp11Algebra:
    """The diagonal algebra element diag(p, q) with p, q imaginary."""
    return Sp11Algebra(p, q, ZERO)


def test_mat_ops_examples():
    a = QMat2(Quaternion(1, 2, 0, 0), I, J, K)
    assert IDENTITY @ a == a
    assert diag(I, J).adjoint() == diag(-I, -J)
    assert I11 @ I11 == IDENTITY


anymat = st.builds(QMat2, anyquat, anyquat, anyquat, anyquat)


def _mbits(m: QMat2) -> bytes:
    return _bits(*(c for e in m.entries() for c in (e.w, e.x, e.y, e.z)))


@given(anymat, anymat)
def test_matmul_is_the_entrywise_form_bit_for_bit(a, b):
    # every entry rounds as (p*q) + (r*s), the quaternion operators' own rounding
    want = QMat2(a.m11 * b.m11 + a.m12 * b.m21, a.m11 * b.m12 + a.m12 * b.m22,
                 a.m21 * b.m11 + a.m22 * b.m21, a.m21 * b.m12 + a.m22 * b.m22)
    assert _mbits(a @ b) == _mbits(want)


@given(anymat, anymat, anyfloat)
def test_entrywise_operators_bit_for_bit(a, b, s):
    assert _mbits(a + b) == _mbits(QMat2(*(p + q for p, q in zip(a.entries(), b.entries()))))
    assert _mbits(a - b) == _mbits(QMat2(*(p - q for p, q in zip(a.entries(), b.entries()))))
    assert _mbits(a * s) == _mbits(QMat2(*(p * s for p in a.entries())))
    with pytest.raises(TypeError):  # a scalar stands only on the right
        s * a
    assert _mbits(a.adjoint()) == _mbits(
        QMat2(a.m11.conj(), a.m21.conj(), a.m12.conj(), a.m22.conj()))


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [1.0, 1, np.float64(1.0), None],
                         ids=["float", "int", "numpy", "none"])
def test_a_matrix_entry_must_be_a_quaternion(slot, bad):
    entries = [ZERO, ONE, ONE, ZERO]
    entries[slot] = bad
    name = ("m11", "m12", "m21", "m22")[slot]
    with pytest.raises(TypeError, match=f"QMat2 entry {name} must be a Quaternion"):
        QMat2(*entries)


@pytest.mark.parametrize("slot", range(3))
def test_an_algebra_part_must_be_a_quaternion(slot):
    parts = [I, J, ONE]
    parts[slot] = 0.5
    with pytest.raises(TypeError, match=f"Sp11Algebra part {'pqa'[slot]} must be a Quaternion"):
        Sp11Algebra(*parts)


@pytest.mark.parametrize("block", [Quaternion(1e300), Quaternion(0, math.inf),
                                   Quaternion(math.nan)])
def test_exp_general_rejects_a_non_finite_max_norm(block):
    with pytest.raises(DomainError, match="exp_general needs a finite max-norm, got (inf|nan)"):
        exp_general(off_diag(block))
    with pytest.raises(DomainError):
        exp_general(Sp11Algebra(Quaternion(0, 0, block.w, block.x), ZERO, ZERO))


def test_adjoint_antiautomorphism():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        b = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        assert ((a @ b).adjoint() - b.adjoint() @ a.adjoint()).max_norm() <= 1e-12


@pytest.mark.parametrize("entry", range(4))
def test_max_norm_keeps_a_nan_at_every_entry(entry):
    # the builtin max() drops a NaN that is not its first argument
    entries = [Quaternion(1.0), ZERO, ZERO, Quaternion(2.0)]
    entries[entry] = Quaternion(0.0, math.nan)
    assert math.isnan(QMat2(*entries).max_norm())


def test_max_norm_is_the_largest_entry_norm_bit_for_bit():
    # max_norm takes one root of the largest squared norm
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = QMat2(*(Quaternion(*(rng.standard_normal(4) * 10.0 ** rng.integers(-160, 160, 4)))
                    for _ in range(4)))
        assert a.max_norm() == max(m.norm() for m in a.entries())


def test_matmul_associative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, c = (QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
                   for _ in range(3))
        assert ((a @ b) @ c - a @ (b @ c)).max_norm() <= 1e-12


def test_sp11_check_examples():
    assert sp11_check(IDENTITY) == (True, 0.0)
    ok, res = sp11_check(hyperbolic(1.0))
    assert ok and res <= 1e-15
    assert not sp11_check(diag(ONE, Quaternion(2.0)))[0]


def test_sp11_check_scales_with_the_columns():
    # exp(7.5 j): the absolute residual 1.2e-10 is roundoff of entries near
    # cosh(7.5)^2, so membership passes while the absolute residual is reported
    a = exp_m(J * 7.5)
    ok, res = sp11_check(a)
    assert ok and res > 1e-10
    assert not sp11_check(QMat2(Quaternion(math.cosh(15)), ZERO, Quaternion(math.sinh(15)),
                             Quaternion(1e-5)))[0]
    assert not sp11_check(QMat2(Quaternion(math.nan), ZERO, ZERO, ONE))[0]


def test_sp11_inverse_examples():
    assert sp11_inverse(I11) == I11
    t = 0.7
    assert (sp11_inverse(hyperbolic(t)) - hyperbolic(-t)).max_norm() <= 1e-15
    a = diag(sample_sphere3(np.random.default_rng(2)),
             sample_sphere3(np.random.default_rng(3))) @ exp_m(I * 0.4)
    assert (a @ sp11_inverse(a) - IDENTITY).max_norm() <= 1e-14
    with pytest.raises(DomainError):
        sp11_inverse(diag(ONE, Quaternion(2.0)))


def test_sigma():
    d = diag(I, J)
    assert sigma(d) == d
    a = QMat2(ONE, I, J, K)
    s = sigma(a)
    assert s == QMat2(ONE, -I, -J, K)
    assert sigma(sigma(a)) == a


def _product_defect(a: QMat2) -> QMat2:
    """adjoint(A) diag(1,-1) A - diag(1,-1), with the form written as a product."""
    return a.adjoint() @ QMat2(a.m11, a.m12, -a.m21, -a.m22) - I11


def _product_algebra_residual(x: QMat2) -> float:
    return (x.adjoint() @ I11 + I11 @ x).max_norm()


def _same_forms(a: QMat2) -> None:
    assert _bits(sp11_check(a)[1]) == _bits(_product_defect(a).max_norm())
    assert _bits(_sp11_residuals(a)[0]) == _bits(column_scaled_norm(_product_defect(a), a))
    assert _bits(algebra_check(a)[1]) == _bits(_product_algebra_residual(a))


def test_sigma_forms_equal_the_product_forms_on_the_group():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = verify._rand_sp11(rng, 3.0)
        assert sp11_inverse(a) == I11 @ a.adjoint() @ I11  # == counts -0.0 as 0.0
        _same_forms(a)


finitequat = st.builds(Quaternion, *[st.floats(allow_nan=False, allow_infinity=False)] * 4)
finitemat = st.builds(QMat2, *[finitequat] * 4)


@given(finitemat)
def test_sigma_forms_equal_the_product_forms_bit_for_bit(a):
    _same_forms(a)


# entries of one scale, where the order of a sum decides how it rounds
unitquat = st.builds(Quaternion, *[st.floats(-2.0, 2.0)] * 4)


# members out to orbit distance 15, where the column scaling decides membership,
# and normal matrices with a scale per entry, whose roundings differ with the order
# of a sum
membermat = st.builds(lambda seed: verify._rand_sp11(np.random.default_rng(seed), 15.0),
                      st.integers(0, 2 ** 32 - 1))


def _normal_mat(seed: int) -> QMat2:
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-3, 4, (4, 1))
    return QMat2(*(Quaternion(*row) for row in coords.tolist()))


normalmat = st.builds(_normal_mat, st.integers(0, 2 ** 32 - 1))


def _same_residuals(a: QMat2) -> None:
    # the fused pass against the matrix operators and the two reductions it replaces
    p = a.adjoint() @ sigma(a) - IDENTITY
    assert _bits(*_sp11_residuals(a)) == _bits(column_scaled_norm(p, a), p.max_norm())


@given(st.one_of(anymat, st.builds(QMat2, *[unitquat] * 4), membermat, normalmat))
def test_sp11_residuals_are_the_matrix_form_bit_for_bit(a):
    _same_residuals(a)


@pytest.mark.parametrize("a", [
    QMat2(Quaternion(math.inf), ZERO, ZERO, ONE),
    QMat2(ONE, Quaternion(0.0, -math.inf), ZERO, Quaternion(0.0, 0.0, math.inf)),
    QMat2(ONE, ZERO, Quaternion(0.5, math.nan), ONE),
    QMat2(Quaternion(1e308), ZERO, ZERO, ONE),
    QMat2(Quaternion(1e200, 1e200), ZERO, ZERO, ONE),  # a product overflows: inf - inf
    exp_m(J * 360.0),
    QMat2(Quaternion(-0.0, -0.0, -0.0, -0.0), Quaternion(1.0, -0.0), Quaternion(-1.0, 0.0, -0.0),
          Quaternion(-0.0, -0.0, 0.0, -0.0)),
    hyperbolic(-0.0)], ids=["inf", "-inf", "nan", "1e308", "overflow", "exp360", "-0", "H(-0)"])
def test_sp11_residuals_on_non_finite_and_signed_zero_rows(a):
    _same_residuals(a)


# blocks inside exp_m's domain, beside finite ones that mostly overflow it
blockquat = st.one_of(finitequat, st.builds(Quaternion, *[st.floats(-400.0, 400.0)] * 4))


@given(blockquat)
def test_exp_m_is_the_sgn_form_bit_for_bit(q):
    r = q.norm()
    if not 0.0 < r <= math.acosh(sys.float_info.max):
        return  # the identity and the DomainError, pinned by the examples
    u, c, s = sgn(q), Quaternion(math.cosh(r)), math.sinh(r)
    assert _mbits(exp_m(q)) == _mbits(QMat2(c, u.conj() * s, u * s, c))


def test_algebra_membership():
    assert algebra_check(off_diag(Quaternion(1, 2, 3, 4)).as_matrix())[0]
    assert not algebra_check(diag(ONE, ZERO))[0]
    with pytest.raises(DomainError):
        Sp11Algebra(ONE, I, ONE)  # real diagonal part is not allowed
    for p, q in ((Quaternion(math.nan, 1.0), J), (I, Quaternion(math.nan, 1.0))):
        with pytest.raises(DomainError):  # a NaN real part once passed `> ALGEBRA_TOL`
            Sp11Algebra(p, q, Quaternion(0.1))


# real parts on both sides of the edge |2 Re p| = ALGEBRA_TOL, with arbitrary finite rest
edgereal = st.one_of(st.floats(0.45 * ALGEBRA_TOL, 0.55 * ALGEBRA_TOL),
                     st.floats(-0.55 * ALGEBRA_TOL, -0.45 * ALGEBRA_TOL),
                     st.sampled_from([0.5 * ALGEBRA_TOL, -0.5 * ALGEBRA_TOL]))
finitefloat = st.floats(allow_nan=False, allow_infinity=False)
edgequat = st.builds(Quaternion, edgereal, finitefloat, finitefloat, finitefloat)


@given(st.one_of(edgequat, finitequat), st.one_of(edgequat, finitequat), finitequat)
def test_algebra_constructs_iff_algebra_check_passes(p, q, a):
    x = QMat2(p, a.conj(), a, q)
    try:
        Sp11Algebra(p, q, a)
    except DomainError:
        assert not algebra_check(x)[0]
    else:
        assert algebra_check(x)[0]


def test_algebra_check_decides_a_nearly_imaginary_diagonal():
    # 2 Re p = 1.4e-12 fails algebra_check, so the part is refused at construction
    p, q, a = Quaternion(0.7e-12, 1, 0, 0), J, Quaternion(0.3, 0.1, 0, 0)
    assert algebra_check(QMat2(p, a.conj(), a, q)) == (False, 1.4e-12)
    with pytest.raises(DomainError):
        Sp11Algebra(p, q, a)


def test_bracket_examples():
    x = diag_alg(I, Quaternion())
    assert lie_bracket(x, x).as_matrix().max_norm() == 0.0
    y = diag_alg(J, Quaternion())
    b = lie_bracket(x, y)
    assert (b.as_matrix() - diag_alg(K * 2, Quaternion()).as_matrix()).max_norm() == 0.0
    # off-diagonal with off-diagonal lands in the diagonal part
    m = lie_bracket(off_diag(ONE), off_diag(I))
    assert m.a == Quaternion()
    assert algebra_check(m.as_matrix())[1] <= 1e-15


def test_exp_m_examples():
    assert exp_m(Quaternion()) == IDENTITY
    for t in (1.3, -1.3):  # == counts -0.0 as 0.0
        c, s = Quaternion(math.cosh(t)), Quaternion(math.sinh(t))
        assert exp_m(Quaternion(t)) == QMat2(c, s, s, c)
    e = exp_m(I)
    c, s = math.cosh(1.0), math.sinh(1.0)
    assert (e - QMat2(Quaternion(c), -I * s, I * s, Quaternion(c))).max_norm() <= 1e-15
    assert sp11_check(e)[0]


@pytest.mark.parametrize("t", [800.0, -800.0, math.nan])
def test_hyperbolic_takes_the_domain_of_exp_m(t):
    # H(800) once raised a bare OverflowError and H(nan) gave a NaN matrix
    with pytest.raises(DomainError, match="exp_m needs"):
        hyperbolic(t)


def test_exponentials_say_why_they_overflow():
    # cosh overflows past acosh(max double) ~ 710.476; the last argument below it is fine
    with pytest.raises(DomainError, match=r"exp_m needs \|q\| <= acosh\(max double\) = "
                                          r"710\.47\d+, got 800\.0$"):
        exp_m(Quaternion(800))
    for bad in (math.inf, math.nan):  # a NaN block once gave a NaN matrix silently
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            exp_m(Quaternion(0.0, bad))
    assert math.isfinite(exp_m(Quaternion(710.47)).m11.w)
    with pytest.raises(DomainError, match="exp_general overflows: max-norm 800.0 gives"):
        exp_general(off_diag(Quaternion(800)))
    assert (exp_general(off_diag(J * 300.0)) - exp_m(J * 300.0)).max_norm() <= (
        1e-12 * math.cosh(300.0))


def test_exp_general_matches_closed_form():
    assert (exp_general(off_diag(Quaternion())) - IDENTITY).max_norm() == 0.0
    x = off_diag(J * 0.7)
    assert (exp_general(x) - exp_m(J * 0.7)).max_norm() <= 1e-13


def test_qexp_matches_euler():
    got = qexp(I * (math.pi / 2))
    assert (got - I).norm() <= 1e-15
    assert (qexp(ZERO) - ONE).norm() == 0.0


def test_exp_general_diagonal_reduces_to_quaternion_exp():
    p, q = I * math.pi, J * 0.4
    got = exp_general(diag_alg(p, q))
    want = diag(qexp(p), qexp(q))
    assert (got - want).max_norm() <= 1e-13
    assert sp11_check(got)[0]
    # exp(diag(pi*i, 0)) = diag(-1, 1)
    half_turn = exp_general(diag_alg(I * math.pi, Quaternion()))
    assert (half_turn - diag(Quaternion(-1.0), ONE)).max_norm() <= 1e-13


def test_eig_oracle_agrees_with_scipy_expm():
    # the exp-psi-oracle check must measure exp_general, not its own error
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(2000):
        m = psi_embed(verify._rand_alg(rng, 0.6).as_matrix())
        worst = max(worst, float(np.abs(verify._expm_eig(m) - scipy.linalg.expm(m)).max()))
    assert worst <= 1e-13


def test_psi_examples():
    assert np.abs(psi_embed(IDENTITY) - np.eye(4)).max() == 0.0


def test_psi_monomorphism():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        b = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        assert np.abs(psi_embed(a @ b) - psi_embed(a) @ psi_embed(b)).max() <= 1e-12
        assert np.abs(psi_embed(a.adjoint()) - psi_embed(a).conj().T).max() <= 1e-12


def test_exp_psi_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = Sp11Algebra(Quaternion(0, *rng.standard_normal(3)),
                        Quaternion(0, *rng.standard_normal(3)),
                        Quaternion(*rng.standard_normal(4)) * 0.5)
        ours = psi_embed(exp_general(x))
        oracle = scipy.linalg.expm(psi_embed(x.as_matrix()))
        assert np.abs(ours - oracle).max() <= 1e-10


def test_group_closure():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        b = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        assert sp11_check(a @ b)[0]
        assert sp11_check(sp11_inverse(a))[0]



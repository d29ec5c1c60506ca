"""Matrix layer: group membership, the algebra split, exponentials, and the
complex embedding oracle."""

import math

import numpy as np
import pytest
import scipy.linalg

from sliceball import verify
from sliceball.errors import DomainError
from sliceball.hmat import (QMat2, Sp11Algebra, algebra_check, algebra_residual,
                            cartan_split, diag, diag_alg, exp_general, exp_m,
                            hat_sp11_check, hyperbolic, i11, identity, j2, k11,
                            lie_bracket, mat_from_list, mat_to_list, off_diag,
                            psi_embed, rho, sigma, sp11_check, sp11_inverse)
from sliceball.quat import I, J, K, ONE, Quaternion, make_rng, qexp, sample_sphere3


def test_mat_ops_examples():
    a = QMat2(Quaternion(1, 2, 0, 0), I, J, K)
    assert identity() @ a == a
    assert diag(I, J).adjoint() == diag(-I, -J)
    assert i11() @ i11() == identity()


def test_adjoint_antiautomorphism():
    rng = make_rng(0)
    for _ in range(20):
        a = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        b = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        assert ((a @ b).adjoint() - b.adjoint() @ a.adjoint()).max_norm() <= 1e-12


def test_matmul_associative():
    rng = make_rng(1)
    for _ in range(20):
        a, b, c = (QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
                   for _ in range(3))
        assert ((a @ b) @ c - a @ (b @ c)).max_norm() <= 1e-12


def test_sp11_check_examples():
    assert sp11_check(identity()) == (True, 0.0)
    ok, res = sp11_check(hyperbolic(1.0))
    assert ok and res <= 1e-15
    assert not sp11_check(diag(1.0, 2.0))[0]


def test_sp11_check_scales_with_the_columns():
    # exp(7.5 j): the absolute residual 1.2e-10 is roundoff of entries near
    # cosh(7.5)^2, so membership passes while the absolute residual is reported
    a = exp_m(J * 7.5)
    ok, res = sp11_check(a)
    assert ok and res > 1e-10
    assert not sp11_check(QMat2(math.cosh(15), 0.0, math.sinh(15), 1e-5))[0]
    assert not sp11_check(QMat2(Quaternion(math.nan), 0.0, 0.0, 1.0))[0]


def test_sp11_inverse_examples():
    assert sp11_inverse(i11()) == i11()
    t = 0.7
    assert (sp11_inverse(hyperbolic(t)) - hyperbolic(-t)).max_norm() <= 1e-15
    a = diag(sample_sphere3(make_rng(2)), sample_sphere3(make_rng(3))) @ exp_m(I * 0.4)
    assert (a @ sp11_inverse(a) - identity()).max_norm() <= 1e-14
    with pytest.raises(DomainError):
        sp11_inverse(diag(1.0, 2.0))


def test_sigma():
    d = diag(I, J)
    assert sigma(d) == d
    a = QMat2(1.0, I, J, K)
    s = sigma(a)
    assert s == QMat2(1.0, -I, -J, K)
    assert sigma(sigma(a)) == a


def test_cartan_split():
    x = Sp11Algebra(I, J, Quaternion(1, 0, 0, 0))
    k_part, m_part = cartan_split(x)
    assert k_part.a == Quaternion() and m_part.p == Quaternion()
    total = k_part.as_matrix() + m_part.as_matrix()
    assert (total - x.as_matrix()).max_norm() == 0.0
    assert cartan_split(diag_alg(I, J))[1].as_matrix().max_norm() == 0.0


def test_algebra_membership():
    assert algebra_check(off_diag(Quaternion(1, 2, 3, 4)).as_matrix())[0]
    assert not algebra_check(diag(1.0, 0.0))[0]
    with pytest.raises(DomainError):
        Sp11Algebra(ONE, I, ONE)  # real diagonal part is not allowed


def test_bracket_examples():
    x = diag_alg(I, Quaternion())
    assert lie_bracket(x, x).as_matrix().max_norm() == 0.0
    y = diag_alg(J, Quaternion())
    b = lie_bracket(x, y)
    assert (b.as_matrix() - diag_alg(K * 2, Quaternion()).as_matrix()).max_norm() == 0.0
    # off-diagonal with off-diagonal lands in the diagonal part
    m = lie_bracket(off_diag(ONE), off_diag(I))
    assert m.a == Quaternion()
    assert algebra_residual(m.as_matrix()) <= 1e-15


def test_exp_m_examples():
    assert exp_m(Quaternion()) == identity()
    t = 1.3
    assert (exp_m(Quaternion(t)) - hyperbolic(t)).max_norm() <= 1e-15
    assert (exp_m(Quaternion(-t)) - hyperbolic(-t)).max_norm() <= 1e-15
    e = exp_m(I)
    c, s = math.cosh(1.0), math.sinh(1.0)
    assert (e - QMat2(c, -I * s, I * s, c)).max_norm() <= 1e-15
    assert sp11_check(e)[0]


def test_exp_general_matches_closed_form():
    assert (exp_general(off_diag(Quaternion())) - identity()).max_norm() == 0.0
    x = off_diag(J * 0.7)
    assert (exp_general(x) - exp_m(J * 0.7)).max_norm() <= 1e-13


def test_exp_general_diagonal_reduces_to_quaternion_exp():
    p, q = I * math.pi, J * 0.4
    got = exp_general(diag_alg(p, q))
    want = diag(qexp(p), qexp(q))
    assert (got - want).max_norm() <= 1e-13
    assert sp11_check(got)[0]
    # exp(diag(pi*i, 0)) = diag(-1, 1)
    half_turn = exp_general(diag_alg(I * math.pi, Quaternion()))
    assert (half_turn - diag(-1.0, 1.0)).max_norm() <= 1e-13


def test_eig_oracle_agrees_with_scipy_expm():
    # the exp-psi-oracle check must measure exp_general, not its own error
    rng = make_rng(40)
    worst = 0.0
    for _ in range(2000):
        m = psi_embed(verify._rand_alg(rng, 0.6).as_matrix())
        worst = max(worst, float(np.abs(verify._expm_eig(m) - scipy.linalg.expm(m)).max()))
    assert worst <= 1e-13


def test_psi_examples():
    assert np.abs(psi_embed(identity()) - np.eye(4)).max() == 0.0
    jq = Quaternion(0, 0, 1, 0)
    assert np.abs(psi_embed(QMat2(jq, 0.0, 0.0, jq)) - j2()).max() == 0.0
    kmat = k11()
    assert np.abs(kmat @ kmat - np.eye(4)).max() == 0.0


def test_psi_monomorphism():
    rng = make_rng(4)
    for _ in range(20):
        a = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        b = QMat2(*(Quaternion(*rng.standard_normal(4)) for _ in range(4)))
        assert np.abs(psi_embed(a @ b) - psi_embed(a) @ psi_embed(b)).max() <= 1e-12
        assert np.abs(psi_embed(a.adjoint()) - psi_embed(a).conj().T).max() <= 1e-12


def test_hat_check_examples():
    assert hat_sp11_check(rho(psi_embed(identity())))[0]
    assert hat_sp11_check(rho(psi_embed(hyperbolic(1.0))))[0]
    assert not hat_sp11_check(2.0 * np.eye(4))[0]


def test_exp_psi_oracle():
    rng = make_rng(5)
    for _ in range(20):
        x = Sp11Algebra(Quaternion(0, *rng.standard_normal(3)),
                        Quaternion(0, *rng.standard_normal(3)),
                        Quaternion(*rng.standard_normal(4)) * 0.5)
        ours = psi_embed(exp_general(x))
        oracle = scipy.linalg.expm(psi_embed(x.as_matrix()))
        assert np.abs(ours - oracle).max() <= 1e-10


def test_group_closure():
    rng = make_rng(6)
    for _ in range(30):
        a = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        b = diag(sample_sphere3(rng), sample_sphere3(rng)) @ exp_m(
            sample_sphere3(rng) * float(rng.random()))
        assert sp11_check(a @ b)[0]
        assert sp11_check(sp11_inverse(a))[0]


def test_mat_json_roundtrip():
    a = QMat2(Quaternion(1, 2, 3, 4), I, J, Quaternion(-1, 0.5, 0, 0))
    assert mat_from_list(mat_to_list(a)) == a
    with pytest.raises(ValueError):
        mat_from_list([[1, 2], [3]])

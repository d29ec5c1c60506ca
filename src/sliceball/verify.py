"""Randomized verification checks for every structural identity the library
implements.  Each check draws its own deterministic generator from the master
seed and yields one residual per comparison; `run_check` reduces them to the
worst one and compares it against the check's tolerance in `CHECKS`.  That
registry is the only place a tolerance is set, and one changes only through a
code change recorded in CHANGES.md.  A check that raises a numerical error
(ValueError, ArithmeticError or RuntimeError, which cover DomainError,
PoleError, ConsistencyError and numpy's LinAlgError) fails at infinity with the
exception recorded, and the run goes on.  `run_checks` spreads the selected
checks over a forked worker pool, one worker per usable CPU, and returns their
results in registry order.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple
from typing import Iterable, Iterator

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; loaded here, forked workers share it

from . import SUITES, hmat
from .errors import ConsistencyError, DomainError
from .hmat import (I11, IDENTITY, QMat2, Sp11Algebra, algebra_check, diag, exp_general,
                   exp_m, hyperbolic, i_eps, lie_bracket, off_diag, psi_embed, scalar,
                   sp11_check, sp11_inverse)
from .lie import (ISO_IDENTITY, IsoGElement, SliceFactorization,
                  SymmFactorization, centralizer_check, iso_g_act,
                  iso_g_inverse, iso_g_mul, orbit_invariant, slice_compose,
                  slice_decompose, symm_compose, symm_decompose)
from .metrics import poincare_g, pullback_residual, slice_g, slice_h
from .mobius import (classical_apply, differential, f_au, f_au_matrix,
                     mobius_M, quotient_point, regular_apply)
from .quat import I, J, ONE, ZERO, Quaternion, _of_floats, sgn, slice_split
from .starpoly import StarPoly, linear_map, quadratic_root_in_ball, reg_conj, symmetrize


class CheckResult(namedtuple("CheckResult", "name suite value tol op passed trials seconds error",
                             defaults=(None,))):
    """One check's outcome: its worst residual `value` compared with `tol` by `op` ("<="
    or ">="), the CPU `seconds` it took; `error` is "<ExcType>: <message>" if it raised."""

    __slots__ = ()


class CheckDef(namedtuple("CheckDef", "name suite fn trials tol op", defaults=("<=",))):
    """A registered check: `fn(rng, trials)` takes a numpy Generator and yields
    one residual per comparison."""

    __slots__ = ()


# A check yields one residual per comparison it makes; run_check reduces them.
Residuals = Iterator[float]


def _worst(values: Iterable[float], op: str) -> float:
    """The max of the values for "<=", their min for ">=".

    NaN when any value is NaN or when there is none, so that neither a NaN nor
    an empty check can be reduced to a passing number.
    """
    values = list(values)
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return max(values) if op == "<=" else min(values)


# ---------------------------------------------------------------------------
# Samplers (desk scale: points stay clear of the boundary so finite differences
# remain well conditioned).  Each draws from a numpy Generator; PCG64 is stable
# across platforms for a fixed seed.
BALL_MARGIN = 1e-12  # the ball samplers shrink their radius by 1 - 2 BALL_MARGIN


def _gaussian_unit(rng, dim: int) -> list[float]:
    """A standard normal draw of dim coordinates, divided by its norm."""
    v = rng.standard_normal(dim)
    n = math.sqrt(v.dot(v))  # bit for bit np.linalg.norm(v) of a 1-D float array
    while n < 1e-12:  # pragma: no cover - probability ~0
        v = rng.standard_normal(dim)
        n = math.sqrt(v.dot(v))
    return [c / n for c in v.tolist()]


def sample_sphere3(rng) -> Quaternion:
    """Uniform point on the unit 3-sphere of quaternions."""
    return _of_floats(*_gaussian_unit(rng, 4))


def sample_imaginary_unit(rng) -> Quaternion:
    """Uniform point on the 2-sphere of imaginary units."""
    return _of_floats(0.0, *_gaussian_unit(rng, 3))


def sample_ball(rng, radius: float = 1.0) -> Quaternion:
    """Uniform point in the ball of the given radius, shrunk by 1 - 2 BALL_MARGIN."""
    u = sample_sphere3(rng)
    r = radius * (1.0 - 2.0 * BALL_MARGIN) * float(rng.random()) ** 0.25
    return u * r


def sample_real_interval(rng) -> Quaternion:
    """Uniform real quaternion in (-1, 1)."""
    return Quaternion((1.0 - 2.0 * BALL_MARGIN) * (2.0 * float(rng.random()) - 1.0))


def _rand_quat(rng, scale: float = 1.0) -> Quaternion:
    return _of_floats(*(scale * rng.standard_normal(4)).tolist())


def _rand_alg(rng, scale: float) -> Sp11Algebra:
    return Sp11Algebra(_rand_quat(rng, scale).im(), _rand_quat(rng, scale).im(),
                       _rand_quat(rng, scale))


def _rand_m_dir(rng, max_norm: float) -> Quaternion:
    return sample_sphere3(rng) * (max_norm * float(rng.random()))


def _rand_sp11(rng, max_t: float) -> QMat2:
    return symm_compose(SymmFactorization(sample_sphere3(rng), sample_sphere3(rng),
                                          _rand_m_dir(rng, max_t)))


def _rand_iso(rng) -> IsoGElement:
    return IsoGElement(sample_sphere3(rng),
                       1 if rng.random() < 0.5 else -1,
                       1.2 * (2.0 * float(rng.random()) - 1.0),
                       1 if rng.random() < 0.5 else -1)


def _rand_poly(rng, max_deg: int) -> StarPoly:
    deg = int(rng.integers(1, max_deg + 1))
    return StarPoly([_rand_quat(rng) for _ in range(deg + 1)])


# ---------------------------------------------------------------------------
# decompose suite

def check_sp11_closure(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        b = _rand_sp11(rng, 1.2)
        inv = sp11_inverse(a)
        yield from (sp11_check(a @ b)[1], sp11_check(inv)[1],
                    (a @ inv - IDENTITY).max_norm())


def check_algebra_brackets(rng, trials: int) -> Residuals:
    for _ in range(trials):
        k1 = Sp11Algebra(_rand_quat(rng).im(), _rand_quat(rng).im(), ZERO)
        k2 = Sp11Algebra(_rand_quat(rng).im(), _rand_quat(rng).im(), ZERO)
        m1 = off_diag(_rand_quat(rng))
        m2 = off_diag(_rand_quat(rng))

        def comm(x, y):
            return x.as_matrix() @ y.as_matrix() - y.as_matrix() @ x.as_matrix()

        kk = comm(k1, k2)  # stays diagonal
        km = comm(k1, m1)  # stays off-diagonal
        mm = comm(m1, m2)  # stays diagonal
        yield from (kk.m12.norm(), kk.m21.norm(),
                    km.m11.norm(), km.m22.norm(),
                    mm.m12.norm(), mm.m21.norm(),
                    algebra_check(lie_bracket(k1, m2).as_matrix())[1])


def check_exp_closed_form(rng, trials: int) -> Residuals:
    for _ in range(trials):
        t = 4.0 * float(rng.random()) - 2.0
        u = sample_sphere3(rng)
        yield (exp_general(off_diag(u * t)) - exp_m(u * t)).max_norm()


def check_exp_m_inverse(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = _rand_m_dir(rng, 2.0)
        yield from ((exp_m(q) @ exp_m(-q) - IDENTITY).max_norm(),
                    (sp11_inverse(exp_m(q)) - exp_m(-q)).max_norm())


def _expm_eig(m: np.ndarray) -> np.ndarray:
    """exp(m) as V diag(e^lambda) V^-1 from an eigendecomposition of m.

    Independent of the scaled-and-squared Taylor series inside exp_general.
    """
    lam, vecs = np.linalg.eig(m)
    return (vecs * np.exp(lam)) @ np.linalg.inv(vecs)


def check_exp_psi_oracle(rng, trials: int) -> Residuals:
    for _ in range(trials):
        x = _rand_alg(rng, 0.6)
        theirs = _expm_eig(psi_embed(x.as_matrix()))
        yield float(np.abs(psi_embed(exp_general(x)) - theirs).max())


def check_psi_homomorphism(rng, trials: int) -> Residuals:
    yield float(np.abs(psi_embed(IDENTITY) - np.eye(4)).max())
    for _ in range(trials):
        a = QMat2(*(_rand_quat(rng) for _ in range(4)))
        b = QMat2(*(_rand_quat(rng) for _ in range(4)))
        yield from (float(np.abs(psi_embed(a @ b) - psi_embed(a) @ psi_embed(b)).max()),
                    float(np.abs(psi_embed(a.adjoint()) - psi_embed(a).conj().T).max()))


def check_hat_membership(rng, trials: int) -> Residuals:
    """The embedded group, conjugated by d = diag(1, i, 1, i) onto its complex
    realization, preserves both forms: k = psi_embed(I11) = diag(1, -1, 1, -1), the
    image of diag(1, -1), and j = psi_embed(scalar(J)) = [[0, I2], [-I2, 0]], the
    image of j times the identity."""
    k, j = psi_embed(I11), psi_embed(scalar(J))
    d = np.array([1.0, 1.0j, 1.0, 1.0j])
    for _ in range(trials):
        m = (psi_embed(_rand_sp11(rng, 1.2)) * d[:, None]) * (1.0 / d)[None, :]
        yield float(np.abs(m.conj().T @ k @ m - k).max())
        yield float(np.abs(m.T @ j @ m - j).max())


def check_sigma_automorphism(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        b = _rand_sp11(rng, 1.2)
        yield (hmat.sigma(a @ b) - hmat.sigma(a) @ hmat.sigma(b)).max_norm()
        k = Sp11Algebra(_rand_quat(rng).im(), _rand_quat(rng).im(), ZERO).as_matrix()
        m = off_diag(_rand_quat(rng)).as_matrix()
        yield from ((hmat.sigma(k) - k).max_norm(), (hmat.sigma(m) + m).max_norm())


def check_symm_roundtrip(rng, trials: int) -> Residuals:
    for _ in range(trials):
        u, v = sample_sphere3(rng), sample_sphere3(rng)
        x = _rand_m_dir(rng, 1.2)
        a = symm_compose(SymmFactorization(u, v, x))
        fact = symm_decompose(a)
        yield from ((symm_compose(fact) - a).max_norm(),
                    (fact.u - u).norm(), (fact.v - v).norm(), (fact.x - x).norm())


def check_slice_roundtrip(rng, trials: int) -> Residuals:
    for _ in range(trials):
        u, v = sample_sphere3(rng), sample_sphere3(rng)
        x = _rand_m_dir(rng, 1.2)
        a = slice_compose(SliceFactorization(u, x, v))
        fact = slice_decompose(a)
        yield from ((slice_compose(fact) - a).max_norm(),
                    (fact.u - u).norm(), (fact.v - v).norm(), (fact.x - x).norm())
        b = _rand_sp11(rng, 1.2)
        yield (slice_compose(slice_decompose(b)) - b).max_norm()


def check_quotient_consistency(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = _rand_m_dir(rng, 1.2)
        expected = sgn(q) * math.tanh(q.norm())
        a = exp_m(q)
        yield from ((classical_apply(a, Quaternion()) - expected).norm(),
                    (quotient_point(a) - expected).norm())


# ---------------------------------------------------------------------------
# mobius suite (quaternion and star-calculus foundations live here too)

def check_quat_identities(rng, trials: int) -> Residuals:
    for _ in range(trials):
        p, q = _rand_quat(rng), _rand_quat(rng)
        yield from (abs((p * q).norm() - p.norm() * q.norm()),
                    ((p * q).conj() - q.conj() * p.conj()).norm())
        b = sample_ball(rng)
        x, y, unit = slice_split(b)
        yield (Quaternion(x) + unit * y - b).norm()
        im = sample_imaginary_unit(rng)
        yield (im * im + ONE).norm()


# The star checks divide each residual by the norms of the terms it sums, so
# their bounds do not grow with the random coefficients.

def _coeff_scales(f: StarPoly, g: StarPoly) -> list[float]:
    """sum_{i+j=k} |f_i| |g_j| for each coefficient k of f * g."""
    return np.convolve([c.norm() for c in f.coeffs], [c.norm() for c in g.coeffs]).tolist()


def _abs_eval(f: StarPoly, r: float) -> float:
    """sum_n |f_n| r^n, which bounds |f(q)| at |q| = r."""
    return sum(c.norm() * r ** n for n, c in enumerate(f.coeffs))


def check_star_symmetrize_real(rng, trials: int) -> Residuals:
    for _ in range(trials):
        f = _rand_poly(rng, 6)
        yield from (c.im_norm() / s
                    for c, s in zip(symmetrize(f).coeffs, _coeff_scales(f, f)))


def check_star_conj_antihom(rng, trials: int) -> Residuals:
    for _ in range(trials):
        f = _rand_poly(rng, 5)
        g = _rand_poly(rng, 5)
        lhs = reg_conj(f * g)
        rhs = reg_conj(g) * reg_conj(f)
        n = max(len(lhs.coeffs), len(rhs.coeffs))
        scales = _coeff_scales(f, g)
        yield from ((lhs.coeff(k) - rhs.coeff(k)).norm() / scales[k] for k in range(n))


def check_star_real_commute(rng, trials: int) -> Residuals:
    for _ in range(trials):
        f = _rand_poly(rng, 5)
        g = StarPoly([Quaternion(v) for v in rng.standard_normal(int(rng.integers(2, 6)))])
        q = sample_ball(rng, 0.9)
        r = q.norm()
        yield (((g * f).eval(q) - g.eval(q) * f.eval(q)).norm()
               / (_abs_eval(g, r) * _abs_eval(f, r)))


def _rand_factored_quadratic(rng) -> tuple[StarPoly, Quaternion]:
    a = sample_ball(rng, 0.95)
    b = _rand_quat(rng, 0.8)
    p = StarPoly([-a, ONE]) * StarPoly([-b, ONE])
    return p, a


def check_root_finder_residual(rng, trials: int) -> Residuals:
    for _ in range(trials):
        p, _ = _rand_factored_quadratic(rng)
        report = quadratic_root_in_ball(p)
        if not report.points and not report.spheres:
            yield math.inf
            return
        yield from (p.eval(r).norm() for r in report.points)


def check_root_finder_includes_factor(rng, trials: int) -> Residuals:
    for _ in range(trials):
        p, a = _rand_factored_quadratic(rng)
        report = quadratic_root_in_ball(p)
        yield min(((r - a).norm() for r in report.points_in_ball()), default=math.inf)


def _newton_zero(p: StarPoly, start: Quaternion) -> Quaternion:
    """Newton iteration on the pointwise evaluation map, with finite-difference
    Jacobian: an oracle independent of the sphere-based root extraction.
    Raises ConsistencyError when 60 steps do not reach a zero."""
    q = start
    for _ in range(60):
        val = p.eval(q)
        if val.norm() <= 1e-12:
            return q
        jac = np.array([[c.w, c.x, c.y, c.z] for c in differential(p.eval, q, 1e-6)]).T
        step = np.linalg.solve(jac, [val.w, val.x, val.y, val.z])
        q = q - _of_floats(*step.tolist())
    if not p.eval(q).norm() <= 1e-10:
        raise ConsistencyError(f"Newton did not converge from {start!r}")
    return q


def check_root_finder_newton(rng, trials: int) -> Residuals:
    for _ in range(trials):
        p, _ = _rand_factored_quadratic(rng)
        for r in quadratic_root_in_ball(p).points:
            yield (_newton_zero(p, r + sample_sphere3(rng) * 1e-3) - r).norm()


def _regularity_residual(f, q: Quaternion, h: float) -> float:
    """|(d/dx + I d/dy) f / 2| at q, by central differences along q's slice.

    f is any callable on quaternions.  A real q uses the canonical slice i.
    The residual of a slice regular map decays as O(h^2).
    """
    x, y, i_unit = slice_split(q)
    if h <= 0.0 or x + h == x or y + h == y:
        raise DomainError(f"finite-difference step {h!r} underflows at {q!r}")

    def at(xx: float, yy: float) -> Quaternion:
        return f(Quaternion(xx) + i_unit * yy)

    fx = (at(x + h, y) - at(x - h, y)) / (2.0 * h)
    fy = (at(x, y + h) - at(x, y - h)) / (2.0 * h)
    return ((fx + i_unit * fy) * 0.5).norm()


def check_regularity_polynomial(rng, trials: int) -> Residuals:
    for _ in range(trials):
        f = _rand_poly(rng, 5)
        yield _regularity_residual(f.eval, sample_ball(rng, 0.7), h=1e-4)


def check_mobius_antihom(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 0.8)
        b = _rand_sp11(rng, 0.8)
        q = sample_ball(rng, 0.6)
        yield (classical_apply(a @ b, q) - classical_apply(b, classical_apply(a, q))).norm()


def check_mobius_inverse_map(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.0)
        q = sample_ball(rng, 0.6)
        yield (classical_apply(sp11_inverse(a), classical_apply(a, q)) - q).norm()


def check_coincidence_real(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = 1.8 * float(rng.random()) - 0.9
        u = sample_sphere3(rng)
        q = sample_ball(rng, 0.8)
        mat = f_au_matrix(a, u)
        image = classical_apply(mat, q)
        yield from ((image - regular_apply(mat, q)).norm(), (image - f_au(a, u, q)).norm())


def check_noncoincidence_nonreal(rng, trials: int) -> Residuals:
    # ">=": the least, over trials, of the worst regularity residual of M(a).
    for _ in range(trials):
        a = sample_ball(rng, 0.8)
        while a.im_norm() < 0.1:
            a = sample_ball(rng, 0.8)
        mat = mobius_M(a)
        fn = lambda p: classical_apply(mat, p)
        yield _worst((_regularity_residual(fn, sample_ball(rng, 0.7), h=1e-5)
                      for _ in range(50)), "<=")


def check_quotient_well_defined(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        w, v = sample_sphere3(rng), sample_sphere3(rng)
        moved = diag(w, ONE) @ a @ scalar(v)
        yield (quotient_point(moved) - quotient_point(a)).norm()


def check_equivariance_left(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        u = sample_sphere3(rng)
        eps = 1.0 if rng.random() < 0.5 else -1.0
        phi = quotient_point(a)
        moved = diag(Quaternion(eps), u) @ a
        yield (quotient_point(moved) - u * phi * u.conj()).norm()


def check_equivariance_right(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        t = 2.4 * float(rng.random()) - 1.2
        eps = 1 if rng.random() < 0.5 else -1
        phi = quotient_point(a)
        tt = math.tanh(t)
        expected = ((ONE + phi * tt).inverse() * (phi + tt)) * float(eps)
        moved = a @ (hyperbolic(t) @ i_eps(eps))
        yield (quotient_point(moved) - expected).norm()


# ---------------------------------------------------------------------------
# metrics suite

def check_poincare_invariance(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 0.8)
        q = sample_ball(rng, 0.6)
        yield from pullback_residual(lambda p: classical_apply(a, p), poincare_g, q, rng, trials=6)


def check_geodesic_reversal(rng, trials: int) -> Residuals:
    for _ in range(trials):
        u = sample_sphere3(rng)
        t = 4.0 * float(rng.random()) - 2.0
        lhs = classical_apply(I11, classical_apply(exp_m(u * t), Quaternion()))
        yield (lhs - classical_apply(exp_m(u * -t), Quaternion())).norm()


def check_slice_conjugation_invariance(rng, trials: int) -> Residuals:
    for _ in range(trials):
        u = sample_sphere3(rng)
        q = sample_ball(rng, 0.6)
        yield from pullback_residual(lambda p: u.conj() * p * u, slice_g, q, rng, trials=6)


def check_slice_hyperbolicity(rng, trials: int) -> Residuals:
    for _ in range(trials):
        unit = sample_imaginary_unit(rng)
        x, y = 0.9 * rng.standard_normal(2) / 2.0
        while x * x + y * y >= 0.81:
            x, y = 0.9 * rng.standard_normal(2) / 2.0
        q = Quaternion(x) + unit * y
        alpha = Quaternion(float(rng.standard_normal())) + unit * float(rng.standard_normal())
        beta = Quaternion(float(rng.standard_normal())) + unit * float(rng.standard_normal())
        expected = (alpha * beta.conj()).w / (1.0 - q.norm_sq()) ** 2
        yield abs(slice_g(q, alpha, beta) - expected)


def check_metrics_differ_example(rng, trials: int) -> Residuals:
    q = I * 0.5
    yield from (abs(slice_g(q, J, J) - 0.64), abs(poincare_g(q, J, J) - 16.0 / 9.0))


def check_regular_map_zero(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = sample_ball(rng, 0.9)
        yield regular_apply(mobius_M(q), q).norm()


def check_regular_pullback(rng, trials: int) -> Residuals:
    # The slice metric at q is the Euclidean form pulled back through M_q, which sends q to
    # 0, where slice_g rounds to the Euclidean form.
    for _ in range(trials):
        q = sample_ball(rng, 0.7)
        mat = mobius_M(q)
        yield from pullback_residual(lambda p: regular_apply(mat, p), slice_g, q, rng, trials=10)


def check_slice_positive_definite(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = sample_ball(rng, 0.9)
        alpha = sample_sphere3(rng)
        yield slice_g(q, alpha, alpha)


def check_hermitian_symmetry(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = sample_ball(rng, 0.7)
        alpha, beta = _rand_quat(rng), _rand_quat(rng)
        h_ab = slice_h(q, alpha, beta)
        h_ba = slice_h(q, beta, alpha)
        yield from ((h_ab - h_ba.conj()).norm(), abs(h_ab.w - slice_g(q, alpha, beta)))


# ---------------------------------------------------------------------------
# isometry suite

def check_iso_isometry(rng, trials: int) -> Residuals:
    for k in range(trials):
        e = _rand_iso(rng)
        # Force both branches of the final sign to appear.
        e = IsoGElement(e.u, e.eps1, e.t, 1 if k % 2 == 0 else -1)
        q = sample_ball(rng, 0.6)
        yield from pullback_residual(lambda p: iso_g_act(e, p), slice_g, q, rng, trials=6)


def _orientation_sign(fn, q: Quaternion) -> float:
    """Sign of the Jacobian determinant of the ball map fn at q; NaN, without a
    call into LAPACK, when an entry of the Jacobian is not finite."""
    jac = np.array([[c.w, c.x, c.y, c.z] for c in differential(fn, q)]).T
    if not np.isfinite(jac).all():
        return math.nan
    return float(np.sign(np.linalg.det(jac)))


def check_iso_orientation(rng, trials: int) -> Residuals:
    for k in range(trials):
        e = _rand_iso(rng)
        e = IsoGElement(e.u, e.eps1, e.t, 1 if k % 2 == 0 else -1)
        q = sample_ball(rng, 0.6)
        yield abs(_orientation_sign(lambda p: iso_g_act(e, p), q) - e.eps2)


def check_iso_ineffective_kernel(rng, trials: int) -> Residuals:
    for _ in range(trials):
        e = _rand_iso(rng)
        q = sample_ball(rng, 0.8)
        flipped = IsoGElement(-e.u, e.eps1, e.t, e.eps2)
        yield (iso_g_act(e, q) - iso_g_act(flipped, q)).norm()


def check_iso_star_axiom(rng, trials: int) -> Residuals:
    for _ in range(trials):
        e1, e2 = _rand_iso(rng), _rand_iso(rng)
        q = sample_ball(rng, 0.7)
        yield from ((iso_g_act(iso_g_mul(e1, e2), q) - iso_g_act(e1, iso_g_act(e2, q))).norm(),
                    (iso_g_act(ISO_IDENTITY, q) - q).norm(),
                    (iso_g_act(iso_g_mul(e1, iso_g_inverse(e1)), q) - q).norm())


def check_iso_from_translations(rng, trials: int) -> Residuals:
    for _ in range(trials):
        a = _rand_sp11(rng, 1.0)
        u = sample_sphere3(rng)
        t = 2.0 * float(rng.random()) - 1.0
        eps = 1 if rng.random() < 0.5 else -1
        moved = diag(ONE, u) @ a @ (hyperbolic(t) @ i_eps(eps))
        expected = iso_g_act(IsoGElement(u, eps, t, 1), quotient_point(a))
        yield (quotient_point(moved) - expected).norm()


def _membership_violation(a: QMat2, subgroup: str, member: bool) -> float:
    """1.0 when centralizer_check decides a's membership against `member`, else 0.0;
    NaN when its commutator residual is NaN."""
    inside, residual = centralizer_check(a, subgroup)
    return math.nan if math.isnan(residual) else float(inside != member)


def check_centralizer_members(rng, trials: int) -> Residuals:
    for _ in range(trials):
        eps = 1.0 if rng.random() < 0.5 else -1.0
        yield _membership_violation(diag(Quaternion(eps), sample_sphere3(rng)), "sp1x1", True)
        t = 2.4 * float(rng.random()) - 1.2
        sign = 1.0 if rng.random() < 0.5 else -1.0
        real_member = (hyperbolic(t) @ i_eps(1 if rng.random() < 0.5 else -1)) * sign
        yield _membership_violation(real_member, "sp1I2", True)
        pm = IDENTITY * (1.0 if rng.random() < 0.5 else -1.0)
        yield _membership_violation(pm, "sp1xsp1", True)


def check_centralizer_outsiders(rng, trials: int) -> Residuals:
    for _ in range(trials):
        generic = _rand_sp11(rng, 1.0)
        yield from (_membership_violation(generic, "sp1I2", False),
                    _membership_violation(generic, "sp1x1", False))
        u = sample_sphere3(rng)
        while u.im_norm() < 0.1:
            u = sample_sphere3(rng)
        yield from (_membership_violation(diag(u, sample_sphere3(rng)), "sp1x1", False),
                    _membership_violation(diag(u, u), "sp1xsp1", False))


# ---------------------------------------------------------------------------
# orbits suite

def check_orbit_real_axis(rng, trials: int) -> Residuals:
    for _ in range(trials):
        yield abs(orbit_invariant(sample_real_interval(rng)))


def check_orbit_invariance(rng, trials: int) -> Residuals:
    for k in range(trials):
        if k % max(1, trials // 10) == 0:
            base = sample_ball(rng, 0.8)
            y = orbit_invariant(base)
        yield abs(orbit_invariant(iso_g_act(_rand_iso(rng), base)) - y)


def _orbit_grid_oracle(q: Quaternion, t_lo: float = -5.0, t_hi: float = 5.0) -> float:
    """Locate the orbit's imaginary-axis crossing by bisecting on the sign of the
    real part of H(t) q over [t_lo, t_hi]; read off |Im|.

    Re H(t) q has the sign of tau^2 x + tau (1 + |q|^2) + x with tau = tanh t and
    x = Re q. That quadratic is negative at tau = -1, positive at tau = 1, and its
    roots multiply to 1, so the real part changes sign exactly once. Uses only the
    group action itself, never the closed form.
    """
    def real_part(t: float) -> float:
        return iso_g_act(IsoGElement(ONE, 1, t, 1), q).w

    lo, hi, rlo = t_lo, t_hi, real_part(t_lo)
    if not rlo * real_part(t_hi) < 0.0:
        raise ConsistencyError(f"no axis crossing of the orbit of {q!r} on [{t_lo!r}, {t_hi!r}]")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        rm = real_part(mid)
        if rm == 0.0:
            lo = hi = mid
            break
        if (rm < 0.0) == (rlo < 0.0):
            lo, rlo = mid, rm
        else:
            hi = mid
    image = iso_g_act(IsoGElement(ONE, 1, 0.5 * (lo + hi), 1), q)
    return image.im_norm()


def check_orbit_grid_oracle(rng, trials: int) -> Residuals:
    for _ in range(trials):
        q = sample_ball(rng, 0.8)
        if q.im_norm() < 1e-6:
            continue
        yield abs(orbit_invariant(q) - _orbit_grid_oracle(q))


def check_orbit_axis_example(rng, trials: int) -> Residuals:
    yield abs(orbit_invariant(I * 0.3) - 0.3)
    base = J * 0.3
    for _ in range(trials):
        u = sample_sphere3(rng)
        t = 2.4 * float(rng.random()) - 1.2
        yield abs(orbit_invariant(iso_g_act(IsoGElement(u, 1, t, 1), base)) - 0.3)


def check_quotient_root_oracle(rng, trials: int) -> Residuals:
    """The closed-form quotient point against the in-ball zero of the numerator
    star-quadratic of the inverse matrix, found by the root finder."""
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        inv = sp11_inverse(a)
        num = reg_conj(linear_map(inv.m12, inv.m22)) * linear_map(inv.m11, inv.m21)
        report = quadratic_root_in_ball(num)
        zeros = report.points_in_ball()
        if report.spheres_in_ball() or len(zeros) != 1:
            yield math.inf
            return
        yield (quotient_point(a) - zeros[0]).norm()


def check_regular_star_oracle(rng, trials: int) -> Residuals:
    """The closed-form regular map against the star calculus: the symmetrization
    of the denominator line, inverted, times the regular conjugate of that line
    star-multiplied with the numerator line, all evaluated at q."""
    for _ in range(trials):
        a = _rand_sp11(rng, 1.2)
        q = sample_ball(rng, 0.9)
        den = linear_map(a.m12, a.m22)
        star = (symmetrize(den).eval(q).inverse()
                * (reg_conj(den) * linear_map(a.m11, a.m21)).eval(q))
        yield (regular_apply(a, q) - star).norm()


# ---------------------------------------------------------------------------
# Registry and runner.

CHECKS: tuple[CheckDef, ...] = (
    CheckDef("sp11-closure", "decompose", check_sp11_closure, 100, 1e-10),
    CheckDef("algebra-brackets", "decompose", check_algebra_brackets, 100, 1e-12),
    CheckDef("exp-closed-form", "decompose", check_exp_closed_form, 200, 1e-12),
    CheckDef("exp-m-inverse", "decompose", check_exp_m_inverse, 100, 1e-12),
    CheckDef("exp-psi-oracle", "decompose", check_exp_psi_oracle, 100, 1e-10),
    CheckDef("psi-homomorphism", "decompose", check_psi_homomorphism, 100, 1e-12),
    CheckDef("hat-membership", "decompose", check_hat_membership, 100, 1e-10),
    CheckDef("sigma-automorphism", "decompose", check_sigma_automorphism, 100, 1e-12),
    CheckDef("symm-roundtrip", "decompose", check_symm_roundtrip, 500, 1e-9),
    CheckDef("slice-roundtrip", "decompose", check_slice_roundtrip, 500, 1e-9),
    CheckDef("quotient-consistency", "decompose", check_quotient_consistency, 100, 1e-12),

    CheckDef("quat-identities", "mobius", check_quat_identities, 200, 1e-12),
    CheckDef("star-symmetrize-real", "mobius", check_star_symmetrize_real, 100, 1e-14),
    CheckDef("star-conj-antihom", "mobius", check_star_conj_antihom, 100, 1e-14),
    CheckDef("star-real-commute", "mobius", check_star_real_commute, 100, 1e-13),
    CheckDef("root-finder-residual", "mobius", check_root_finder_residual, 500, 1e-10),
    CheckDef("root-finder-includes-factor", "mobius", check_root_finder_includes_factor,
              200, 1e-9),
    CheckDef("root-finder-newton", "mobius", check_root_finder_newton, 200, 1e-8),
    CheckDef("regularity-polynomial", "mobius", check_regularity_polynomial, 50, 1e-6),
    CheckDef("mobius-antihom", "mobius", check_mobius_antihom, 100, 1e-10),
    CheckDef("mobius-inverse-map", "mobius", check_mobius_inverse_map, 100, 1e-10),
    CheckDef("coincidence-real", "mobius", check_coincidence_real, 100, 1e-10),
    CheckDef("noncoincidence-nonreal", "mobius", check_noncoincidence_nonreal, 20, 1e-3, ">="),
    CheckDef("quotient-well-defined", "mobius", check_quotient_well_defined, 200, 1e-9),
    CheckDef("equivariance-left", "mobius", check_equivariance_left, 200, 1e-9),
    CheckDef("equivariance-right", "mobius", check_equivariance_right, 200, 1e-9),

    CheckDef("poincare-invariance", "metrics", check_poincare_invariance, 100, 1e-5),
    CheckDef("geodesic-reversal", "metrics", check_geodesic_reversal, 100, 1e-14),
    CheckDef("slice-conjugation-invariance", "metrics", check_slice_conjugation_invariance,
              100, 1e-5),
    CheckDef("slice-hyperbolicity", "metrics", check_slice_hyperbolicity, 200, 1e-12),
    CheckDef("metrics-differ-example", "metrics", check_metrics_differ_example, 1, 1e-12),
    CheckDef("regular-map-zero", "metrics", check_regular_map_zero, 100, 1e-9),
    CheckDef("regular-pullback", "metrics", check_regular_pullback, 100, 1e-5),
    CheckDef("slice-positive-definite", "metrics", check_slice_positive_definite,
              1000, 1e-12, ">="),
    CheckDef("hermitian-symmetry", "metrics", check_hermitian_symmetry, 200, 1e-12),

    CheckDef("iso-isometry", "isometry", check_iso_isometry, 200, 1e-5),
    CheckDef("iso-orientation", "isometry", check_iso_orientation, 100, 0.0),
    CheckDef("iso-ineffective-kernel", "isometry", check_iso_ineffective_kernel, 100, 1e-14),
    CheckDef("iso-star-axiom", "isometry", check_iso_star_axiom, 200, 1e-12),
    CheckDef("iso-from-translations", "isometry", check_iso_from_translations, 100, 1e-9),
    CheckDef("centralizer-members", "isometry", check_centralizer_members, 60, 0.0),
    CheckDef("centralizer-outsiders", "isometry", check_centralizer_outsiders, 60, 0.0),

    CheckDef("orbit-real-axis", "orbits", check_orbit_real_axis, 100, 0.0),
    CheckDef("orbit-invariance", "orbits", check_orbit_invariance, 100, 1e-9),
    CheckDef("orbit-grid-oracle", "orbits", check_orbit_grid_oracle, 10, 1e-6),
    CheckDef("orbit-axis-example", "orbits", check_orbit_axis_example, 50, 1e-12),
    # Appended last so that every earlier check keeps its (seed, index) stream.
    CheckDef("quotient-root-oracle", "mobius", check_quotient_root_oracle, 200, 1e-9),
    CheckDef("regular-star-oracle", "mobius", check_regular_star_oracle, 200, 1e-12),
)

CHECK_NAMES = tuple(c.name for c in CHECKS)


def _require_trials(n: int) -> None:
    if n < 1:
        raise ValueError(f"a check needs at least 1 trial, got {n}")


def run_check(check: CheckDef, seed: int, index: int, trials: int | None = None) -> CheckResult:
    n = check.trials if trials is None else trials
    _require_trials(n)
    rng = np.random.default_rng([seed, index])
    error = None
    start = time.process_time()  # CPU time of the process that runs the check
    try:
        value = _worst(check.fn(rng, n), check.op)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        value, error = math.nan, f"{type(exc).__name__}: {exc}"
    seconds = time.process_time() - start
    if math.isnan(value):  # report the infinity that fails the comparison
        value = math.inf if check.op == "<=" else -math.inf
    passed = (value <= check.tol) if check.op == "<=" else (value >= check.tol)
    return CheckResult(check.name, check.suite, float(value), check.tol, check.op, passed, n,
                       seconds, error)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_job(job: tuple[int, int, int | None]) -> CheckResult:
    """Run the check at a registry index; a job is `(index, seed, trials)`.
    A forked worker looks the check up in the registry it inherited."""
    index, seed, trials = job
    return run_check(CHECKS[index], seed, index, trials)


def run_checks(suite: str = "all", seed: int = 1, trials: int | None = None) -> list[CheckResult]:
    """Run the selected suite; the per-check generator depends only on the master
    seed and the check's registry position, so reports are reproducible.

    The checks run in a pool of `fork` workers, one per usable CPU up to one per
    check, and come back in registry order.  With one usable CPU, or where
    `fork` is missing, they run one after another in this process.  Arguments
    are validated before any worker starts.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if seed < 0:  # numpy would reject it only inside the workers
        raise ValueError(f"seed must be non-negative, got {seed}")
    if trials is not None:
        _require_trials(trials)
    jobs = [(index, seed, trials)
            for index, check in enumerate(CHECKS) if suite in ("all", check.suite)]
    import multiprocessing  # only the suite runner needs it
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(_run_job, jobs))
    # fork, not spawn: a spawned worker would import numpy again, and the
    # workers must see the registry and module state of this process
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(_run_job, jobs, chunksize=1)

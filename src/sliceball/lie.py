"""Global decompositions of the group, the slice-metric isometry group with its
semidirect composition law, centralizer predicates, and the orbit invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .hmat import QMat2, column_scaled_norm, diag, ensure_sp11, exp_m, identity, scalar
from .quat import (BALL_MARGIN, I, ONE, Quaternion, as_quat, quat_to_list, sgn,
                   slice_split)

# Recomposition tolerance for both factorizations, relative to A's column scales.
DECOMP_TOL = 1e-9
# Commutation tolerance defining the centralizer predicates.
CENTRALIZER_TOL = 1e-12


@dataclass(frozen=True)
class SymmFactorization:
    """A = diag(u, v) exp(X) with X the off-diagonal element of direction x."""

    u: Quaternion
    v: Quaternion
    x: Quaternion


@dataclass(frozen=True)
class SliceFactorization:
    """A = diag(u, 1) exp(X) (v I2) with X the off-diagonal element of direction x."""

    u: Quaternion
    x: Quaternion
    v: Quaternion


def symm_compose(f: SymmFactorization) -> QMat2:
    return diag(f.u, f.v) @ exp_m(f.x)


def slice_compose(f: SliceFactorization) -> QMat2:
    return diag(f.u, ONE) @ exp_m(f.x) @ scalar(f.v)


def _ensure_recomposes(recomposed: QMat2, a: QMat2, tol: float) -> None:
    """Consistency gate shared by both factorizations, scaled by A's columns
    like the group gate in front of them."""
    off = column_scaled_norm(recomposed - a, a)
    if not off <= tol:
        raise ConsistencyError(
            f"factors recompose to within a column-scaled {off!r} of the input (> {tol!r})")


def symm_decompose(a: QMat2, tol: float = DECOMP_TOL) -> SymmFactorization:
    """Invert the diffeomorphism (u, v, X) -> diag(u, v) exp(X).

    A = [[cosh(r) u, sinh(r) u conj(w)], [sinh(r) v w, cosh(r) v]] gives, in closed
    form, u = sgn(m11), v = sgn(m22) and X = r sgn(m22^-1 m21) with r = asinh|m21|.
    """
    ensure_sp11(a)
    x = sgn(a.m22.inverse() * a.m21) * math.asinh(a.m21.norm())
    fact = SymmFactorization(sgn(a.m11), sgn(a.m22), x)
    _ensure_recomposes(symm_compose(fact), a, tol)
    return fact


def slice_decompose(a: QMat2, tol: float = DECOMP_TOL) -> SliceFactorization:
    """Invert the diffeomorphism (u, X, v) -> diag(u, 1) exp(X) (v I2).

    A = [[cosh(r) u v, sinh(r) u conj(w) v], [sinh(r) w v, cosh(r) v]] gives, in
    closed form, u = m11 m22^-1, v = sgn(m22) and X = r sgn(m21 m22^-1) with
    r = asinh|m21|; m21 m22^-1 = tanh(r) w is the quotient point.
    """
    ensure_sp11(a)
    m22_inv = a.m22.inverse()
    x = sgn(a.m21 * m22_inv) * math.asinh(a.m21.norm())
    fact = SliceFactorization(a.m11 * m22_inv, x, sgn(a.m22))
    _ensure_recomposes(slice_compose(fact), a, tol)
    return fact


# ---------------------------------------------------------------------------
# The slice-metric isometry group: tuples (u, eps1, t, eps2) acting by
#   q -> eps1 u (1 + tanh(t) q)^-1 (q + tanh(t)) conj(u)
# with q replaced by conj(q) first when eps2 = -1.

@dataclass(frozen=True)
class IsoGElement:
    u: Quaternion
    eps1: int = 1
    t: float = 0.0
    eps2: int = 1

    def __post_init__(self):
        if self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise DomainError("eps1 and eps2 must be +1 or -1")


ISO_IDENTITY = IsoGElement(ONE, 1, 0.0, 1)


def iso_g_act(e: IsoGElement, q: Quaternion) -> Quaternion:
    q = as_quat(q)
    if q.norm() >= 1.0:
        raise DomainError(f"isometries act on the open ball, |q| = {q.norm()!r}")
    if e.eps2 == -1:
        q = q.conj()
    tt = math.tanh(e.t)
    core = (ONE + q * tt).inverse() * (q + tt)
    return (e.u * core * e.u.conj()) * float(e.eps1)


def iso_g_mul(e1: IsoGElement, e2: IsoGElement) -> IsoGElement:
    """Group law: Sp(1) and the final sign multiply componentwise; the middle
    pair composes semidirectly as (eps1, t1) (eps2, t2) = (eps1 eps2, eps2 t1 + t2).

    Orientation: acting by the product equals acting by e1 after e2, i.e. the
    tuples form a left action (verified numerically in the test suite).
    """
    return IsoGElement(e1.u * e2.u, e1.eps1 * e2.eps1,
                       e2.eps1 * e1.t + e2.t, e1.eps2 * e2.eps2)


def iso_g_inverse(e: IsoGElement) -> IsoGElement:
    return IsoGElement(e.u.conj(), e.eps1, -e.eps1 * e.t, e.eps2)


# ---------------------------------------------------------------------------
# Centralizer predicates, by commutation against a generating probe set.

_PROBES = {
    "sp1x1": lambda: [diag(I, ONE), diag(Quaternion(0, 0, 1, 0), ONE)],
    "sp1I2": lambda: [scalar(I), scalar(Quaternion(0, 0, 1, 0))],
}
_PROBES["sp1xsp1"] = lambda: _PROBES["sp1x1"]() + _PROBES["sp1I2"]()

CENTRALIZER_SUBGROUPS = tuple(sorted(_PROBES))


def centralizer_residual(a: QMat2, subgroup: str) -> float:
    if subgroup not in _PROBES:
        raise DomainError(f"unknown subgroup {subgroup!r}; expected one of {CENTRALIZER_SUBGROUPS}")
    return max(((a @ p) - (p @ a)).max_norm() for p in _PROBES[subgroup]())


def centralizer_check(a: QMat2, subgroup: str,
                      tol: float = CENTRALIZER_TOL) -> tuple[bool, float]:
    r = centralizer_residual(a, subgroup)
    return r <= tol, r


# Closed-form membership predicates matching the centralizer computations.

def is_sign_times_unit_diag(a: QMat2, tol: float = 1e-9) -> bool:
    """diag(eps, u) with eps = +-1 and u a unit quaternion."""
    if a.m12.norm() > tol or a.m21.norm() > tol:
        return False
    if a.m11.im_norm() > tol or abs(abs(a.m11.w) - 1.0) > tol:
        return False
    return abs(a.m22.norm() - 1.0) <= tol


def is_real_matrix(a: QMat2, tol: float = 1e-9) -> bool:
    return all(m.im_norm() <= tol for m in a.entries())


def is_plus_minus_identity(a: QMat2, tol: float = 1e-9) -> bool:
    return min((a - identity()).max_norm(), (a + identity()).max_norm()) <= tol


# ---------------------------------------------------------------------------
# Orbit classification: every ball point lies on a unique isometry orbit, indexed
# by the y >= 0 at which the orbit crosses the imaginary axis (0 on the real axis).

def orbit_invariant(q: Quaternion) -> float:
    """The crossing height y of q's orbit, computed in q's slice.

    The hyperbolic translations move x + y0*i along tau^2 x + tau (1+x^2+y0^2) + x = 0;
    the root tau in (-1, 1) carries the point onto the imaginary axis.
    """
    q = as_quat(q)
    if q.norm() >= 1.0 - BALL_MARGIN:
        raise DomainError(f"orbit invariant needs an interior point, |q| = {q.norm()!r}")
    x, y0, _ = slice_split(q)
    if y0 == 0.0:
        return 0.0
    if x == 0.0:
        return y0
    b = 1.0 + x * x + y0 * y0
    # Product of the two real roots is 1; the stable small root lies in (-1, 1).
    big = -(b + math.sqrt(b * b - 4.0 * x * x)) / 2.0
    tau = x / big
    num = y0 * (1.0 - tau * tau)
    den = (1.0 + tau * x) ** 2 + (tau * y0) ** 2
    return num / den


# ---------------------------------------------------------------------------
# JSON wire format for factorizations.

def fact_to_dict(f) -> dict:
    if isinstance(f, SymmFactorization):
        return {"u": quat_to_list(f.u), "v": quat_to_list(f.v), "X": quat_to_list(f.x)}
    if isinstance(f, SliceFactorization):
        return {"u": quat_to_list(f.u), "v": quat_to_list(f.v), "X": quat_to_list(f.x)}
    raise TypeError(f"not a factorization: {f!r}")

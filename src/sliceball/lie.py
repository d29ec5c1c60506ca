"""Global decompositions of the group, the slice-metric isometry group with its
semidirect composition law, centralizer predicates, the coset classification of
real group elements, and the orbit invariant.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import CENTRALIZER_SUBGROUPS
from .errors import ConsistencyError, DomainError
from .hmat import QMat2, column_scaled_norm, diag, ensure_sp11, exp_m, nan_max
from .quat import I, J, ONE, Quaternion, ensure_in_ball, ensure_unit, sgn, slice_split

# Recomposition tolerance for both factorizations, relative to A's column scales.
DECOMP_TOL = 1e-9
# Commutation tolerance defining the centralizer predicates.
CENTRALIZER_TOL = 1e-12


# Records are named tuples: immutable and compared by value, and importing
# collections costs a CLI command nothing, unlike dataclasses.

class SymmFactorization(namedtuple("SymmFactorization", "u v x")):
    """A = diag(u, v) exp(X) with X the off-diagonal element of direction x."""

    __slots__ = ()


class SliceFactorization(namedtuple("SliceFactorization", "u x v")):
    """A = diag(u, 1) exp(X) (v I2) with X the off-diagonal element of direction x."""

    __slots__ = ()


# Both products, from the entries [[c, e12], [e21, c]] of exp_m(x), equal the matrix
# products entry by entry; those add 0 * e terms, which can flip the sign of a zero.

def symm_compose(f: SymmFactorization) -> QMat2:
    """diag(u, v) exp(X) = [[c u, u e12], [v e21, c v]]."""
    e = exp_m(f.x)
    c = e.m11.w
    return QMat2(c * f.u, f.u * e.m12, f.v * e.m21, c * f.v)


def slice_compose(f: SliceFactorization) -> QMat2:
    """diag(u, 1) exp(X) (v I2) = [[(c u) v, (u e12) v], [e21 v, c v]]."""
    e = exp_m(f.x)
    c, v = e.m11.w, f.v
    return QMat2((c * f.u) * v, (f.u * e.m12) * v, e.m21 * v, c * v)


def _ensure_recomposes(recomposed: QMat2, a: QMat2) -> None:
    """Consistency gate shared by both factorizations, scaled by A's columns
    like the group gate in front of them."""
    off = column_scaled_norm(recomposed - a, a)
    if not off <= DECOMP_TOL:
        raise ConsistencyError(
            f"factors recompose to within a column-scaled {off!r} of the input "
            f"(> {DECOMP_TOL!r})")


def symm_decompose(a: QMat2) -> SymmFactorization:
    """Invert the diffeomorphism (u, v, X) -> diag(u, v) exp(X).

    A = [[cosh(r) u, sinh(r) u conj(w)], [sinh(r) v w, cosh(r) v]] gives, in closed
    form, u = sgn(m11), v = sgn(m22) and X = r sgn(m22^-1 m21) with r = asinh|m21|.
    """
    ensure_sp11(a)
    x = sgn(a.m22.inverse() * a.m21) * math.asinh(a.m21.norm())
    fact = SymmFactorization(sgn(a.m11), sgn(a.m22), x)
    _ensure_recomposes(symm_compose(fact), a)
    return fact


def slice_decompose(a: QMat2) -> SliceFactorization:
    """Invert the diffeomorphism (u, X, v) -> diag(u, 1) exp(X) (v I2).

    A = [[cosh(r) u v, sinh(r) u conj(w) v], [sinh(r) w v, cosh(r) v]] gives, in
    closed form, u = m11 m22^-1, v = sgn(m22) and X = r sgn(m21 m22^-1) with
    r = asinh|m21|; m21 m22^-1 = tanh(r) w is the quotient point.
    """
    ensure_sp11(a)
    m22_inv = a.m22.inverse()
    x = sgn(a.m21 * m22_inv) * math.asinh(a.m21.norm())
    fact = SliceFactorization(a.m11 * m22_inv, x, sgn(a.m22))
    _ensure_recomposes(slice_compose(fact), a)
    return fact


# ---------------------------------------------------------------------------
# The slice-metric isometry group: tuples (u, eps1, t, eps2), acting by iso_g_act.

class IsoGElement(namedtuple("IsoGElement", "u eps1 t eps2")):
    __slots__ = ()

    def __new__(cls, u: Quaternion, eps1: int = 1, t: float = 0.0, eps2: int = 1):
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise DomainError("eps1 and eps2 must be +1 or -1")
        ensure_unit(u, "an isometry needs a unit quaternion u")
        if not math.isfinite(t):
            raise DomainError(f"an isometry needs a finite t, got {t!r}")
        return super().__new__(cls, u, eps1, t, eps2)


ISO_IDENTITY = IsoGElement(ONE, 1, 0.0, 1)


def iso_g_act(e: IsoGElement, q: Quaternion) -> Quaternion:
    """q -> eps1 u (1 + tanh(t) q)^-1 (q + tanh(t)) conj(u), with q replaced by conj(q)
    first when eps2 = -1. DomainError for q off the open ball, and once |tanh(t)|
    rounds to 1 (|t| past about 19.06), where every point would map onto the sphere."""
    ensure_in_ball(q, "isometries act on the open ball")
    tt = math.tanh(e.t)
    if abs(tt) == 1.0:
        raise DomainError(f"an isometry acts only while |tanh(t)| rounds below 1, got t = {e.t!r}")
    if e.eps2 == -1:
        q = q.conj()
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

# Built once; like ISO_IDENTITY the probes are values and are never mutated.
_PROBES = {"sp1x1": (diag(I, ONE), diag(J, ONE)), "sp1I2": (diag(I, I), diag(J, J))}
_PROBES["sp1xsp1"] = _PROBES["sp1x1"] + _PROBES["sp1I2"]


def centralizer_check(a: QMat2, subgroup: str) -> tuple[bool, float]:
    if subgroup not in _PROBES:
        raise DomainError(f"unknown subgroup {subgroup!r}; expected one of {CENTRALIZER_SUBGROUPS}")
    r = nan_max([((a @ p) - (p @ a)).max_norm() for p in _PROBES[subgroup]])
    return r <= CENTRALIZER_TOL, r


class O11Parts(namedtuple("O11Parts", "eps reflected t")):
    """A = eps * H(t), times diag(1, -1) on the right when reflected."""

    __slots__ = ()


def o11_classify(a: QMat2) -> O11Parts:
    """Factor a real group matrix as eps * H(t) * r with r in {identity, diag(1,-1)};
    the real matrices are the centralizer of Sp(1) I2, so "sp1I2" decides realness."""
    if not centralizer_check(a, "sp1I2")[0]:
        raise DomainError("matrix has non-real entries")
    ensure_sp11(a)
    a11, _, a21, a22 = (m.w for m in a.entries())
    # eps * H(t) has a11 and a22 of one sign, and diag(1, -1) on the right flips
    # a22. Signs and asinh stay exact at any t, whereas det(A) and
    # atanh(a21 / a11) have lost every digit by t = 20.
    eps = 1 if a11 > 0.0 else -1
    reflected = (a22 > 0.0) != (a11 > 0.0)
    return O11Parts(eps, reflected, math.asinh(eps * a21))


# ---------------------------------------------------------------------------
# Orbit classification: every ball point lies on a unique isometry orbit, indexed
# by the y >= 0 at which the orbit crosses the imaginary axis (0 on the real axis):
# for q = x + y0*I and d = 1 - |q|^2, y = 2 y0 / (|1 - q^2| + d).

def orbit_invariant(q: Quaternion) -> float:
    """The root in [0, 1] of y0 y^2 + d y - y0, as |1 - q^2|^2 = d^2 + 4 y0^2, with d formed
    from (1 - x)(1 + x) for relative accuracy near the real axis, where y ~ y0/d. It is
    1.0 only where the rounded d is not positive, within a few ulps of the sphere."""
    ensure_in_ball(q, "orbit invariant needs an interior point")
    x, y0, _ = slice_split(q)  # rescaled: a tiny imaginary part does not underflow
    d = max(0.0, (1.0 - x) * (1.0 + x) - y0 * y0)
    return 2.0 * y0 / (math.hypot(d, 2.0 * y0) + d)

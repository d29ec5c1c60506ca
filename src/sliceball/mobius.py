"""Classical and regular Mobius transformations of the unit ball, the centering
matrices M(a), the maps f_au that are classical and regular at once, the
double-coset quotient map, and numerical differentials.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConsistencyError, DomainError
from .hmat import QMat2, diag, ensure_sp11
from .quat import ONE, Quaternion, _of_floats, ensure_in_ball

# Default central-difference step: balances O(h^2) truncation against cancellation.
FD_STEP = 1e-5


def classical_apply(a: QMat2, q: Quaternion) -> Quaternion:
    """The right action q -> (q m12 + m22)^-1 (q m11 + m21).

    Composition is an anti-homomorphism: applying A then B equals applying A @ B.
    """
    ensure_in_ball(q, "classical Mobius maps blow up outside the ball")
    den = q * a.m12 + a.m22
    if den.norm() == 0.0:
        raise ConsistencyError("denominator vanished inside the ball; matrix is not in the group")
    return den.inverse() * (q * a.m11 + a.m21)


def regular_apply(a: QMat2, q: Quaternion) -> Quaternion:
    """The regular Mobius transformation f^-* * g at q, for the denominator line
    f(q) = q m12 + m22 and the numerator line g(q) = q m11 + m21.

    The star-inverse is (f^s)^-1 f^c, so the map is f^s(q)^-1 (f^c * g)(q) with
    f^s = f * f^c = q^2 m12 conj(m12) + q (m22 conj(m12) + m12 conj(m22)) + m22 conj(m22)
    and f^c * g = q^2 conj(m12) m11 + q (conj(m22) m11 + conj(m12) m21) + conj(m22) m21.
    Both are evaluated by Horner's rule in the order the star calculus uses, so
    the result rounds exactly as the star-product form that the
    regular-star-oracle check keeps.
    """
    ensure_in_ball(q, "regular Mobius maps are defined on the ball")
    m11, m12, m21, m22 = a.m11, a.m12, a.m21, a.m22
    c12, c22 = m12.conj(), m22.conj()
    dval = q * (q * (m12 * c12) + (m22 * c12 + m12 * c22)) + m22 * c22
    if dval.norm() <= 1e-12 * max(1.0, m22.norm(), m12.norm()) ** 2:
        raise ConsistencyError(
            "denominator symmetrization vanished inside the ball; entry convention or input broken")
    return dval.inverse() * (q * (q * (c12 * m11) + (c22 * m11 + c12 * m21)) + c22 * m21)


def mobius_M(a: Quaternion) -> QMat2:
    """M(a) = [[1, -conj(a)], [-a, 1]] / sqrt(1 - |a|^2); inverse is M(-a)."""
    ensure_in_ball(a, "M(a) needs a point of the open ball", name="a")
    s = 1.0 / math.sqrt(1.0 - a.norm_sq())
    return QMat2(ONE * s, a.conj() * -s, a * -s, ONE * s)


def f_au(a: float, u: Quaternion, q: Quaternion) -> Quaternion:
    """(1 - qa)^-1 (q - a) u for real a: the maps that are classical and regular at once."""
    a = float(a)
    ensure_in_ball(Quaternion(a), "f_au needs a real parameter in the open ball", name="a")
    return (ONE - q * a).inverse() * (q - a) * u


def f_au_matrix(a: float, u: Quaternion) -> QMat2:
    """The group matrix whose classical action is f_au: M(a) followed by right multiplication by u."""
    return mobius_M(Quaternion(a)) @ diag(u, ONE)


def quotient_point(a: QMat2) -> Quaternion:
    """The double-coset invariant of a group matrix: the unique ball point sent
    to 0 by the regular transformation of the inverse matrix.

    Closed form m21 m22^-1: for A = diag(u, 1) exp(X) v this is tanh|X| sgn(X).
    """
    ensure_sp11(a)
    return a.m21 * a.m22.inverse()


def differential(fn: Callable[[Quaternion], Quaternion], q: Quaternion,
                 h: float = FD_STEP) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """Central-difference pushes of 1, i, j, k through a ball map at q: the four
    columns of its Jacobian in (w, x, y, z) coordinates, as quaternions."""
    coords = [q.w, q.x, q.y, q.z]
    if h <= 0.0 or any(c + h == c for c in coords):
        raise DomainError(f"finite-difference step {h!r} underflows at {q!r}")
    cols = []
    for col in range(4):
        plus, minus = list(coords), list(coords)
        plus[col] += h
        minus[col] -= h
        cols.append((fn(_of_floats(*plus)) - fn(_of_floats(*minus))) / (2.0 * h))
    return tuple(cols)

"""Classical and regular Mobius transformations of the unit ball, the special
matrices M(a), H(t), I(eps), the double-coset quotient map, numerical
differentials, and the coset classification of real group elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError
from .hmat import GROUP_TOL, QMat2, ensure_sp11, hyperbolic, i11, sp11_check
from .quat import ONE, Quaternion, as_quat
from .starpoly import linear_map, reg_conj, symmetrize

# Default central-difference step: balances O(h^2) truncation against cancellation.
FD_STEP = 1e-5


def classical_apply(a: QMat2, q: Quaternion) -> Quaternion:
    """The right action q -> (q m12 + m22)^-1 (q m11 + m21).

    Composition is an anti-homomorphism: applying A then B equals applying A @ B.
    """
    q = as_quat(q)
    if not q.norm() < 1.0:  # also rejects NaN
        raise DomainError(f"classical Mobius maps blow up outside the ball, |q| = {q.norm()!r}")
    den = q * a.m12 + a.m22
    if den.norm() == 0.0:
        raise ConsistencyError("denominator vanished inside the ball; matrix is not in the group")
    return den.inverse() * (q * a.m11 + a.m21)


def regular_apply(a: QMat2, q: Quaternion) -> Quaternion:
    """The regular Mobius transformation: star-inverse of the denominator line
    star-multiplied with the numerator line, evaluated at q."""
    q = as_quat(q)
    if not q.norm() < 1.0:  # also rejects NaN
        raise DomainError(f"regular Mobius maps are defined on the ball, |q| = {q.norm()!r}")
    den_line = linear_map(a.m12, a.m22)
    num = reg_conj(den_line) * linear_map(a.m11, a.m21)
    dval = symmetrize(den_line).eval(q)
    if dval.norm() <= 1e-12 * max(1.0, den_line.max_coeff_norm() ** 2):
        raise ConsistencyError(
            "denominator symmetrization vanished inside the ball; entry convention or input broken")
    return dval.inverse() * num.eval(q)


@dataclass(frozen=True)
class MobiusMap:
    """A Mobius transformation carried by a group matrix, in classical or regular flavor."""

    matrix: QMat2
    kind: str = "classical"  # "classical" | "regular"

    def __post_init__(self):
        if self.kind not in ("classical", "regular"):
            raise DomainError(f"kind must be 'classical' or 'regular', got {self.kind!r}")

    def __call__(self, q: Quaternion) -> Quaternion:
        if self.kind == "classical":
            return classical_apply(self.matrix, q)
        return regular_apply(self.matrix, q)


def mobius_M(a: Quaternion) -> QMat2:
    """M(a) = [[1, -conj(a)], [-a, 1]] / sqrt(1 - |a|^2); inverse is M(-a)."""
    a = as_quat(a)
    if not a.norm() < 1.0:  # also rejects NaN
        raise DomainError(f"M(a) needs |a| < 1, got {a.norm()!r}")
    s = 1.0 / math.sqrt(1.0 - a.norm_sq())
    return QMat2(ONE * s, a.conj() * -s, a * -s, ONE * s)


def f_au(a: float, u: Quaternion, q: Quaternion) -> Quaternion:
    """(1 - qa)^-1 (q - a) u for real a: the maps that are classical and regular at once."""
    a = float(a)
    if not -1.0 < a < 1.0:
        raise DomainError(f"parameter a must be real in (-1, 1), got {a!r}")
    q = as_quat(q)
    return (ONE - q * a).inverse() * (q - a) * u


def f_au_matrix(a: float, u: Quaternion) -> QMat2:
    """The group matrix whose classical action is f_au: M(a) followed by right multiplication by u."""
    return mobius_M(a) @ QMat2(u, 0.0, 0.0, 1.0)


def quotient_point(a: QMat2, tol: float = GROUP_TOL) -> Quaternion:
    """The double-coset invariant of a group matrix: the unique ball point sent
    to 0 by the regular transformation of the inverse matrix.

    Closed form m21 m22^-1: for A = diag(u, 1) exp(X) v this is tanh|X| sgn(X).
    """
    ensure_sp11(a, tol)
    return a.m21 * a.m22.inverse()


def differential(fn: Callable[[Quaternion], Quaternion], q: Quaternion,
                 h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a ball map in (w, x, y, z) coordinates."""
    q = as_quat(q)
    coords = [q.w, q.x, q.y, q.z]
    if h <= 0.0 or any(c + h == c for c in coords):
        raise DomainError(f"finite-difference step {h!r} underflows at {q!r}")
    jac = np.empty((4, 4))
    for col in range(4):
        plus = list(coords)
        minus = list(coords)
        plus[col] += h
        minus[col] -= h
        fp = fn(Quaternion(*plus))
        fm = fn(Quaternion(*minus))
        d = (fp - fm) / (2.0 * h)
        jac[:, col] = (d.w, d.x, d.y, d.z)
    return jac


def orientation_sign(fn: Callable[[Quaternion], Quaternion], q: Quaternion,
                     h: float = FD_STEP) -> float:
    """Sign of the Jacobian determinant at q."""
    return float(np.sign(np.linalg.det(differential(fn, q, h))))


class O11Parts(NamedTuple):
    eps: int
    reflected: bool  # True when the factorization ends in diag(1, -1)
    t: float


def o11_classify(a: QMat2, tol: float = GROUP_TOL) -> O11Parts:
    """Factor a real group matrix as eps * H(t) * r with r in {identity, diag(1,-1)}."""
    for m in a.entries():
        if m.im_norm() > 1e-12:
            raise DomainError("matrix has non-real entries")
    if not sp11_check(a, tol)[0]:
        raise DomainError("real matrix does not preserve the signature-(1,1) form")
    a11, _, a21, a22 = (m.w for m in a.entries())
    # eps * H(t) has a11 and a22 of one sign, and diag(1, -1) on the right flips
    # a22. Signs and asinh stay exact at any t, whereas det(A) and
    # atanh(a21 / a11) have lost every digit by t = 20.
    eps = 1 if a11 > 0.0 else -1
    reflected = (a22 > 0.0) != (a11 > 0.0)
    return O11Parts(eps, reflected, math.asinh(eps * a21))


def o11_compose(parts: O11Parts) -> QMat2:
    out = hyperbolic(parts.t) * float(parts.eps)
    if parts.reflected:
        out = out @ i11()
    return out

"""Quaternion arithmetic, slice coordinates, and the open-ball guard."""

from __future__ import annotations

import math
import sys

from .errors import DomainError

# Open-ball margin: ball points must satisfy |q| < 1 - BALL_MARGIN.  Guards
# atanh and (1 - |q|^2)^-2 evaluations near the boundary.
BALL_MARGIN = 1e-12


class Quaternion:
    """q = w + x*i + y*j + z*k with real coordinates. Values are treated as immutable."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __add__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            return _q(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            s = float(other)
            return _q(self.w + s, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            return _q(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            s = float(other)
            return _q(self.w - s, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return _q(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            return _q(
                pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw,
            )
        return self.__rmul__(other)

    def __rmul__(self, other) -> "Quaternion":
        # Real scalars commute with everything.
        if isinstance(other, (int, float)):
            s = float(other)
            return _q(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __truediv__(self, other) -> "Quaternion":
        # Quaternion/quaternion division is ambiguous (left vs right); use inverse().
        if isinstance(other, (int, float)):
            s = float(other)
            return _q(self.w / s, self.x / s, self.y / s, self.z / s)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return _q(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise DomainError("inverse of the zero quaternion")
        return _q(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def im(self) -> "Quaternion":
        return _q(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


_new = object.__new__


def _q(w: float, x: float, y: float, z: float) -> Quaternion:
    """Internal constructor for coordinates that are already Python floats, as
    every slot of a Quaternion is: it skips the float() coercion of __init__,
    which could not change them."""
    q = _new(Quaternion)
    q.w = w
    q.x = x
    q.y = y
    q.z = z
    return q


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def sgn(q: Quaternion) -> Quaternion:
    """q/|q|, with the zero quaternion mapped to zero."""
    n = q.norm()
    if n == 0.0:
        return ZERO
    return q / n


_SQRT_MIN = math.sqrt(sys.float_info.min)


def slice_split(q: Quaternion) -> tuple[float, float, Quaternion]:
    """Write q = x + y*I with y >= 0 and I a unit imaginary.

    Real quaternions get y = 0 and the canonical slice I = i.
    """
    y = q.im_norm()
    if y < _SQRT_MIN:  # the squares inside im_norm went subnormal or to zero
        scale = max(abs(q.x), abs(q.y), abs(q.z))
        if scale == 0.0:
            return q.w, 0.0, I
        u = Quaternion(0.0, q.x / scale, q.y / scale, q.z / scale)
        s = u.im_norm()
        return q.w, scale * s, Quaternion(0.0, u.x / s, u.y / s, u.z / s)
    return q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y)


def ensure_in_ball(q: Quaternion, what: str, bound: float = 1.0, name: str = "q") -> None:
    """Raise DomainError("<what>, |<name>| = <norm>") unless |q| < bound; a NaN
    point fails the comparison and is rejected too."""
    r = q.norm()
    if not r < bound:
        raise DomainError(f"{what}, |{name}| = {r!r}")


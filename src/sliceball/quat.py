"""Quaternion arithmetic, slice coordinates, and the open-ball guard."""

from __future__ import annotations

import math
import sys

from .errors import DomainError

UNIT_TOL = 1e-9  # how far | |u| - 1 | may stray for a unit quaternion u


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

    # Every operator allocates its result once, through object.__new__ and the
    # four slots: the coordinates are Python floats already, as every slot of a
    # Quaternion is, so the float() coercion of __init__ could not change them.

    def __add__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            r = _new(Quaternion)
            r.w = self.w + other.w
            r.x = self.x + other.x
            r.y = self.y + other.y
            r.z = self.z + other.z
            return r
        if isinstance(other, (int, float)):
            r = _new(Quaternion)
            r.w = self.w + float(other)
            r.x = self.x
            r.y = self.y
            r.z = self.z
            return r
        return NotImplemented

    def __sub__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            r = _new(Quaternion)
            r.w = self.w - other.w
            r.x = self.x - other.x
            r.y = self.y - other.y
            r.z = self.z - other.z
            return r
        if isinstance(other, (int, float)):
            r = _new(Quaternion)
            r.w = self.w - float(other)
            r.x = self.x
            r.y = self.y
            r.z = self.z
            return r
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        r = _new(Quaternion)
        r.w = -self.w
        r.x = -self.x
        r.y = -self.y
        r.z = -self.z
        return r

    def __mul__(self, other) -> "Quaternion":
        if type(other) is Quaternion:
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            r = _new(Quaternion)
            r.w = pw * qw - px * qx - py * qy - pz * qz
            r.x = pw * qx + px * qw + py * qz - pz * qy
            r.y = pw * qy - px * qz + py * qw + pz * qx
            r.z = pw * qz + px * qy - py * qx + pz * qw
            return r
        # Real scalars commute with everything.
        if isinstance(other, (int, float)):
            s = float(other)
            r = _new(Quaternion)
            r.w = self.w * s
            r.x = self.x * s
            r.y = self.y * s
            r.z = self.z * s
            return r
        return NotImplemented

    __rmul__ = __mul__  # s * q for a foreign s: only a real s is taken, and it commutes

    def __truediv__(self, other) -> "Quaternion":
        # Quaternion/quaternion division is ambiguous (left vs right); use inverse().
        if isinstance(other, (int, float)):
            s = float(other)
            r = _new(Quaternion)
            r.w = self.w / s
            r.x = self.x / s
            r.y = self.y / s
            r.z = self.z / s
            return r
        return NotImplemented

    def conj(self) -> "Quaternion":
        r = _new(Quaternion)
        r.w = self.w
        r.x = -self.x
        r.y = -self.y
        r.z = -self.z
        return r

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise DomainError("inverse of the zero quaternion")
        r = _new(Quaternion)
        r.w = self.w / n2
        r.x = -self.x / n2
        r.y = -self.y / n2
        r.z = -self.z / n2
        return r

    def im(self) -> "Quaternion":
        r = _new(Quaternion)
        r.w = 0.0
        r.x = self.x
        r.y = self.y
        r.z = self.z
        return r

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


_new = object.__new__


def _of_floats(w: float, x: float, y: float, z: float) -> Quaternion:
    """A Quaternion of four Python floats, stored without __init__'s float() calls."""
    r = _new(Quaternion)
    r.w, r.x, r.y, r.z = w, x, y, z
    return r


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


def _reject_entries(owner: str, slots, values) -> None:
    """Raise TypeError("<owner> <slot> must be a Quaternion, ...") for the first
    value that is not a Quaternion; the container constructors call it when
    their own type test fails."""
    for slot, value in zip(slots, values):
        if type(value) is not Quaternion:
            raise TypeError(f"{owner} {slot} must be a Quaternion, "
                            f"got {type(value).__name__} {value!r}")


def ensure_in_ball(q: Quaternion, what: str, name: str = "q") -> None:
    """Raise DomainError("<what>, |<name>| = <norm>") unless |q| < 1 (a NaN fails too)."""
    r = q.norm()
    if not r < 1.0:
        raise DomainError(f"{what}, |{name}| = {r!r}")


def ensure_unit(u: Quaternion, what: str) -> None:
    """Raise DomainError("<what>, |u| = <norm>") unless | |u| - 1 | <= UNIT_TOL."""
    r = u.norm()
    if not abs(r - 1.0) <= UNIT_TOL:
        raise DomainError(f"{what}, |u| = {r!r}")


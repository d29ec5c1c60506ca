"""Quaternion arithmetic, the unit sphere, imaginary units, slice coordinates, and seeded sampling."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Absolute tolerance for membership predicates (unit norm, vanishing real part).
MEMBER_TOL = 1e-12

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
        if isinstance(other, (int, float)):
            other = Quaternion(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __add__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        pw, px, py, pz = self.w, self.x, self.y, self.z
        qw, qx, qy, qz = other.w, other.x, other.y, other.z
        return Quaternion(
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        )

    def __rmul__(self, other) -> "Quaternion":
        # Real scalars commute with everything.
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other) -> "Quaternion":
        # Quaternion/quaternion division is ambiguous (left vs right); use inverse().
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other, self.y / other, self.z / other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __abs__(self) -> float:
        return self.norm()

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise DomainError("inverse of the zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.w, self.x, self.y, self.z)))


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def as_quat(v) -> Quaternion:
    """Coerce a real number into a quaternion; pass quaternions through."""
    if isinstance(v, Quaternion):
        return v
    return Quaternion(float(v))


def sgn(q: Quaternion) -> Quaternion:
    """q/|q|, with the zero quaternion mapped to zero."""
    n = q.norm()
    if n == 0.0:
        return ZERO
    return q / n


def slice_split(q: Quaternion) -> tuple[float, float, Quaternion]:
    """Write q = x + y*I with y >= 0 and I a unit imaginary.

    Real quaternions get y = 0 and the canonical slice I = i.
    """
    y = q.im_norm()
    if y == 0.0:
        return q.w, 0.0, I
    return q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y)


def qexp(q: Quaternion) -> Quaternion:
    """Quaternion exponential exp(w)*(cos|v| + sgn(v) sin|v|), v = Im(q)."""
    r = q.im_norm()
    s = math.exp(q.w)
    if r == 0.0:
        return Quaternion(s)
    f = s * math.sin(r) / r
    return Quaternion(s * math.cos(r), f * q.x, f * q.y, f * q.z)


def is_unit(q: Quaternion, tol: float = MEMBER_TOL) -> bool:
    return abs(q.norm() - 1.0) <= tol


def is_imaginary_unit(q: Quaternion, tol: float = MEMBER_TOL) -> bool:
    return abs(q.w) <= tol and abs(q.norm() - 1.0) <= tol


def in_ball(q: Quaternion, margin: float = BALL_MARGIN) -> bool:
    return q.norm() < 1.0 - margin


def normalized(q: Quaternion) -> Quaternion:
    n = q.norm()
    if n == 0.0:
        raise DomainError("cannot normalize the zero quaternion")
    return q / n


# ---------------------------------------------------------------------------
# JSON wire format: a quaternion is the array [w, x, y, z] of doubles.

def quat_to_list(q: Quaternion) -> list[float]:
    return [q.w, q.x, q.y, q.z]


def quat_from_list(data) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise ValueError(f"expected a [w, x, y, z] array, got {data!r}")
    return Quaternion(*(float(v) for v in data))


# ---------------------------------------------------------------------------
# Seeded sampling.  The generator is numpy's PCG64, which is stable across
# platforms for a fixed seed.

def make_rng(seed) -> np.random.Generator:
    """Accept an int seed (or seed sequence material) or pass a Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_sphere3(rng) -> Quaternion:
    """Uniform point on the unit 3-sphere of quaternions."""
    rng = make_rng(rng)
    v = rng.standard_normal(4)
    n = float(np.linalg.norm(v))
    while n < 1e-12:  # pragma: no cover - probability ~0
        v = rng.standard_normal(4)
        n = float(np.linalg.norm(v))
    return Quaternion(v[0] / n, v[1] / n, v[2] / n, v[3] / n)


def sample_imaginary_unit(rng) -> Quaternion:
    """Uniform point on the 2-sphere of imaginary units."""
    rng = make_rng(rng)
    v = rng.standard_normal(3)
    n = float(np.linalg.norm(v))
    while n < 1e-12:  # pragma: no cover
        v = rng.standard_normal(3)
        n = float(np.linalg.norm(v))
    return Quaternion(0.0, v[0] / n, v[1] / n, v[2] / n)


def sample_ball(rng, radius: float = 1.0) -> Quaternion:
    """Uniform point in the ball of the given radius (kept inside the open-ball margin)."""
    rng = make_rng(rng)
    u = sample_sphere3(rng)
    r = radius * (1.0 - 2.0 * BALL_MARGIN) * float(rng.random()) ** 0.25
    return u * r


def sample_real_interval(rng) -> Quaternion:
    """Uniform real quaternion in (-1, 1)."""
    rng = make_rng(rng)
    return Quaternion((1.0 - 2.0 * BALL_MARGIN) * (2.0 * float(rng.random()) - 1.0))

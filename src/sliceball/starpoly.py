"""Slice regular polynomial calculus: the star product, regular conjugate,
symmetrization and a bounded-degree root finder.

A polynomial is stored by its right coefficients: f(q) = sum_n q^n a_n.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError
from .hmat import QMat2, psi_embed
from .quat import ONE, ZERO, Quaternion, _of_floats, _reject_entries


_new = object.__new__


class StarPoly:
    """Polynomial sum_n q^n a_n with quaternion coefficients on the right, stored
    as given once trailing zeros are stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        if any(type(c) is not Quaternion for c in cs):
            _reject_entries("StarPoly", [f"coefficient {n}" for n in range(len(cs))], cs)
        while cs and cs[-1] == ZERO:
            cs.pop()
        self.coeffs = tuple(cs)

    def __repr__(self) -> str:
        return f"StarPoly({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Quaternion:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else ZERO

    def __mul__(self, other: "StarPoly") -> "StarPoly":
        """Star product: coefficient convolution, left factor's coefficients first."""
        if not isinstance(other, StarPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return StarPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return StarPoly(out)

    def eval(self, q: Quaternion) -> Quaternion:
        """Pointwise value of sum q^n a_n (Horner, powers multiply from the left).

        The accumulator lives in four floats, each step rounding as
        acc = q * acc + c does, and the value is allocated once.
        """
        qw, qx, qy, qz = q.w, q.x, q.y, q.z
        w = x = y = z = 0.0
        for c in reversed(self.coeffs):
            w, x, y, z = (qw * w - qx * x - qy * y - qz * z + c.w,
                          qw * x + qx * w + qy * z - qz * y + c.x,
                          qw * y - qx * z + qy * w + qz * x + c.y,
                          qw * z + qx * y - qy * x + qz * w + c.z)
        out = _new(Quaternion)
        out.w = w
        out.x = x
        out.y = y
        out.z = z
        return out


def reg_conj(f: StarPoly) -> StarPoly:
    """Regular conjugate: conjugate every coefficient."""
    return StarPoly([c.conj() for c in f.coeffs])


def symmetrize(f: StarPoly) -> StarPoly:
    """f star reg_conj(f); its coefficients are real up to roundoff."""
    return f * reg_conj(f)


def linear_map(a: Quaternion, b: Quaternion) -> StarPoly:
    """The degree-one map q -> q a + b."""
    return StarPoly([b, a])


# ---------------------------------------------------------------------------
# Root finding for degree <= 2 polynomials.

# Imaginary parts of the monic coefficients below this (relative) count as zero.
_SPHERE_TOL = 1e-7
# Zeros closer than this (relative to their norm) are one zero found more than once.
_MERGE_TOL = 1e-6


class RootReport(namedtuple("RootReport", "points spheres", defaults=((), ()))):
    """Zeros of a degree <= 2 polynomial: isolated points and whole spheres x + y*S,
    each sphere given as its pair (x, y)."""

    __slots__ = ()

    def points_in_ball(self) -> list[Quaternion]:
        return [p for p in self.points if p.norm() < 1.0]

    def spheres_in_ball(self) -> list[tuple[float, float]]:
        return [(x, y) for (x, y) in self.spheres if math.hypot(x, y) < 1.0]


def quadratic_root_in_ball(p: StarPoly) -> RootReport:
    """All zeros of a degree 1 or 2 polynomial q^2 a2 + q a1 + a0.

    Degree one has the single zero -a0 a1^-1.  In degree two, with the monic
    coefficients b = a1 a2^-1 and c = a0 a2^-1, the zeros fill the sphere
    x + y*S, x = -b/2, y = sqrt(c - b^2/4), exactly when b and c are real with
    b^2 < 4c.  Otherwise they are isolated, and x = conj(q) solves
    x^2 + B x + C = 0 with B = conj(a2)^-1 conj(a1), C = conj(a2)^-1 conj(a0).
    The companion L = [[0, 1], [-C, -B]] maps (1, x) to (1, x) x, so every
    right eigenvector v of L gives the zero conj(v2 v1^-1) (Serodio, Pereira and
    Vitoria, 2001).  The eigenvectors are read from the complex 4x4 embedding of
    L; copies of one zero are averaged, which also cancels the sqrt(eps)
    splitting of a double zero.
    """
    if p.is_zero() or p.degree not in (1, 2):
        raise DomainError(f"root finder needs degree 1 or 2, got degree {p.degree}")
    a0, a1, a2 = p.coeff(0), p.coeff(1), p.coeff(2)
    if p.degree == 1:
        return RootReport(points=(-(a0 * a1.inverse()),))

    inv = a2.inverse()
    b, c = a1 * inv, a0 * inv
    x = -0.5 * b.w
    h = c.w - x * x
    real_tol = _SPHERE_TOL * max(1.0, b.norm(), c.norm())
    # A sphere no wider than the merge tolerance is a double real zero.
    if (b.im_norm() <= real_tol and c.im_norm() <= real_tol
            and 4.0 * h > (_MERGE_TOL * (1.0 + abs(x))) ** 2):
        return RootReport(spheres=((x, math.sqrt(h)),))

    import numpy as np
    lead = inv.conj()  # conj(a2)^-1, bit for bit
    companion = QMat2(ZERO, ONE, -(lead * a0.conj()), -(lead * a1.conj()))
    clusters: list[list[Quaternion]] = []
    for t1, t2, s1, s2 in np.linalg.eig(psi_embed(companion))[1].T.tolist():
        # The complex 4-vector (t, s) is the quaternion vector t - conj(s) j.
        v1 = _of_floats(t1.real, t1.imag, -s1.real, s1.imag)
        v2 = _of_floats(t2.real, t2.imag, -s2.real, s2.imag)
        z = (v2 * v1.inverse()).conj()
        for cluster in clusters:
            if (z - cluster[0]).norm() <= _MERGE_TOL * (1.0 + z.norm()):
                cluster.append(z)
                break
        else:
            clusters.append([z])
    return RootReport(points=tuple(sum(cluster, ZERO) / len(cluster) for cluster in clusters))

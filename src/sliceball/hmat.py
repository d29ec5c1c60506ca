"""2x2 quaternionic matrices, the group preserving the signature-(1,1) form, its Lie
algebra with the diagonal/off-diagonal split, exponential maps, and the complex 4x4
embedding that the root finder and the verify oracles read.

Entry convention for the whole package: the matrix is [[m11, m12], [m21, m22]] and a
Mobius transformation reads its numerator column from (m11, m21) and its denominator
column from (m12, m22).
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .quat import ONE, ZERO, Quaternion, _of_floats, _reject_entries

# Residual thresholds: the group membership check is quadratic in the entries,
# the algebra check is exactly linear.
GROUP_TOL = 1e-10
ALGEBRA_TOL = 1e-12


class QMat2:
    """2x2 matrix with quaternion entries, stored as given."""

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: Quaternion, m12: Quaternion, m21: Quaternion, m22: Quaternion):
        if not (type(m11) is type(m12) is type(m21) is type(m22) is Quaternion):
            _reject_entries("QMat2 entry", ("m11", "m12", "m21", "m22"), (m11, m12, m21, m22))
        self.m11 = m11
        self.m12 = m12
        self.m21 = m21
        self.m22 = m22

    def __repr__(self) -> str:
        return f"QMat2({self.m11!r}, {self.m12!r}, {self.m21!r}, {self.m22!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat2):
            return NotImplemented
        return (self.m11, self.m12, self.m21, self.m22) == (
            other.m11, other.m12, other.m21, other.m22)

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return self.m11, self.m12, self.m21, self.m22

    # The operators below fill a QMat2 made with object.__new__: their entries
    # are Quaternions by construction, so the type test of __init__ is skipped.

    def __add__(self, other: "QMat2") -> "QMat2":
        r = _new(QMat2)
        r.m11 = self.m11 + other.m11
        r.m12 = self.m12 + other.m12
        r.m21 = self.m21 + other.m21
        r.m22 = self.m22 + other.m22
        return r

    def __sub__(self, other: "QMat2") -> "QMat2":
        r = _new(QMat2)
        r.m11 = self.m11 - other.m11
        r.m12 = self.m12 - other.m12
        r.m21 = self.m21 - other.m21
        r.m22 = self.m22 - other.m22
        return r

    def __mul__(self, scalar) -> "QMat2":
        if isinstance(scalar, (int, float)):
            r = _new(QMat2)
            r.m11 = self.m11 * scalar
            r.m12 = self.m12 * scalar
            r.m21 = self.m21 * scalar
            r.m22 = self.m22 * scalar
            return r
        return NotImplemented

    def __matmul__(self, other: "QMat2") -> "QMat2":
        a11, a12, a21, a22 = self.m11, self.m12, self.m21, self.m22
        b11, b12, b21, b22 = other.m11, other.m12, other.m21, other.m22
        r = _new(QMat2)
        r.m11 = _mul_add(a11, b11, a12, b21)
        r.m12 = _mul_add(a11, b12, a12, b22)
        r.m21 = _mul_add(a21, b11, a22, b21)
        r.m22 = _mul_add(a21, b12, a22, b22)
        return r

    def adjoint(self) -> "QMat2":
        """Conjugate transpose."""
        r = _new(QMat2)
        r.m11 = self.m11.conj()
        r.m12 = self.m21.conj()
        r.m21 = self.m12.conj()
        r.m22 = self.m22.conj()
        return r

    def max_norm(self) -> float:
        """The largest entry norm; NaN when an entry holds a NaN.

        sqrt is correctly rounded and monotone, so the root of the largest
        squared norm equals the largest norm bit for bit, at one root.
        """
        return math.sqrt(nan_max((self.m11.norm_sq(), self.m12.norm_sq(),
                                  self.m21.norm_sq(), self.m22.norm_sq())))


_new = object.__new__


def _mul_add(p: Quaternion, q: Quaternion, r: Quaternion, s: Quaternion) -> Quaternion:
    """p q + r s in one allocation.

    Each coordinate rounds as (p*q) + (r*s), with the operations and their order
    of the entrywise form p * q + r * s, so the result is the same bit for bit.
    """
    pw, px, py, pz = p.w, p.x, p.y, p.z
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    rw, rx, ry, rz = r.w, r.x, r.y, r.z
    sw, sx, sy, sz = s.w, s.x, s.y, s.z
    out = _new(Quaternion)
    out.w = (pw * qw - px * qx - py * qy - pz * qz) + (rw * sw - rx * sx - ry * sy - rz * sz)
    out.x = (pw * qx + px * qw + py * qz - pz * qy) + (rw * sx + rx * sw + ry * sz - rz * sy)
    out.y = (pw * qy - px * qz + py * qw + pz * qx) + (rw * sy - rx * sz + ry * sw + rz * sx)
    out.z = (pw * qz + px * qy - py * qx + pz * qw) + (rw * sz + rx * sy - ry * sx + rz * sw)
    return out


def nan_max(values) -> float:
    """max() of a sequence of values, NaN when any value is NaN or when there is none.

    The builtin max() keeps its first argument when a comparison with NaN is
    false, so it drops a NaN that is not first. One sum detects a NaN; it is NaN
    also where it meets both infinities, and so is the result, which
    verify.run_check fails as it would fail max()'s inf or min()'s -inf.
    """
    total = sum(values)
    return max(values) if total == total and values else math.nan


def diag(p: Quaternion, q: Quaternion) -> QMat2:
    return QMat2(p, ZERO, ZERO, q)


# Constant matrices are values and, like quat.ONE, are never mutated.
IDENTITY = diag(ONE, ONE)
# The indefinite form diag(1, -1); Quaternion(-1.0) rather than -ONE, whose
# imaginary parts are -0.0.
I11 = diag(ONE, Quaternion(-1.0))


def hyperbolic(t: float) -> QMat2:
    """H(t) = [[cosh t, sinh t], [sinh t, cosh t]] = exp_m(t), with exp_m's DomainError;
    below |t| = sqrt(min normal) ~ 1.5e-154 its sinh t is off by at most |t|."""
    return exp_m(Quaternion(t))


def i_eps(eps: int) -> QMat2:
    """diag(1, eps) for eps in {+1, -1}."""
    if eps not in (1, -1):
        raise DomainError(f"eps must be +1 or -1, got {eps!r}")
    return diag(ONE, Quaternion(eps))


# ---------------------------------------------------------------------------
# Group membership and inversion.

def _sp11_residuals(a: QMat2) -> tuple[float, float]:
    """(column_scaled_norm(P, A), P.max_norm()) of P = adjoint(A) sigma(A) - I in one pass.

    P_ij = conj(a_1i) s_1j + conj(a_2i) s_2j - delta_ij, s = sigma(A), on float locals with
    the quaternion operators' products and sums in their order; the negated factor of s
    moves out exactly, as (-x) y = -(x y), (-p) - (-q) = -(p - q) and p + (-q) = p - q up
    to the sign of a zero, which no norm reads. So both values are the matrix form's bit
    for bit, NaN canonicalised (sqrt is monotone, so the largest root is max_norm's).
    """
    aw, ax, ay, az = a.m11.w, a.m11.x, a.m11.y, a.m11.z  # A = [[a, c], [b, d]]
    bw, bx, by, bz = a.m21.w, a.m21.x, a.m21.y, a.m21.z
    cw, cx, cy, cz = a.m12.w, a.m12.x, a.m12.y, a.m12.z
    dw, dx, dy, dz = a.m22.w, a.m22.x, a.m22.y, a.m22.z
    na = aw * aw + ax * ax + ay * ay + az * az  # Quaternion.norm_sq
    nb = bw * bw + bx * bx + by * by + bz * bz
    nc = cw * cw + cx * cx + cy * cy + cz * cz
    nd = dw * dw + dx * dx + dy * dy + dz * dz
    w = (na - nb) - 1.0  # Re P_11 from the column scales' squared norms
    x = (aw * ax - ax * aw - ay * az + az * ay) - (bw * bx - bx * bw - by * bz + bz * by)
    y = (aw * ay + ax * az - ay * aw - az * ax) - (bw * by + bx * bz - by * bw - bz * bx)
    z = (aw * az - ax * ay + ay * ax - az * aw) - (bw * bz - bx * by + by * bx - bz * bw)
    n11 = math.sqrt(w * w + x * x + y * y + z * z)  # |P_11| = |conj(a) a - conj(b) b - 1|
    w = (bw * dw + bx * dx + by * dy + bz * dz) - (aw * cw + ax * cx + ay * cy + az * cz)
    x = (bw * dx - bx * dw - by * dz + bz * dy) - (aw * cx - ax * cw - ay * cz + az * cy)
    y = (bw * dy + bx * dz - by * dw - bz * dx) - (aw * cy + ax * cz - ay * cw - az * cx)
    z = (bw * dz - bx * dy + by * dx - bz * dw) - (aw * cz - ax * cy + ay * cx - az * cw)
    n12 = math.sqrt(w * w + x * x + y * y + z * z)  # |P_12| = |conj(b) d - conj(a) c|
    w = (cw * aw + cx * ax + cy * ay + cz * az) - (dw * bw + dx * bx + dy * by + dz * bz)
    x = (cw * ax - cx * aw - cy * az + cz * ay) - (dw * bx - dx * bw - dy * bz + dz * by)
    y = (cw * ay + cx * az - cy * aw - cz * ax) - (dw * by + dx * bz - dy * bw - dz * bx)
    z = (cw * az - cx * ay + cy * ax - cz * aw) - (dw * bz - dx * by + dy * bx - dz * bw)
    n21 = math.sqrt(w * w + x * x + y * y + z * z)  # |P_21| = |conj(c) a - conj(d) b|
    w = (nd - nc) - 1.0
    x = (dw * dx - dx * dw - dy * dz + dz * dy) - (cw * cx - cx * cw - cy * cz + cz * cy)
    y = (dw * dy + dx * dz - dy * dw - dz * dx) - (cw * cy + cx * cz - cy * cw - cz * cx)
    z = (dw * dz - dx * dy + dy * dx - dz * dw) - (cw * cz - cx * cy + cy * cx - cz * cw)
    n22 = math.sqrt(w * w + x * x + y * y + z * z)  # |P_22| = |conj(d) d - conj(c) c - 1|
    s1 = max(1.0, math.hypot(math.sqrt(na), math.sqrt(nb)))
    s2 = max(1.0, math.hypot(math.sqrt(nc), math.sqrt(nd)))
    return (nan_max((n11 / s1 / s1, n12 / s1 / s2, n21 / s2 / s1, n22 / s2 / s2)),
            nan_max((n11, n12, n21, n22)))


def sp11_check(a: QMat2) -> tuple[bool, float]:
    """Membership under the column-scaled rule of ensure_sp11, paired with the
    absolute residual: the max-norm of adjoint(A) sigma(A) - I."""
    scaled, absolute = _sp11_residuals(a)
    return scaled <= GROUP_TOL, absolute


def column_scaled_norm(d: QMat2, a: QMat2) -> float:
    """The largest |d_ij| / (s_i s_j), where s_i = max(1, |column i of A|).

    Entry (i, j) of adjoint(A) sigma(A) pairs columns i and j of A, so its
    roundoff is of order eps s_i s_j. Measured this way a member of any orbit
    distance keeps a defect near eps, while a huge column gives no slack to the
    entries of a tiny one. The group gate applies this rule in its fused pass,
    _sp11_residuals; the recomposition gate calls it. A NaN anywhere gives NaN.
    """
    n = [math.sqrt(e.w * e.w + e.x * e.x + e.y * e.y + e.z * e.z)  # Quaternion.norm
         for e in (a.m11, a.m21, a.m12, a.m22, d.m11, d.m12, d.m21, d.m22)]
    s1 = max(1.0, math.hypot(n[0], n[1]))
    s2 = max(1.0, math.hypot(n[2], n[3]))
    return nan_max((n[4] / s1 / s1, n[5] / s1 / s2, n[6] / s2 / s1, n[7] / s2 / s2))


def ensure_sp11(a: QMat2) -> QMat2:
    """Gate on group membership, relative to the scale of A's columns.

    The defect is quadratic in the entries, so roundoff in a member of orbit
    distance r grows like cosh(2r); entry (i, j) of the defect may reach
    GROUP_TOL * s_i * s_j (see column_scaled_norm). A NaN or an overflow fails;
    finite entries whose squared norm overflows (members from orbit distance
    acosh(sqrt(max double)) ~ 355.58 on) fail as undecidable in doubles.
    """
    r = _sp11_residuals(a)[0]
    if not r <= GROUP_TOL:
        if math.isinf(a.max_norm()) and all(
                math.isfinite(c) for e in a.entries() for c in (e.w, e.x, e.y, e.z)):
            big = max(math.hypot(e.w, e.x, e.y, e.z) for e in a.entries())
            raise DomainError(f"group membership cannot be decided in doubles: the largest "
                              f"entry norm {big!r} overflows when squared, as in members from "
                              f"orbit distance acosh(sqrt(max double)) = {_SQUARE_MAX_ARG!r} on")
        raise DomainError(
            f"matrix is not in the group (column-scaled residual {r!r} > {GROUP_TOL!r})")
    return a


def sp11_inverse(a: QMat2) -> QMat2:
    """Group inverse via the defining identity: A^-1 = sigma(adjoint(A))."""
    ensure_sp11(a)
    return sigma(a.adjoint())


def sigma(a: QMat2) -> QMat2:
    """The Cartan involution A -> K A K, K = diag(1,-1); negates the off-diagonal entries."""
    return QMat2(a.m11, -a.m12, -a.m21, a.m22)


# ---------------------------------------------------------------------------
# The Lie algebra: matrices X with adjoint(X) + sigma(X) = 0,
# i.e. X = [[p, conj(a)], [a, q]] with p, q imaginary.

class Sp11Algebra:
    """Tangent vector at the identity: imaginary diagonal (p, q) plus off-diagonal block a."""

    __slots__ = ("p", "q", "a")

    def __init__(self, p: Quaternion, q: Quaternion, a: Quaternion):
        if not (type(p) is type(q) is type(a) is Quaternion):
            _reject_entries("Sp11Algebra part", ("p", "q", "a"), (p, q, a))
        self.p = p
        self.q = q
        self.a = a
        # algebra_check's rule: 2 Re p, 2 Re q are the diagonal of adjoint(X) + sigma(X)
        if not (abs(2.0 * p.w) <= ALGEBRA_TOL and abs(2.0 * q.w) <= ALGEBRA_TOL):  # NaN fails
            raise DomainError("diagonal parts of an algebra element must be imaginary")

    def __repr__(self) -> str:
        return f"Sp11Algebra({self.p!r}, {self.q!r}, {self.a!r})"

    def as_matrix(self) -> QMat2:
        return QMat2(self.p, self.a.conj(), self.a, self.q)


def off_diag(a: Quaternion) -> Sp11Algebra:
    """The off-diagonal algebra element [[0, conj(a)], [a, 0]]."""
    return Sp11Algebra(ZERO, ZERO, a)


def algebra_check(x: QMat2) -> tuple[bool, float]:
    """Membership with its residual: the max-norm of adjoint(X) + sigma(X)."""
    r = (x.adjoint() + sigma(x)).max_norm()
    return r <= ALGEBRA_TOL, r


def lie_bracket(x: Sp11Algebra, y: Sp11Algebra) -> Sp11Algebra:
    """[X, Y] = XY - YX, projected back onto the algebra (roundoff only)."""
    m = x.as_matrix() @ y.as_matrix() - y.as_matrix() @ x.as_matrix()
    return Sp11Algebra(m.m11.im(), m.m22.im(), m.m21)


# ---------------------------------------------------------------------------
# Exponential maps.

def exp_m(q: Quaternion) -> QMat2:
    """Closed-form exponential of the off-diagonal element with block q.

    exp [[0, conj(q)], [q, 0]] = [[cosh r, sinh r conj(u)], [sinh r u, cosh r]]
    with r = |q| and u = sgn(q); DomainError unless r <= acosh(max double) ~ 710.476.
    """
    r = q.norm()
    if r == 0.0:
        return IDENTITY
    if not r <= _COSH_MAX_ARG:
        raise DomainError(f"exp_m needs |q| <= acosh(max double) = {_COSH_MAX_ARG!r}, got {r!r}")
    # sgn(q) * sinh r, and conj(sgn(q)) * sinh r with (-x) * s written -(x * s)
    s = math.sinh(r)
    sw, sx, sy, sz = q.w / r * s, q.x / r * s, q.y / r * s, q.z / r * s
    c = _of_floats(math.cosh(r), 0.0, 0.0, 0.0)
    return QMat2(c, _of_floats(sw, -sx, -sy, -sz), _of_floats(sw, sx, sy, sz), c)


_COSH_MAX_ARG = math.acosh(sys.float_info.max)  # exp_m's domain: cosh overflows past it
_SQUARE_MAX_ARG = math.acosh(math.sqrt(sys.float_info.max))  # where cosh(r)^2 overflows
_EXP_TERMS = 16
_EXP_SCALE_LIMIT = 0.5


def exp_general(x: Sp11Algebra) -> QMat2:
    """Matrix exponential by scaling and squaring with a truncated series.

    The argument is scaled until its max-norm is at most 0.5, the series is summed
    to 16 terms, and the result is squared back. DomainError reports a max-norm
    that is not finite (also when an entry's squared norm overflows) and a result
    with an entry that is not finite (an off-diagonal block past about 710).
    """
    m = x.as_matrix()
    n = m.max_norm()
    if not math.isfinite(n):
        raise DomainError(f"exp_general needs a finite max-norm, got {n!r}")
    squarings = 0
    if n > _EXP_SCALE_LIMIT:
        squarings = max(0, math.ceil(math.log2(n / _EXP_SCALE_LIMIT)))
        m = m * (0.5 ** squarings)
    total = term = IDENTITY
    for k in range(1, _EXP_TERMS + 1):
        term = (term @ m) * (1.0 / k)
        total = total + term
    for _ in range(squarings):
        total = total @ total
    if not all(math.isfinite(c) for e in total.entries() for c in (e.w, e.x, e.y, e.z)):
        raise DomainError(f"exp_general overflows: max-norm {n!r} gives a non-finite entry")
    return total


# ---------------------------------------------------------------------------
# Complex 4x4 embedding.  A quaternion w + xi + yj + zk splits as the complex
# pair (w + xi, y + zi); a quaternionic matrix Z + Wj embeds as the block
# matrix [[Z, W], [-conj(W), conj(Z)]].  The root finder reads eigenvectors
# from it, and verify keeps it as an independent oracle.

def psi_embed(a: QMat2) -> np.ndarray:
    import numpy as np
    z11, w11 = complex(a.m11.w, a.m11.x), complex(a.m11.y, a.m11.z)
    z12, w12 = complex(a.m12.w, a.m12.x), complex(a.m12.y, a.m12.z)
    z21, w21 = complex(a.m21.w, a.m21.x), complex(a.m21.y, a.m21.z)
    z22, w22 = complex(a.m22.w, a.m22.x), complex(a.m22.y, a.m22.z)
    return np.array([[z11, z12, w11, w12],
                     [z21, z22, w21, w22],
                     [-w11.conjugate(), -w12.conjugate(), z11.conjugate(), z12.conjugate()],
                     [-w21.conjugate(), -w22.conjugate(), z21.conjugate(), z22.conjugate()]],
                    dtype=complex)

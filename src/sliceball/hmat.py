"""2x2 quaternionic matrices, the group preserving the signature-(1,1) form, its Lie
algebra with the diagonal/off-diagonal split, exponential maps, and the complex 4x4
embedding used as an independent cross-check.

Entry convention for the whole package: the matrix is [[m11, m12], [m21, m22]] and a
Mobius transformation reads its numerator column from (m11, m21) and its denominator
column from (m12, m22).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quat import ONE, ZERO, Quaternion, as_quat, sgn

# Residual thresholds: the group membership check is quadratic in the entries,
# the algebra check is exactly linear.
GROUP_TOL = 1e-10
ALGEBRA_TOL = 1e-12


class QMat2:
    """2x2 matrix with quaternion entries."""

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11, m12, m21, m22):
        self.m11 = as_quat(m11)
        self.m12 = as_quat(m12)
        self.m21 = as_quat(m21)
        self.m22 = as_quat(m22)

    def __repr__(self) -> str:
        return f"QMat2({self.m11!r}, {self.m12!r}, {self.m21!r}, {self.m22!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat2):
            return NotImplemented
        return (self.m11, self.m12, self.m21, self.m22) == (
            other.m11, other.m12, other.m21, other.m22)

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return self.m11, self.m12, self.m21, self.m22

    def __add__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.m11 + other.m11, self.m12 + other.m12,
                     self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "QMat2") -> "QMat2":
        return QMat2(self.m11 - other.m11, self.m12 - other.m12,
                     self.m21 - other.m21, self.m22 - other.m22)

    def __neg__(self) -> "QMat2":
        return QMat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def __mul__(self, scalar) -> "QMat2":
        if isinstance(scalar, (int, float)):
            return QMat2(self.m11 * scalar, self.m12 * scalar,
                         self.m21 * scalar, self.m22 * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "QMat2") -> "QMat2":
        return QMat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def adjoint(self) -> "QMat2":
        """Conjugate transpose."""
        return QMat2(self.m11.conj(), self.m21.conj(), self.m12.conj(), self.m22.conj())

    def max_norm(self) -> float:
        return max(self.m11.norm(), self.m12.norm(), self.m21.norm(), self.m22.norm())

    def is_finite(self) -> bool:
        return all(m.is_finite() for m in self.entries())


def identity() -> QMat2:
    return QMat2(ONE, ZERO, ZERO, ONE)


def diag(p, q) -> QMat2:
    return QMat2(p, ZERO, ZERO, q)


def i11() -> QMat2:
    """The indefinite form diag(1, -1)."""
    return diag(1.0, -1.0)


def hyperbolic(t: float) -> QMat2:
    """H(t) = [[cosh t, sinh t], [sinh t, cosh t]], the hyperbolic rotations."""
    c, s = math.cosh(t), math.sinh(t)
    return QMat2(c, s, s, c)


def i_eps(eps: int) -> QMat2:
    """diag(1, eps) for eps in {+1, -1}."""
    if eps not in (1, -1):
        raise DomainError(f"eps must be +1 or -1, got {eps!r}")
    return diag(1.0, float(eps))


def scalar(v) -> QMat2:
    """v times the identity matrix."""
    v = as_quat(v)
    return QMat2(v, ZERO, ZERO, v)


# ---------------------------------------------------------------------------
# Group membership and inversion.

def _sp11_defect(a: QMat2) -> QMat2:
    """adjoint(A) @ diag(1,-1) @ A - diag(1,-1), zero exactly on the group.

    diag(1,-1) @ A is A with its second row negated, which is exact.
    """
    return a.adjoint() @ QMat2(a.m11, a.m12, -a.m21, -a.m22) - i11()


def sp11_residual(a: QMat2) -> float:
    """Max-norm of adjoint(A) @ diag(1,-1) @ A - diag(1,-1)."""
    return _sp11_defect(a).max_norm()


def sp11_check(a: QMat2, tol: float = GROUP_TOL) -> tuple[bool, float]:
    """Membership under the column-scaled rule of ensure_sp11, paired with the
    absolute residual sp11_residual(a)."""
    d = _sp11_defect(a)
    return column_scaled_norm(d, a) <= tol, d.max_norm()


def column_scaled_norm(d: QMat2, a: QMat2) -> float:
    """The largest |d_ij| / (s_i s_j), where s_i = max(1, |column i of A|).

    Entry (i, j) of adjoint(A) diag(1,-1) A pairs columns i and j of A, so its
    roundoff is of order eps s_i s_j. Measured this way a member of any orbit
    distance keeps a defect near eps, while a huge column gives no slack to the
    entries of a tiny one. Used by every gate that must scale with A; a NaN
    anywhere gives NaN.
    """
    s1 = max(1.0, math.hypot(a.m11.norm(), a.m21.norm()))
    s2 = max(1.0, math.hypot(a.m12.norm(), a.m22.norm()))
    ratios = (d.m11.norm() / s1 / s1, d.m12.norm() / s1 / s2,
              d.m21.norm() / s2 / s1, d.m22.norm() / s2 / s2)
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


def ensure_sp11(a: QMat2, tol: float = GROUP_TOL) -> QMat2:
    """Gate on group membership, relative to the scale of A's columns.

    The defect is quadratic in the entries, so roundoff in a member of orbit
    distance r grows like cosh(2r); entry (i, j) of the defect may reach
    tol * s_i * s_j (see column_scaled_norm). A NaN or an overflow fails.
    """
    r = column_scaled_norm(_sp11_defect(a), a)
    if not r <= tol:
        raise DomainError(f"matrix is not in the group (column-scaled residual {r!r} > {tol!r})")
    return a


def sp11_inverse(a: QMat2, tol: float = GROUP_TOL) -> QMat2:
    """Group inverse via the defining identity: A^-1 = diag(1,-1) adjoint(A) diag(1,-1)."""
    ensure_sp11(a, tol)
    k = i11()
    return k @ a.adjoint() @ k


def sigma(a: QMat2) -> QMat2:
    """The involution A -> diag(1,-1) A diag(1,-1); negates the off-diagonal entries."""
    return QMat2(a.m11, -a.m12, -a.m21, a.m22)


# ---------------------------------------------------------------------------
# The Lie algebra: matrices X with adjoint(X) diag(1,-1) + diag(1,-1) X = 0,
# i.e. X = [[p, conj(a)], [a, q]] with p, q imaginary.

class Sp11Algebra:
    """Tangent vector at the identity: imaginary diagonal (p, q) plus off-diagonal block a."""

    __slots__ = ("p", "q", "a")

    def __init__(self, p, q, a):
        self.p = as_quat(p)
        self.q = as_quat(q)
        self.a = as_quat(a)
        if abs(self.p.w) > ALGEBRA_TOL or abs(self.q.w) > ALGEBRA_TOL:
            raise DomainError("diagonal parts of an algebra element must be imaginary")

    def __repr__(self) -> str:
        return f"Sp11Algebra({self.p!r}, {self.q!r}, {self.a!r})"

    def as_matrix(self) -> QMat2:
        return QMat2(self.p, self.a.conj(), self.a, self.q)

    def __add__(self, other: "Sp11Algebra") -> "Sp11Algebra":
        return Sp11Algebra(self.p + other.p, self.q + other.q, self.a + other.a)

    def __sub__(self, other: "Sp11Algebra") -> "Sp11Algebra":
        return Sp11Algebra(self.p - other.p, self.q - other.q, self.a - other.a)

    def __neg__(self) -> "Sp11Algebra":
        return Sp11Algebra(-self.p, -self.q, -self.a)

    def __mul__(self, t) -> "Sp11Algebra":
        if isinstance(t, (int, float)):
            return Sp11Algebra(self.p * t, self.q * t, self.a * t)
        return NotImplemented

    __rmul__ = __mul__

    def max_norm(self) -> float:
        return self.as_matrix().max_norm()


def off_diag(a) -> Sp11Algebra:
    """The off-diagonal algebra element [[0, conj(a)], [a, 0]]."""
    return Sp11Algebra(ZERO, ZERO, a)


def diag_alg(p, q) -> Sp11Algebra:
    """The diagonal algebra element diag(p, q) with p, q imaginary."""
    return Sp11Algebra(p, q, ZERO)


def algebra_residual(x: QMat2) -> float:
    k = i11()
    return (x.adjoint() @ k + k @ x).max_norm()


def algebra_check(x: QMat2, tol: float = ALGEBRA_TOL) -> tuple[bool, float]:
    r = algebra_residual(x)
    return r <= tol, r


def cartan_split(x: Sp11Algebra) -> tuple[Sp11Algebra, Sp11Algebra]:
    """Exact split into the diagonal (isotropy) part and the off-diagonal part."""
    return diag_alg(x.p, x.q), off_diag(x.a)


def lie_bracket(x: Sp11Algebra, y: Sp11Algebra) -> Sp11Algebra:
    """[X, Y] = XY - YX, projected back onto the algebra (roundoff only)."""
    m = x.as_matrix() @ y.as_matrix() - y.as_matrix() @ x.as_matrix()
    return Sp11Algebra(m.m11.im(), m.m22.im(), m.m21)


# ---------------------------------------------------------------------------
# Exponential maps.

def exp_m(q: Quaternion, t: float = 1.0) -> QMat2:
    """Closed-form exponential of the off-diagonal element with block t*q.

    exp [[0, conj(tq)], [tq, 0]] = [[cosh r, sinh r conj(u)], [sinh r u, cosh r]]
    with r = |tq| and u = sgn(tq).
    """
    v = q * t
    r = v.norm()
    if r == 0.0:
        return identity()
    u = sgn(v)
    c, s = math.cosh(r), math.sinh(r)
    return QMat2(c, u.conj() * s, u * s, c)


_EXP_TERMS = 16
_EXP_SCALE_LIMIT = 0.5


def exp_general(x: Sp11Algebra) -> QMat2:
    """Matrix exponential by scaling and squaring with a truncated series.

    The argument is scaled until its max-norm is at most 0.5, the series is summed
    to 16 terms, and the result is squared back.
    """
    m = x.as_matrix()
    n = m.max_norm()
    squarings = 0
    if n > _EXP_SCALE_LIMIT:
        squarings = max(0, math.ceil(math.log2(n / _EXP_SCALE_LIMIT)))
        m = m * (0.5 ** squarings)
    total = identity()
    term = identity()
    for k in range(1, _EXP_TERMS + 1):
        term = (term @ m) * (1.0 / k)
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


# ---------------------------------------------------------------------------
# Complex 4x4 embedding.  A quaternion w + xi + yj + zk splits as the complex
# pair (w + xi, y + zi); a quaternionic matrix Z + Wj embeds as the block
# matrix [[Z, W], [-conj(W), conj(Z)]].

def quat_complex_pair(q: Quaternion) -> tuple[complex, complex]:
    return complex(q.w, q.x), complex(q.y, q.z)


def psi_embed(a: QMat2) -> np.ndarray:
    z = np.empty((2, 2), dtype=complex)
    w = np.empty((2, 2), dtype=complex)
    for (i, j), m in (((0, 0), a.m11), ((0, 1), a.m12), ((1, 0), a.m21), ((1, 1), a.m22)):
        z[i, j], w[i, j] = quat_complex_pair(m)
    out = np.empty((4, 4), dtype=complex)
    out[:2, :2] = z
    out[:2, 2:] = w
    out[2:, :2] = -w.conj()
    out[2:, 2:] = z.conj()
    return out


def j2() -> np.ndarray:
    """The image of j times the identity: [[0, I2], [-I2, 0]]."""
    return psi_embed(scalar(Quaternion(0.0, 0.0, 1.0, 0.0)))


def k11() -> np.ndarray:
    """The image of diag(1, -1): diag(1, -1, 1, -1)."""
    return psi_embed(i11())


def rho(m: np.ndarray) -> np.ndarray:
    """Conjugation by diag(1, i, 1, i), moving the embedded group onto its complex realization."""
    d = np.array([1.0, 1.0j, 1.0, 1.0j])
    return (m * d[:, None]) * (1.0 / d)[None, :]


def hat_sp11_residual(m: np.ndarray) -> float:
    k = k11()
    j = j2()
    r1 = np.abs(m.conj().T @ k @ m - k).max()
    r2 = np.abs(m.T @ j @ m - j).max()
    return float(max(r1, r2))


def hat_sp11_check(m: np.ndarray, tol: float = GROUP_TOL) -> tuple[bool, float]:
    r = hat_sp11_residual(m)
    return r <= tol, r


# ---------------------------------------------------------------------------
# JSON wire format.

def mat_to_list(a: QMat2) -> list:
    from .quat import quat_to_list
    return [[quat_to_list(a.m11), quat_to_list(a.m12)],
            [quat_to_list(a.m21), quat_to_list(a.m22)]]


def mat_from_list(data) -> QMat2:
    from .quat import quat_from_list
    if (not isinstance(data, (list, tuple)) or len(data) != 2
            or any(not isinstance(row, (list, tuple)) or len(row) != 2 for row in data)):
        raise ValueError(f"expected a 2x2 array of quaternions, got {data!r}")
    return QMat2(quat_from_list(data[0][0]), quat_from_list(data[0][1]),
                 quat_from_list(data[1][0]), quat_from_list(data[1][1]))

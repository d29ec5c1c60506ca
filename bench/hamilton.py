"""The benchmark's own quaternion arithmetic, kept apart from the program under test.

A quaternion is a numpy array whose last axis holds (w, x, y, z); a 2x2
quaternionic matrix is an array of shape (..., 2, 2, 4) in the program's entry
convention [[m11, m12], [m21, m22]].  Products come from the Hamilton table
alone, so inputs are built and outputs are judged without calling the program.
"""

from __future__ import annotations

import numpy as np

_BASIS = ("1", "i", "j", "k")
# Row times column, as Hamilton wrote it: i^2 = j^2 = k^2 = ijk = -1.
_TABLE = (("1", "i", "j", "k"),
          ("i", "-1", "k", "-j"),
          ("j", "-k", "-1", "i"),
          ("k", "j", "-i", "-1"))


def _structure_constants() -> np.ndarray:
    c = np.zeros((4, 4, 4))
    for a, row in enumerate(_TABLE):
        for b, entry in enumerate(row):
            sign = -1.0 if entry.startswith("-") else 1.0
            c[a, b, _BASIS.index(entry.lstrip("-"))] = sign
    return c


_C = _structure_constants()
ONE = np.array([1.0, 0.0, 0.0, 0.0])
I, J, K = np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]


def mul(p, q) -> np.ndarray:
    """Hamilton product p q, broadcast over leading axes."""
    return np.einsum("...a,...b,abc->...c", p, q, _C)


def conj(q) -> np.ndarray:
    return np.asarray(q) * np.array([1.0, -1.0, -1.0, -1.0])


def norm(q) -> np.ndarray:
    return np.sqrt(np.sum(np.square(q), axis=-1))


def inv(q) -> np.ndarray:
    q = np.asarray(q)
    return conj(q) / np.sum(np.square(q), axis=-1)[..., None]


def real(x) -> np.ndarray:
    """The real quaternion x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (4,))
    out[..., 0] = x
    return out


def sgn(q) -> np.ndarray:
    return np.asarray(q) / norm(q)[..., None]


# ---------------------------------------------------------------------------
# 2x2 matrices.

def mat(m11, m12, m21, m22) -> np.ndarray:
    b = np.broadcast_arrays(*(np.asarray(m, dtype=float) for m in (m11, m12, m21, m22)))
    return np.stack([np.stack([b[0], b[1]], axis=-2), np.stack([b[2], b[3]], axis=-2)], axis=-3)


def matmul(a, b) -> np.ndarray:
    return np.einsum("...ija,...jkb,abc->...ikc", a, b, _C)


def adjoint(a) -> np.ndarray:
    return conj(np.swapaxes(a, -3, -2))


def max_norm(a) -> np.ndarray:
    return norm(a).max(axis=(-2, -1))


def diag(p, q) -> np.ndarray:
    z = np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q)))
    return mat(p, z, z, q)


def scalar_right(a, v) -> np.ndarray:
    """a (v I2): every entry multiplied on the right by v."""
    return mul(a, np.asarray(v)[..., None, None, :])


def exp_off(x) -> np.ndarray:
    """exp [[0, conj(x)], [x, 0]] = [[cosh r, sinh r conj(s)], [sinh r s, cosh r]],
    r = |x|, s = x/r; the series of the block matrix sums to this because its
    square is r^2 times the identity."""
    r = norm(x)
    s = sgn(x)
    c = real(np.cosh(r))
    sh = np.sinh(r)[..., None]
    return mat(c, sh * conj(s), sh * s, c)


def sp11_residual(a) -> np.ndarray:
    """max-norm of adjoint(A) diag(1,-1) A - diag(1,-1)."""
    k = diag(ONE, -ONE)
    return max_norm(matmul(matmul(adjoint(a), k), a) - k)


def mobius_m(a) -> np.ndarray:
    """M(a) = [[1, -conj(a)], [-a, 1]] / sqrt(1 - |a|^2)."""
    s = 1.0 / np.sqrt(1.0 - np.sum(np.square(a), axis=-1))
    one = real(s)
    return mat(one, -s[..., None] * conj(a), -s[..., None] * np.asarray(a), one)


# ---------------------------------------------------------------------------
# Ball maps and metrics, written from their defining formulas.

def classical(a, q) -> np.ndarray:
    """(q m12 + m22)^-1 (q m11 + m21)."""
    m11, m12, m21, m22 = a[..., 0, 0, :], a[..., 0, 1, :], a[..., 1, 0, :], a[..., 1, 1, :]
    return mul(inv(mul(q, m12) + m22), mul(q, m11) + m21)


def regular(a, q) -> np.ndarray:
    """Regular Mobius map: with f(q) = q m12 + m22 and g(q) = q m11 + m21, the
    star product conj(f) * g has right coefficients (conj(m22) m21,
    conj(m12) m21 + conj(m22) m11, conj(m12) m11) and f * conj(f) has the real
    coefficients (|m22|^2, 2 Re(m12 conj(m22)), |m12|^2); the value at q is the
    latter's value inverted times the former's."""
    m11, m12, m21, m22 = a[..., 0, 0, :], a[..., 0, 1, :], a[..., 1, 0, :], a[..., 1, 1, :]
    c0 = mul(conj(m22), m21)
    c1 = mul(conj(m12), m21) + mul(conj(m22), m11)
    c2 = mul(conj(m12), m11)
    qq = mul(q, q)
    num = c0 + mul(q, c1) + mul(qq, c2)
    s0 = np.sum(np.square(m22), axis=-1)
    s1 = 2.0 * mul(m12, conj(m22))[..., 0]
    s2 = np.sum(np.square(m12), axis=-1)
    den = real(s0) + s1[..., None] * np.asarray(q) + s2[..., None] * qq
    return mul(inv(den), num)


def poincare_g(q, alpha, beta) -> np.ndarray:
    """Re(alpha conj(beta)) / (1 - |q|^2)^2."""
    return mul(alpha, conj(beta))[..., 0] / (1.0 - np.sum(np.square(q), axis=-1)) ** 2


def slice_g(q, alpha, beta) -> np.ndarray:
    """Re((alpha - q alpha q) conj(beta - q beta q)) / (|1 - q^2|^2 (1 - |q|^2)^2)."""
    ta = alpha - mul(mul(q, alpha), q)
    tb = beta - mul(mul(q, beta), q)
    num = mul(ta, conj(tb))[..., 0]
    den = np.sum(np.square(ONE - mul(q, q)), axis=-1) * (1.0 - np.sum(np.square(q), axis=-1)) ** 2
    return num / den


def symm_orbit(u, a, t) -> np.ndarray:
    """(1 + tanh(t) a conj(u))^-1 (a + tanh(t) u): the one-parameter orbit through a."""
    tt = np.tanh(np.asarray(t, dtype=float))[..., None]
    return mul(inv(ONE + tt * mul(a, conj(u))), np.asarray(a) + tt * np.asarray(u))


# ---------------------------------------------------------------------------
# Sampling.

def unit(rng, n: int) -> np.ndarray:
    """n uniform points on the unit 3-sphere."""
    v = rng.standard_normal((n, 4))
    return v / norm(v)[:, None]


def imaginary_unit(rng, n: int) -> np.ndarray:
    v = unit(rng, n)
    v[:, 0] = 0.0
    return v / norm(v)[:, None]


def self_check() -> None:
    """Raise AssertionError unless the table gives the quaternion algebra."""
    def close(p, q, tol=1e-12):
        return np.max(np.abs(np.asarray(p) - np.asarray(q))) <= tol

    checks = {
        "i j = k": close(mul(I, J), K), "j k = i": close(mul(J, K), I),
        "k i = j": close(mul(K, I), J), "j i = -k": close(mul(J, I), -K),
        "i^2 = -1": close(mul(I, I), -ONE), "i j k = -1": close(mul(mul(I, J), K), -ONE),
    }
    rng = np.random.default_rng(0)
    p, q, r = rng.standard_normal((3, 64, 4))
    checks["|pq| = |p||q|"] = close(norm(mul(p, q)), norm(p) * norm(q), 1e-12 * 64)
    checks["(pq)r = p(qr)"] = close(mul(mul(p, q), r), mul(p, mul(q, r)), 1e-11)
    checks["q q^-1 = 1"] = close(mul(q, inv(q)), np.broadcast_to(ONE, q.shape), 1e-12)
    checks["conj(pq) = conj(q) conj(p)"] = close(conj(mul(p, q)), mul(conj(q), conj(p)))
    x = rng.standard_normal((8, 4)) * 0.7
    checks["exp_off in the group"] = bool(np.all(sp11_residual(exp_off(x)) <= 1e-12))
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(f"quaternion arithmetic self-check failed: {failed}")

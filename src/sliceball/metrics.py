"""The quaternionic Poincare metric, the slice metric slice_g as the real part
of the Hermitian form slice_h, pullback verification, and tables of the orbits
exp(t P_u) . a under the classical action.

slice_g(q; a, b) = Re(a_par conj(b_par)) / d^2 + Re(a_perp conj(b_perp)) / |1 - q^2|^2 with
d = 1 - |q|^2 and a_par, b_par in q's slice: so g_S <= g_P, equal along each slice, and
rho = g_S/g_P across it is (d / |1 - q^2|)^2 = ((1 - y^2)/(1 + y^2))^2 at the orbit invariant y.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError
from .hmat import exp_m
from .mobius import classical_apply, differential
from .quat import ONE, Quaternion, _of_floats, ensure_in_ball, ensure_unit

MetricFn = Callable[[Quaternion, Quaternion, Quaternion], float]


def poincare_g(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> float:
    """Re(alpha conj(beta)) / (1 - |q|^2)^2."""
    ensure_in_ball(q, "the metrics are defined on the open ball")
    den = 1.0 - q.norm_sq()
    return (alpha * beta.conj()).w / (den * den)


def _twisted(qw: float, qx: float, qy: float, qz: float, v: Quaternion) -> tuple:
    """The bilinear numerator factor v - q v q as four floats, rounded as the
    quaternion operators round v - q * v * q."""
    vw, vx, vy, vz = v.w, v.x, v.y, v.z
    pw = qw * vw - qx * vx - qy * vy - qz * vz
    px = qw * vx + qx * vw + qy * vz - qz * vy
    py = qw * vy - qx * vz + qy * vw + qz * vx
    pz = qw * vz + qx * vy - qy * vx + qz * vw
    return (vw - (pw * qw - px * qx - py * qy - pz * qz),
            vx - (pw * qx + px * qw + py * qz - pz * qy),
            vy - (pw * qy - px * qz + py * qw + pz * qx),
            vz - (pw * qz + px * qy - py * qx + pz * qw))


def slice_h(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> Quaternion:
    """Quaternion-valued Hermitian form
    (1-q^2)^-1 (alpha - q alpha q) conj(beta - q beta q) (1-conj(q)^2)^-1 / (1-|q|^2)^2.
    """
    ensure_in_ball(q, "the metrics are defined on the open ball")
    left = (ONE - q * q).inverse()
    right = (ONE - q.conj() * q.conj()).inverse()
    den = 1.0 - q.norm_sq()
    ta = _of_floats(*_twisted(q.w, q.x, q.y, q.z, alpha))
    tb = _of_floats(*_twisted(q.w, q.x, q.y, q.z, beta))
    return (left * ta * tb.conj() * right) / (den * den)


def slice_g(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> float:
    """Real part of the Hermitian form:
    Re((alpha - q alpha q) conj(beta - q beta q)) / (|1-q^2|^2 (1-|q|^2)^2),
    on floats that round as the quaternion operators of this form do, bit for bit."""
    ensure_in_ball(q, "the metrics are defined on the open ball")
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    aw, ax, ay, az = _twisted(qw, qx, qy, qz, alpha)
    bw, bx, by, bz = _twisted(qw, qx, qy, qz, beta)
    num = aw * bw + ax * bx + ay * by + az * bz
    sq = q * q
    sw = 1.0 - sq.w  # 1 - q^2 = (sw, -sq.x, -sq.y, -sq.z)
    den = (sw * sw + sq.x * sq.x + sq.y * sq.y + sq.z * sq.z) * (1.0 - q.norm_sq()) ** 2
    return num / den


def pullback_residual(fn: Callable[[Quaternion], Quaternion], metric: MetricFn,
                      q: Quaternion, rng, trials: int = 8) -> list[float]:
    """The defect |metric_q(alpha, beta) - metric_{fn(q)}(dfn alpha, dfn beta)| of each
    tangent pair drawn from rng, one per trial, unreduced. A trial reads both tangents
    from one rng.standard_normal(8); dfn weights the columns of differential(fn, q), the
    pushes of 1, i, j, k, by a tangent's coordinates. Raises DomainError, as every
    metric call does, when the metric rejects the image fn(q) (a NaN, or off the ball)."""
    (c0w, c0x, c0y, c0z), (c1w, c1x, c1y, c1z), (c2w, c2x, c2y, c2z), (c3w, c3x, c3y, c3z) = (
        (c.w, c.x, c.y, c.z) for c in differential(fn, q))
    image = fn(q)
    def push(tw: float, tx: float, ty: float, tz: float) -> Quaternion:
        # summed in the order numpy's jac @ v summed on a row-major 4x4 Jacobian
        return _of_floats((c0w * tw + c2w * ty) + (c1w * tx + c3w * tz),
                          (c0x * tw + c2x * ty) + (c1x * tx + c3x * tz),
                          (c0y * tw + c2y * ty) + (c1y * tx + c3y * tz),
                          (c0z * tw + c2z * ty) + (c1z * tx + c3z * tz))
    defects = []
    for _ in range(trials):
        v = rng.standard_normal(8).tolist()  # the stream of two standard_normal(4) draws
        alpha, beta = _of_floats(*v[:4]), _of_floats(*v[4:])
        defects.append(abs(metric(q, alpha, beta) - metric(image, push(*v[:4]), push(*v[4:]))))
    return defects


def geodesic_table(u: Quaternion, t_min: float, t_max: float, steps: int,
                   a: Quaternion | None = None) -> list[tuple[float, Quaternion]]:
    """Rows (t, exp(t P_u) . a), P_u off-diagonal with block u, of the orbit of a (default
    0) under the classical action: a geodesic exactly when a lies on the line tanh(s) u."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    ensure_unit(u, "orbit direction must be a unit quaternion")
    base = a if a is not None else Quaternion()
    ensure_in_ball(base, "orbit base point must lie in the open ball", name="a")
    t_min, t_max = float(t_min), float(t_max)
    delta = t_max - t_min  # not finite when a bound is not, or when the width overflows
    if not math.isfinite(delta):
        raise DomainError(f"table range must have a finite width, got [{t_min!r}, {t_max!r}]")
    # np.linspace(t_min, t_max, steps), in the order numpy 2.x rounds it.
    div = steps - 1
    step = delta / div
    if step == 0.0:  # the step underflows: scale by delta after dividing
        ts = [i / div * delta + t_min for i in range(steps)]
    else:
        ts = [i * step + t_min for i in range(steps)]
    ts[-1] = t_max
    return [(t, classical_apply(exp_m(u * t), base)) for t in ts]

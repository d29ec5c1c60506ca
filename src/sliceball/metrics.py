"""The quaternionic Poincare metric, the slice Hermitian/Riemannian/Kahler
structures, pullback verification, and closed-form geodesics and orbits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .mobius import FD_STEP, differential
from .quat import ONE, Quaternion, as_quat, make_rng

UNIT_TOL = 1e-9  # how far | |u| - 1 | may stray for a table direction u

MetricFn = Callable[[Quaternion, Quaternion, Quaternion], float]


def poincare_g(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> float:
    """Re(alpha conj(beta)) / (1 - |q|^2)^2."""
    q, alpha, beta = as_quat(q), as_quat(alpha), as_quat(beta)
    den = 1.0 - q.norm_sq()
    return (alpha * beta.conj()).w / (den * den)


def _twisted(q: Quaternion, v: Quaternion) -> Quaternion:
    # The bilinear numerator factor v - q v q.
    return v - q * v * q


def slice_h(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> Quaternion:
    """Quaternion-valued Hermitian form
    (1-q^2)^-1 (alpha - q alpha q) conj(beta - q beta q) (1-conj(q)^2)^-1 / (1-|q|^2)^2.
    """
    q, alpha, beta = as_quat(q), as_quat(alpha), as_quat(beta)
    left = (ONE - q * q).inverse()
    right = (ONE - q.conj() * q.conj()).inverse()
    den = 1.0 - q.norm_sq()
    return (left * _twisted(q, alpha) * _twisted(q, beta).conj() * right) / (den * den)


def slice_g(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> float:
    """Real part of the Hermitian form:
    Re((alpha - q alpha q) conj(beta - q beta q)) / (|1-q^2|^2 (1-|q|^2)^2)."""
    q, alpha, beta = as_quat(q), as_quat(alpha), as_quat(beta)
    num = (_twisted(q, alpha) * _twisted(q, beta).conj()).w
    den = (ONE - q * q).norm_sq() * (1.0 - q.norm_sq()) ** 2
    return num / den


def slice_omega(q: Quaternion, alpha: Quaternion, beta: Quaternion) -> Quaternion:
    """Imaginary part of the Hermitian form (the two-form values)."""
    return slice_h(q, alpha, beta).im()


def pullback_residual(fn: Callable[[Quaternion], Quaternion], metric: MetricFn,
                      q: Quaternion, rng, trials: int = 8, h: float = FD_STEP) -> float:
    """Max over sampled tangent pairs of
    |metric_q(alpha, beta) - metric_{fn(q)}(dfn alpha, dfn beta)|; NaN if any
    difference is NaN or no pair was sampled."""
    rng = make_rng(rng)
    q = as_quat(q)
    jac = differential(fn, q, h)
    image = fn(q)
    diffs = []
    for _ in range(trials):
        av = rng.standard_normal(4)
        bv = rng.standard_normal(4)
        alpha = Quaternion(*av)
        beta = Quaternion(*bv)
        da = Quaternion(*(jac @ av))
        db = Quaternion(*(jac @ bv))
        diffs.append(abs(metric(q, alpha, beta) - metric(image, da, db)))
    return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=math.nan)


def symm_geodesic(u: Quaternion, a: Quaternion, t: float) -> Quaternion:
    """(1 + tanh(t) a conj(u))^-1 (a + tanh(t) u): the one-parameter orbit through a.

    With a = 0 this is the unit-speed Poincare geodesic tanh(t) u through the origin.
    Despite the name, for other a it is not a geodesic in general: the orbit keeps a
    constant Poincare distance from the line tanh(s) u, and is a geodesic only when
    a lies on that line.
    """
    u, a = as_quat(u), as_quat(a)
    tt = math.tanh(t)
    return (ONE + a * u.conj() * tt).inverse() * (a + u * tt)


def slice_ray(u: Quaternion, t: float) -> Quaternion:
    """tanh(t) u: the unit-speed slice-metric geodesic ray through the origin."""
    return as_quat(u) * math.tanh(t)


def geodesic_table(u: Quaternion, t_min: float, t_max: float, steps: int,
                   a: Quaternion | None = None) -> list[tuple[float, Quaternion]]:
    """Sample rows (t, point) of the orbit through a (origin geodesic when a is 0)."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    u = as_quat(u)
    if not abs(u.norm() - 1.0) <= UNIT_TOL:  # also rejects NaN and infinity
        raise DomainError(f"orbit direction must be a unit quaternion, |u| = {u.norm()!r}")
    base = as_quat(a) if a is not None else Quaternion()
    if not base.norm() < 1.0:  # also rejects NaN
        raise DomainError(f"orbit base point must lie in the open ball, |a| = {base.norm()!r}")
    ts = np.linspace(t_min, t_max, steps)
    return [(float(t), symm_geodesic(u, base, float(t))) for t in ts]

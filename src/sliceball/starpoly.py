"""Slice regular polynomial calculus: the star product, regular conjugate,
symmetrization, star-inverse evaluation, a bounded-degree root finder, and a
numerical slice-regularity residual.

A polynomial is stored by its right coefficients: f(q) = sum_n q^n a_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError
from .quat import (BALL_MARGIN, ONE, ZERO, Quaternion, as_quat,
                   is_imaginary_unit, slice_split)


class StarPoly:
    """Polynomial sum_n q^n a_n with quaternion coefficients on the right."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_quat(c) for c in coeffs]
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

    def __add__(self, other: "StarPoly") -> "StarPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return StarPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "StarPoly") -> "StarPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return StarPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "StarPoly":
        return StarPoly([-c for c in self.coeffs])

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
        """Pointwise value of sum q^n a_n (Horner, powers multiply from the left)."""
        q = as_quat(q)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = q * acc + c
        return acc

    def max_coeff_norm(self) -> float:
        return max((c.norm() for c in self.coeffs), default=0.0)


def reg_conj(f: StarPoly) -> StarPoly:
    """Regular conjugate: conjugate every coefficient."""
    return StarPoly([c.conj() for c in f.coeffs])


def symmetrize(f: StarPoly) -> StarPoly:
    """f star reg_conj(f); its coefficients are real up to roundoff."""
    return f * reg_conj(f)


def star_inverse_eval(f: StarPoly, q: Quaternion) -> Quaternion:
    """Value at q of the star-inverse (1/f^s) f^c.

    Raises PoleError where the symmetrization vanishes.
    """
    fs = symmetrize(f)
    den = fs.eval(q)
    if den.norm() == 0.0:
        raise PoleError(f"star-inverse evaluated on the zero set of the symmetrization at {q!r}")
    return den.inverse() * reg_conj(f).eval(q)


def linear_map(a, b) -> StarPoly:
    """The degree-one map q -> q a + b."""
    return StarPoly([b, a])


def constant(c) -> StarPoly:
    return StarPoly([c])


# ---------------------------------------------------------------------------
# Root finding for degree <= 2 polynomials.

# Acceptance threshold for a unit-imaginary candidate I: require |I^2 + 1| <= 1e-8,
# absorbing the root-extraction noise of the real quartic.
_UNIT_IMAG_TOL = 1e-8
# Candidates failing that gate by less than this are noise-limited (the gate
# carries eps/y^2 noise for small slice heights y): retried via Newton polish.
_UNIT_IMAG_RETRY = 1e-2
# Relative threshold under which the sphere coefficients C, D count as zero.
_SPHERE_COEFF_TOL = 1e-7
# Conjugacy classes of the symmetrization closer than this (relative) merge.
_CLASS_MERGE_TOL = 1e-6
# Below this the class height is indistinguishable from roundoff in the roots.
_HEIGHT_FLOOR = 1e-12
# Classes this close to the real axis may be a double real root split by noise.
_REAL_SPLIT_TOL = 1e-6
# A candidate counts as a zero when its evaluation residual is below this (relative).
_ACCEPT_TOL = 1e-8


@dataclass
class RootReport:
    """Zeros of a degree <= 2 polynomial: isolated points and whole spheres x + y*S."""

    points: list[Quaternion] = field(default_factory=list)
    spheres: list[tuple[float, float]] = field(default_factory=list)

    def points_in_ball(self, margin: float = BALL_MARGIN) -> list[Quaternion]:
        return [p for p in self.points if p.norm() < 1.0 - margin]

    def spheres_in_ball(self, margin: float = BALL_MARGIN) -> list[tuple[float, float]]:
        return [(x, y) for (x, y) in self.spheres if math.hypot(x, y) < 1.0 - margin]

    def any_in_closed_ball(self) -> bool:
        return (any(p.norm() <= 1.0 for p in self.points)
                or any(math.hypot(x, y) <= 1.0 for (x, y) in self.spheres))


def _real_coeffs(f: StarPoly) -> list[float]:
    return [c.w for c in f.coeffs]


def _conjugacy_classes(roots: np.ndarray) -> list[tuple[float, float]]:
    """Collapse the roots of a real polynomial into (x, y >= 0) conjugacy classes.

    The merge tolerance is relative to each class, so a spurious huge root from
    a near-degenerate leading coefficient cannot swallow distinct small classes.
    """
    classes: list[tuple[float, float]] = []
    for r in roots:
        x, y = float(r.real), abs(float(r.imag))
        for (cx, cy) in classes:
            tol = _CLASS_MERGE_TOL * (1.0 + math.hypot(cx, cy))
            if abs(cx - x) <= tol and abs(cy - y) <= tol:
                break
        else:
            classes.append((x, y))
    return classes


def _horner_complex(asc: list[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(asc):
        acc = acc * z + c
    return acc


def _polish_conjugate_root(asc: list[float], x: float, y: float) -> tuple[float, float]:
    """Newton-polish a conjugate root pair x +- yi of a real polynomial.

    Clustered pairs (small y) leave the companion-matrix roots with enough noise
    to spill past the unit-imaginary gate downstream; a couple of Newton steps
    on the quartic removes it.  Keeps the seed if Newton does not improve it.
    """
    deriv = [k * asc[k] for k in range(1, len(asc))]
    z = best = complex(x, y)
    best_val = abs(_horner_complex(asc, z))
    for _ in range(12):
        df = _horner_complex(deriv, z)
        if df == 0.0:
            break
        z = z - _horner_complex(asc, z) / df
        val = abs(_horner_complex(asc, z))
        if val < best_val:
            best, best_val = z, val
        if val == 0.0:
            break
    return best.real, abs(best.imag)


def _polish_sphere(a0: Quaternion, a1: Quaternion, a2: Quaternion,
                   x: float, y: float, iters: int = 6) -> tuple[float, float]:
    """Sharpen sphere parameters by Gauss-Newton on the restriction coefficients.

    A zero sphere solves C(x, y) = D(x, y) = 0; the quartic's double roots only
    locate it to sqrt(machine-eps) without this step.
    """
    for _ in range(iters):
        c = (x * x - y * y) * a2 + x * a1 + a0
        d = (2.0 * x * y) * a2 + y * a1
        dc_dx = 2.0 * x * a2 + a1
        dc_dy = -2.0 * y * a2
        dd_dx = 2.0 * y * a2
        dd_dy = 2.0 * x * a2 + a1
        res = np.array([c.w, c.x, c.y, c.z, d.w, d.x, d.y, d.z])
        jac = np.array([
            [dc_dx.w, dc_dy.w], [dc_dx.x, dc_dy.x], [dc_dx.y, dc_dy.y], [dc_dx.z, dc_dy.z],
            [dd_dx.w, dd_dy.w], [dd_dx.x, dd_dy.x], [dd_dx.y, dd_dy.y], [dd_dx.z, dd_dy.z],
        ])
        step, *_ = np.linalg.lstsq(jac, res, rcond=None)
        x -= float(step[0])
        y -= float(step[1])
        if float(np.abs(step).max()) <= 1e-16 * max(1.0, abs(x), abs(y)):
            break
    return x, abs(y)


def _polish_point(p: StarPoly, q: Quaternion, iters: int = 8) -> Quaternion:
    """Newton-polish an isolated zero of a degree <= 2 polynomial in all four
    real coordinates, using the exact directional derivative
    dP_q(e) = e a1 + (qe + eq) a2.

    Candidates born near the real axis inherit sqrt(machine-eps) smearing from
    the symmetrization (the slice height only enters it squared); the
    quaternionic coefficients still hold the full information, so a short
    Newton run restores it.
    """
    a1, a2 = p.coeff(1), p.coeff(2)
    basis = (Quaternion(1.0), Quaternion(0, 1.0, 0, 0),
             Quaternion(0, 0, 1.0, 0), Quaternion(0, 0, 0, 1.0))
    for _ in range(iters):
        val = p.eval(q)
        if val.norm() == 0.0:
            return q
        jac = np.empty((4, 4))
        for col, e in enumerate(basis):
            d = e * a1 + (q * e + e * q) * a2
            jac[:, col] = (d.w, d.x, d.y, d.z)
        try:
            step = np.linalg.solve(jac, [val.w, val.x, val.y, val.z])
        except np.linalg.LinAlgError:
            return q
        moved = q - Quaternion(*step)
        if (moved - q).norm() <= 1e-17 * max(1.0, q.norm()):
            return moved
        q = moved
    return q


def _polish_real_root(f: StarPoly, x: float, iters: int = 8) -> float:
    """Sharpen a real zero of f by damped Gauss-Newton on |f(x)|^2.

    Real zeros arrive from double roots of the symmetrization and carry
    sqrt(machine-eps) noise without this step.
    """
    deriv = StarPoly([f.coeff(n + 1) * float(n + 1) for n in range(max(f.degree, 0))])
    for _ in range(iters):
        val = f.eval(Quaternion(x))
        dv = deriv.eval(Quaternion(x))
        d2 = dv.norm_sq()
        if d2 == 0.0:
            break
        step = (dv.conj() * val).w / d2
        x -= step
        if abs(step) <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def quadratic_root_in_ball(p: StarPoly) -> RootReport:
    """All zeros of a degree 1 or 2 polynomial q^2 a2 + q a1 + a0.

    The real symmetrization is factored through its complex conjugacy classes
    x +- yi; on each sphere x + y*S the polynomial restricts to C + I*D with
        C = (x^2 - y^2) a2 + x a1 + a0,   D = 2xy a2 + y a1.
    A sphere contributes the isolated zero x + yI with I = -C * D^-1 when that I
    is a unit imaginary, or the whole sphere when C and D both vanish.
    """
    if p.is_zero() or p.degree not in (1, 2):
        raise DomainError(f"root finder needs degree 1 or 2, got degree {p.degree}")

    a0, a1, a2 = p.coeff(0), p.coeff(1), p.coeff(2)
    scale = p.max_coeff_norm()
    coeff_tol = _SPHERE_COEFF_TOL * max(scale, 1.0)

    ps = symmetrize(p)
    real_asc = _real_coeffs(ps)
    roots = np.roots(list(reversed(real_asc)))

    accept_tol = _ACCEPT_TOL * max(scale, 1.0)
    report = RootReport()
    for (x, y) in _conjugacy_classes(roots):

        def restriction(xx: float, yy: float) -> tuple[Quaternion, Quaternion]:
            return ((xx * xx - yy * yy) * a2 + xx * a1 + a0,
                    (2.0 * xx * yy) * a2 + yy * a1)

        def point_candidate(c: Quaternion, d: Quaternion) -> tuple[float, Quaternion] | None:
            i_cand = -(c * d.inverse())
            gate = (i_cand * i_cand + ONE).norm()
            if gate <= _UNIT_IMAG_TOL:
                pt = Quaternion(x) + i_cand * y
                return p.eval(pt).norm(), pt
            if gate <= _UNIT_IMAG_RETRY and i_cand.im_norm() > 0.0:
                # Small slice heights leave the gate quantity noise-limited;
                # project onto the imaginary sphere and let Newton plus the
                # evaluation residual decide.
                proj = i_cand.im() / i_cand.im_norm()
                pt = _polish_point(p, Quaternion(x) + proj * y)
                return p.eval(pt).norm(), pt
            return None

        candidates: list[tuple[float, Quaternion]] = []
        if y > _REAL_SPLIT_TOL * (1.0 + abs(x)):
            # Clearly off the real axis: isolated zero or a whole sphere.
            x, y = _polish_conjugate_root(real_asc, x, y)
            c, d = restriction(x, y)
            if d.norm() > coeff_tol:
                cand = point_candidate(c, d)
                if cand is not None:
                    candidates.append(cand)
            elif c.norm() <= coeff_tol:
                sx, sy = _polish_sphere(a0, a1, a2, x, y)
                if not any(abs(px - sx) <= coeff_tol and abs(py - sy) <= coeff_tol
                           for (px, py) in report.spheres):
                    report.spheres.append((sx, sy))
                continue
        else:
            # Hugging the real axis: either a double real root split by roundoff
            # or a genuine zero of tiny slice height; Newton-polish both seeds
            # and let the residuals decide.
            if y > _HEIGHT_FLOOR:
                c, d = restriction(x, y)
                if d.norm() > 0.0:
                    cand = point_candidate(c, d)
                    if cand is not None:
                        polished = _polish_point(p, cand[1])
                        candidates.append((p.eval(polished).norm(), polished))
            xr = _polish_real_root(p, x)
            pt = _polish_point(p, Quaternion(xr))
            candidates.append((p.eval(pt).norm(), pt))
        candidates = [cand for cand in candidates if cand[0] <= accept_tol]
        if candidates:
            _add_point(report, min(candidates, key=lambda cand: cand[0])[1], scale)
    return report


def _add_point(report: RootReport, q: Quaternion, scale: float) -> None:
    tol = _CLASS_MERGE_TOL * max(scale, 1.0)
    if not any((q - p).norm() <= tol for p in report.points):
        report.points.append(q)


# ---------------------------------------------------------------------------
# Numerical slice-regularity residual.

def regularity_residual(f, q: Quaternion, h: float = 1e-5, unit=None) -> float:
    """|(d/dx + I d/dy) f / 2| at q, by central differences along q's slice.

    f is any callable on quaternions.  A real q uses the canonical slice unless
    an explicit unit is supplied.  The residual of a slice regular map decays
    as O(h^2).
    """
    x, y, i_unit = slice_split(q)
    if unit is not None:
        i_unit = as_quat(unit)
        if not is_imaginary_unit(i_unit, 1e-9):
            raise DomainError(f"supplied slice unit {i_unit!r} is not a unit imaginary")
    if h <= 0.0 or x + h == x or y + h == y:
        raise DomainError(f"finite-difference step {h!r} underflows at {q!r}")

    def at(xx: float, yy: float) -> Quaternion:
        return f(Quaternion(xx) + i_unit * yy)

    fx = (at(x + h, y) - at(x - h, y)) / (2.0 * h)
    fy = (at(x, y + h) - at(x, y - h)) / (2.0 * h)
    return ((fx + i_unit * fy) * 0.5).norm()

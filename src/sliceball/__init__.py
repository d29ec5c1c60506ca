"""Numerical library for the quaternionic unit ball: classical and regular Mobius
transformations, the group preserving the signature-(1,1) form with its exponential
and global decompositions, the Poincare and slice Riemannian metrics, the slice-metric
isometry group, and randomized verification of all their structural identities.
"""

from .errors import ConsistencyError, DomainError, PoleError
from .quat import (Quaternion, sgn, slice_split, is_unit, is_imaginary_unit,
                   in_ball, normalized, qexp)
from .hmat import (QMat2, Sp11Algebra, sp11_check, sp11_inverse, sigma,
                   cartan_split, lie_bracket, exp_m, exp_general, psi_embed,
                   hat_sp11_check)
from .starpoly import (StarPoly, reg_conj, symmetrize,
                       star_inverse_eval, quadratic_root_in_ball,
                       regularity_residual, RootReport)
from .mobius import (classical_apply, regular_apply, mobius_M, f_au,
                     quotient_point, differential, o11_classify)
from .metrics import (poincare_g, slice_h, slice_g, slice_omega,
                      pullback_residual, symm_geodesic, slice_ray)
from .lie import (SymmFactorization, SliceFactorization, IsoGElement,
                  symm_decompose, symm_compose, slice_decompose, slice_compose,
                  iso_g_act, iso_g_mul, centralizer_check, orbit_invariant)

__version__ = "0.1.0"

"""Numerical library for the quaternionic unit ball: classical and regular Mobius
transformations, the group preserving the signature-(1,1) form with its exponential
and global decompositions, the Poincare and slice Riemannian metrics, the slice-metric
isometry group, and randomized verification of all their structural identities.

Every name lives in its submodule (``sliceball.quat``, ``hmat``, ``mobius``,
``metrics``, ``lie``, ``starpoly``, ``verify``); the package imports none of them,
so a CLI command loads only the modules it runs.
"""

# Choices that the CLI offers without importing the modules behind them: the
# suites of sliceball.verify and the centralizer subgroups of sliceball.lie.
SUITES = ("all", "decompose", "mobius", "metrics", "isometry", "orbits")
CENTRALIZER_SUBGROUPS = ("sp1I2", "sp1x1", "sp1xsp1")

__version__ = "0.1.0"

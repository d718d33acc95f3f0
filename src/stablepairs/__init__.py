"""Exact equivariant stable-pair invariants of local curves.

The package computes torus-equivariant Joyce-Song stable-pair invariants of
the local Calabi-Yau 4-fold Tot(L1 + L2 + L3) over the projective line by
fixed-point localization, entirely in exact rational arithmetic, and verifies
the wall-crossing and Gopakumar-Vafa generating-series identities that govern
such invariants on compact geometries.

Layers, bottom up:

* :mod:`stablepairs.ratfun`      -- multivariate polynomials and rational
  functions over Q with canonical forms, gcd, residues, factored products.
* :mod:`stablepairs.equivariant` -- integer-weight K-theory classes of the
  four-torus, Euler characteristics on the local curve, equivariant Euler
  classes, square-root checks.
* :mod:`stablepairs.localcurve`  -- fixed-point enumeration, half/full
  obstruction classes, the invariants P(n, d) by enumeration and by closed
  formula, the conjecture sweep, residue certificates, homogeneity.
* :mod:`stablepairs.series`      -- truncated generating series over a curve
  lattice: stable-pair series from integer-type invariants, wall-crossing
  checks, MacMahon/Gromov-Witten conversions.
* :mod:`stablepairs.cli`         -- the ``stablepairs`` command.
"""

from . import equivariant, localcurve, ratfun, series
from .equivariant import *
from .localcurve import *
from .ratfun import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *ratfun.__all__,
    *equivariant.__all__,
    *localcurve.__all__,
    *series.__all__,
]

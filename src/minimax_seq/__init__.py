"""Minimax reconstruction bounds for ill-posed problems in sequence space.

Computes, certifies, and empirically validates worst-case reconstruction
error for truncated-series (spectral cut-off) estimation under Gaussian
noise: exact bias/variance risk, the certified two-sided minimax interval,
hyperrectangle water-filling with an optimality certificate, Monte Carlo
validation, rate-of-convergence experiments across ill-posedness regimes,
and an SVD frontend for matrix operator equations.

Each module's ``__all__`` declares its public names; the package re-exports
those of problem, truncation, bounds, simulate, rates and operators.
"""

from .problem import *
from .truncation import *
from .bounds import *
from .simulate import *
from .rates import *
from .operators import *

__version__ = "0.1.0"

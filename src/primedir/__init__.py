"""Directional averages along the primes on 2D grids.

Desk-scale implementations of the computable objects behind the prime
directional maximal operator: exponential-sum multipliers and their
main-term/error decomposition, explicit prime-structured direction families
in exact arithmetic, tube-incidence overlap geometry, and the operator itself
with spatial and spectral evaluation routes kept in cross-checkable agreement.
"""

from . import arith, bumps, directions, incidence, maximal, multiplier
from .arith import PrimeTable, sieve_primes
from .directions import DirectionSpec, DirectionSet, construct_directions, rescale_to_integers
from .errors import ConstructionError, ParseError, PrecisionError
from .maximal import GridFunction, OperatorConfig, maximal_op

__version__ = "0.1.0"

__all__ = [
    "arith",
    "bumps",
    "multiplier",
    "directions",
    "incidence",
    "maximal",
    "PrimeTable",
    "sieve_primes",
    "DirectionSpec",
    "DirectionSet",
    "construct_directions",
    "rescale_to_integers",
    "GridFunction",
    "OperatorConfig",
    "maximal_op",
    "ConstructionError",
    "ParseError",
    "PrecisionError",
]

"""Exact verification of alternating difference-sum identities and the
Wilson congruence chain.

All arithmetic is exact: arbitrary-precision integers, ``fractions.Fraction``
rationals, and dense rational-coefficient polynomials represented as tuples.
Nothing here ever rounds, so every check is an equality, not a tolerance.
"""

from . import exact, identity, modular
from .exact import *  # noqa: F401,F403
from .identity import *  # noqa: F401,F403
from .modular import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = exact.__all__ + identity.__all__ + modular.__all__ + ["__version__"]

"""Exact conditional extensions of finite Boolean algebras.

The package builds towers of finite Boolean algebras in which conditional
events [x]y are genuine elements, extends probability distributions along
those towers (exactly, using an infinitesimal when the base distribution
has null events), demonstrates why conditionals cannot live inside the
base algebra itself, and ships a small conditional logic with a parser,
evaluator and derivation checker. The ``bayesalg`` CLI exposes all of it.
"""

from .field import (
    EPSILON,
    InfinitesimalScalar,
    Scalar,
    format_scalar,
    parse_scalar,
    standard_part,
    valuation,
)

__version__ = "0.1.0"

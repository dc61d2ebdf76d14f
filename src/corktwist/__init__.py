"""Exact-arithmetic analysis of symmetric 2-handlebody diagrams.

Fronts with 1-handle notation, cork-candidate checks, mapping-class
bookkeeping over H1, concave filling plans, and replayable distinctness
certificates, all in integer and rational arithmetic.
"""

# `cli` is left out so that `python -m corktwist.cli` imports it only once, as __main__
from . import fillings, front, hfcert, intmat, kirby, mcg, moves

__all__ = [
    "cli",
    "fillings",
    "front",
    "hfcert",
    "intmat",
    "kirby",
    "mcg",
    "moves",
]

__version__ = "0.1.0"

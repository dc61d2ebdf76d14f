"""Exact-arithmetic analysis of symmetric 2-handlebody diagrams.

Fronts with 1-handle notation, cork-candidate checks, mapping-class
bookkeeping over H1, concave filling plans, and replayable distinctness
certificates, all in integer and rational arithmetic.
"""

# no submodule is imported here: each command loads only the modules it uses,
# and `python -m corktwist.cli` imports cli only once, as __main__
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

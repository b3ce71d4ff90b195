"""Capture-free program transformations via name-graph comparison.

Transformations stay naive: they copy source names verbatim and invent new
ones freely. Afterwards, the engine compares the name graph of the source
program with the graph of the output, finds references that changed their
binding target (variable capture), and renames the offending declarations
until the output's binding structure is faithful again.
"""

from .fix import IterationBudgetExceeded, find_capture, name_fix
from .graph import (
    NameGraph,
    alpha_equiv,
    alpha_equiv_relabel,
    check_resolver_assumptions,
    sub_alpha_equiv,
)

__all__ = [
    "IterationBudgetExceeded",
    "NameGraph",
    "alpha_equiv",
    "alpha_equiv_relabel",
    "check_resolver_assumptions",
    "find_capture",
    "name_fix",
    "sub_alpha_equiv",
]

__version__ = "1.0.0"

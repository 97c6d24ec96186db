"""nilrad: decide whether a nilpotent Lie algebra is an Einstein nilradical.

The library works on laws given by exact rational structure constants and
produces machine-checkable certificates: a positive solution of the
weight-Gram system Ux=[1] (nice bases), an explicit nilsoliton
decomposition of the moment map, a non-positive pre-Einstein derivation, or
a one-parameter degeneration showing the relevant orbit is not closed.
"""

__version__ = "0.1.0"

from .algebra import LieLaw, act, format_law, jacobi_violations, parse_law, series_signature
from .catalog import classify, load_catalog, verify_catalog
from .degeneration import distinguish, in_g_phi, one_param_limit, search_degeneration
from .derivations import Invariants, derivation_space, diagonal_rank, positivity_gate, pre_einstein
from .nicebasis import gram_matrix, is_nice, positive_solution, soliton_norm
from .ricci import moment_map, soliton_check

__all__ = [
    "Invariants",
    "LieLaw",
    "act",
    "classify",
    "derivation_space",
    "diagonal_rank",
    "distinguish",
    "format_law",
    "gram_matrix",
    "in_g_phi",
    "is_nice",
    "jacobi_violations",
    "load_catalog",
    "moment_map",
    "one_param_limit",
    "parse_law",
    "positive_solution",
    "positivity_gate",
    "pre_einstein",
    "search_degeneration",
    "series_signature",
    "soliton_check",
    "soliton_norm",
    "verify_catalog",
]

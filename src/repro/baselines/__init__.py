"""Baseline community-detection algorithms the paper compares against.

* :mod:`~repro.baselines.lfk` — LFK local fitness optimisation (ref. [8]).
* :mod:`~repro.baselines.cpm` — CFinder / k-clique percolation (ref. [12]),
  built on :mod:`~repro.baselines.cliques` (Bron–Kerbosch).
* :mod:`~repro.baselines.modularity_greedy` — Newman's fast greedy
  partitioning (ref. [11]); the non-overlapping reference point.

Each runs on the compiled CSR form; the registered detectors
(``get_detector("lfk" | "cfinder" | "cpm" | "modularity_greedy")``) are
the entry points for whole-graph covers.
"""

from .cliques import maximal_cliques, cliques_at_least, clique_number
from .cpm import CPMResult, clique_percolation
from .lfk import natural_community
from .modularity_greedy import GreedyModularityResult, greedy_modularity

__all__ = [
    "maximal_cliques",
    "cliques_at_least",
    "clique_number",
    "CPMResult",
    "clique_percolation",
    "natural_community",
    "GreedyModularityResult",
    "greedy_modularity",
]

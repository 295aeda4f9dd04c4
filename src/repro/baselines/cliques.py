"""Maximal clique enumeration: Bron–Kerbosch with pivoting.

CFinder "is based on retrieving all cliques of the graph; however, this
operation turns out to be prohibitive for large graphs" — that cost is
precisely what the paper's Figure 5 exhibits.  This module implements the
standard pivoted Bron–Kerbosch algorithm (Tomita et al. variant) so the
clique-percolation baseline is faithful, prohibitive cost included.

The enumeration runs on the compiled CSR form, its sorted rows
materialised as int sets in one pass through
:meth:`~repro.graph.csr.CompiledGraph.neighbor_sets`.  Two entry points
share it:

:func:`maximal_cliques`
    Label-keyed for a :class:`~repro.graph.Graph` (compiled through the
    graph's cache, cliques translated back to labels); dense ids for a
    :class:`~repro.graph.csr.CompiledGraph`.
:func:`maximal_cliques_ids`
    Each clique of a compiled graph as a **sorted int32 array**, ready
    for the vectorised percolation kernels in
    :mod:`repro.baselines.cpm`.

Python sets beat per-frame numpy kernels here by a wide margin: the
recursion frames are tiny (|P| tracks the local clique width, tens of
nodes), where set intersection runs in a few hundred nanoseconds while
any ndarray operation pays microseconds of dispatch overhead.  The
vectorisation win lives downstream, in the
clique-*overlap* stage, which is quadratic in the number of cliques
rather than linear like the enumeration.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterator, List, Set

import numpy as np

from ..graph import Graph
from ..graph.csr import CompiledGraph, compile_graph

__all__ = [
    "maximal_cliques",
    "maximal_cliques_ids",
    "cliques_at_least",
    "clique_number",
]

Node = Hashable


def _maximal_id_cliques(compiled: CompiledGraph) -> Iterator[Set[int]]:
    """Yield every maximal clique of ``compiled`` as a set of ids, once.

    Iterative pivoted Bron–Kerbosch: the pivot is chosen as the vertex of
    ``P ∪ X`` with the most neighbours in ``P``, which prunes the search
    tree to the Moon–Moser bound.  Isolated nodes are reported as
    single-node cliques.
    """
    # Iterative formulation to dodge Python's recursion limit on large,
    # dense instances.
    adjacency = compiled.neighbor_sets()
    stack: List[tuple] = [
        (set(), set(range(len(adjacency))), set())
    ]  # frames of (R, P, X)
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            if r:
                yield r
            continue
        # Pivot with the largest |N(pivot) ∩ P|.
        pivot = max(p | x, key=lambda node: len(adjacency[node] & p))
        candidates = p - adjacency[pivot]
        for node in list(candidates):
            neighbours = adjacency[node]
            stack.append((r | {node}, p & neighbours, x & neighbours))
            p = p - {node}
            x = x | {node}


def maximal_cliques(graph: Graph) -> Iterator[FrozenSet[Node]]:
    """Yield every maximal clique of ``graph`` exactly once.

    Labels for a :class:`~repro.graph.Graph`, dense ids for a
    :class:`~repro.graph.csr.CompiledGraph`.
    """
    compiled = compile_graph(graph)
    for clique in _maximal_id_cliques(compiled):
        if compiled is not graph:
            clique = compiled.labels_of(clique)
        yield frozenset(clique)


def maximal_cliques_ids(compiled: CompiledGraph) -> Iterator[np.ndarray]:
    """Yield every maximal clique of a compiled graph as a sorted id array.

    The dense-id entry point the percolation kernel consumes, each
    clique packaged as a sorted ``int32`` array so downstream kernels
    can concatenate, reshape and lexsort them without further
    conversion.
    """
    for clique in _maximal_id_cliques(compiled):
        members = np.fromiter(clique, dtype=np.int32, count=len(clique))
        members.sort()
        yield members


def cliques_at_least(graph: Graph, k: int) -> List[FrozenSet[Node]]:
    """All maximal cliques with at least ``k`` nodes."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [clique for clique in maximal_cliques(graph) if len(clique) >= k]


def clique_number(graph: Graph) -> int:
    """The size of the largest clique (0 for the empty graph)."""
    return max((len(clique) for clique in maximal_cliques(graph)), default=0)

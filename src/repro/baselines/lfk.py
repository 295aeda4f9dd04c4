"""LFK: local fitness optimisation (Lancichinetti–Fortunato–Kertész, [8]).

The paper's strongest baseline.  LFK grows the *natural community* of a
node by maximising the fitness

    f(S) = k_in(S) / (k_in(S) + k_out(S))^alpha

where ``k_in`` is twice the internal edge count, ``k_out`` the number of
boundary half-edges, and ``alpha`` a resolution parameter (the paper uses
"the standard parameter alpha = 1").

Natural-community procedure (following [8] §"The algorithm"):

A. among the frontier nodes, add the one whose inclusion yields the
   largest fitness, *if* that exceeds the current fitness;
B. after each addition, repeatedly remove any node whose exclusion
   increases the fitness (nodes with "negative fitness contribution"),
   rechecking from scratch after every removal;
C. stop when step A cannot improve the fitness.

The cover is produced by the covering loop of [8]: pick an uncovered
node, compute its natural community, mark its members covered, repeat
until no node is uncovered.  Overlap arises because a natural community
freely includes already-covered nodes.

Both steps run on the compiled CSR form with vectorised fitness scans.
Determinism: every scan (the addition argmax of step A, the removal
sweep of step B) enumerates candidates in ascending dense-id order —
**insertion-rank order** — so the trajectory is a pure function of the
graph's construction order and the seed, independent of Python's set
iteration order.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set, Tuple

import numpy as np

from .._rng import SeedLike, as_random
from ..errors import ConfigurationError
from ..graph import Graph
from ..graph.csr import CompiledGraph, compile_graph
from ..core.fitness import LFKFitness
from ..core.state import ArrayCommunityState

__all__ = ["natural_community"]

Node = Hashable

_EPS = 1e-12


def natural_community(
    graph: Graph,
    node: Node,
    alpha: float = 1.0,
    max_steps: Optional[int] = None,
) -> Set[Node]:
    """The natural community of ``node`` under the LFK fitness.

    Deterministic: candidates are scanned in insertion-rank order, so
    ties in the argmax resolve to the lowest-rank candidate — the same
    canonical rule the OCA greedy kernel uses.  ``max_steps`` bounds the
    total accepted moves (default ``4n + 16``).  A
    :class:`~repro.graph.Graph` takes and returns labels (it is compiled
    through its cache); a :class:`~repro.graph.CompiledGraph` takes and
    returns dense ids.
    """
    compiled = compile_graph(graph)
    if compiled is not graph:
        node = compiled.id_of(node)
    members = _natural_community_ids(compiled, node, alpha, max_steps).tolist()
    if compiled is not graph:
        members = compiled.labels_of(members)
    return set(members)


# ----------------------------------------------------------------------
# The dense-id kernels (vectorised scans)
# ----------------------------------------------------------------------
def _lfk_values(
    alpha: float, internal_edges: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Vectorised :meth:`~repro.core.fitness.LFKFitness.value` over int64
    stat arrays.

    Mirrors the scalar arithmetic operation for operation: the stats are
    exact integers far below 2**53, each float64 intermediate is exact,
    and numpy's float64 power resolves to the same libm ``pow`` the
    scalar ``**`` calls — so every element is bit-identical to the
    scalar fitness value.  The oracle comparison tests pin this.
    """
    k_in = 2.0 * internal_edges
    k_out = (volumes - 2 * internal_edges).astype(np.float64)
    total = k_in + k_out
    positive = total > 0.0
    safe = np.where(positive, total, 1.0)
    return np.where(positive, k_in / safe**alpha, 0.0)


def _natural_community_ids(
    compiled: CompiledGraph,
    node: int,
    alpha: float,
    max_steps: Optional[int],
) -> np.ndarray:
    """:func:`natural_community` on dense ids, with vectorised scans.

    Both scans replicate the scalar, one-candidate-at-a-time procedure
    move for move.  Step A computes every frontier candidate's fitness in
    one vector expression, prefilters the improvers (any candidate the
    scalar eps-chain could accept satisfies ``value > current + eps``,
    since its running best only rises), then replays the eps-chain over
    that short survivor list — ascending id order *is* insertion-rank
    order.  Step B removes the first improving member of the rank-ordered
    snapshot, recomputing the remaining tail's values after each
    removal.
    """
    fitness = LFKFitness(alpha=alpha)
    state = ArrayCommunityState(compiled, [node])
    degrees = compiled.degrees
    if max_steps is None:
        max_steps = 4 * compiled.number_of_nodes() + 16
    steps = 0
    while steps < max_steps:
        # Step A: best addition (eps-chain over the vectorised values).
        current = state.value(fitness)
        frontier = state.frontier_id_array()
        best_node = None
        if frontier.size:
            gains = state.frontier_gain_array(frontier).astype(np.int64)
            values = _lfk_values(
                alpha,
                state.internal_edges + gains,
                state.volume + degrees[frontier].astype(np.int64),
            )
            best_value = current
            for position in np.flatnonzero(values > current + _EPS):
                value = float(values[position])
                if value > best_value + _EPS:
                    best_value = value
                    best_node = int(frontier[position])
        if best_node is None:
            break
        state.add(best_node)
        steps += 1
        # Step B: purge nodes whose removal improves fitness.
        removed = True
        while removed and steps < max_steps and state.size > 1:
            removed = False
            current = state.value(fitness)
            snapshot = state.member_id_array()
            position = 0
            while position < len(snapshot) and state.size > 1:
                tail = snapshot[position:]
                losses = state.internal_degree_array(tail).astype(np.int64)
                values = _lfk_values(
                    alpha,
                    state.internal_edges - losses,
                    state.volume - degrees[tail].astype(np.int64),
                )
                better = np.flatnonzero(values > current + _EPS)
                if better.size == 0:
                    break
                index = int(better[0])
                state.remove(int(tail[index]))
                steps += 1
                current = float(values[index])
                removed = True
                position += index + 1
    return state.member_id_array()


def _lfk_compiled(
    compiled: CompiledGraph,
    alpha: float = 1.0,
    seed: SeedLike = None,
    max_steps_per_community: Optional[int] = None,
) -> Tuple[List[Set[int]], int]:
    """The LFK covering loop in dense-id space.

    Returns ``(communities-as-id-sets, natural-community count)``.
    Seeds are drawn uniformly among uncovered nodes (the id order
    shuffled once with ``seed``), as in [8]; every node ends up covered.
    """
    if alpha <= 0.0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    rng = as_random(seed)
    n = compiled.number_of_nodes()
    order = list(range(n))
    rng.shuffle(order)
    covered = np.zeros(n, dtype=bool)
    communities: List[Set[int]] = []
    computed = 0
    for node in order:
        if covered[node]:
            continue
        members = _natural_community_ids(
            compiled, node, alpha, max_steps_per_community
        )
        computed += 1
        community = set(int(member) for member in members)
        # The growth may purge its own seed; anchor it anyway so the
        # covering loop terminates with full coverage.
        community.add(node)
        communities.append(community)
        covered[members] = True
        covered[node] = True
    return communities, computed


"""Label-keyed reference implementations the equivalence tests compare against.

The library runs the OCA greedy climb and every baseline on the compiled
CSR arrays only (:class:`~repro.core.state.ArrayCommunityState` and the
dense-id kernels in :mod:`repro.baselines`).  The dict-and-set originals
those kernels replaced live on here as test oracles: small, written in
label space, and independent of the vectorised tricks, so the tests can
check the fast paths move for move.

* :class:`BucketQueue` / :class:`CommunityState` — the incremental
  community statistics on adjacency sets, with rank tie-breaking.
* :func:`grow_community` — the greedy add/remove climb on
  :class:`CommunityState`.
* :func:`oracle_kernel` — a drop-in for ``repro.engine.tasks.grow_community``
  that runs every OCA climb on the oracle (serial backend only).
* :func:`natural_community` / :func:`lfk` — the LFK covering loop.
* :func:`clique_percolation` — k-clique percolation by union-find over
  the maximal cliques, with the published quadratic overlap scan.

Ties are broken by insertion rank throughout (a node's dense id in the
compiled graph), the canonical order the CSR kernels use.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro._rng import SeedLike, as_random
from repro.baselines import maximal_cliques
from repro.communities import Cover
from repro.core.fitness import FitnessFunction, LFKFitness
from repro.core.growth import GrowthResult
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.graph import Graph
from repro.graph.csr import CompiledGraph

Node = Hashable

_IMPROVEMENT_EPS = 1e-12


class BucketQueue:
    """Nodes keyed by small non-negative integers, with O(1) updates.

    Tracks either the maximum or minimum occupied key; the cached extreme
    is repaired lazily after deletions.  ``rank`` (node -> total-order
    position) makes :meth:`peek` deterministic: among nodes sharing the
    extreme key, the lowest rank wins.  Without it, peek returns an
    arbitrary bucket member.
    """

    __slots__ = ("_buckets", "_keys", "_extreme", "_want_max", "_rank")

    def __init__(self, want_max: bool, rank: Optional[Dict[Node, int]] = None) -> None:
        self._buckets: Dict[int, Set[Node]] = {}
        self._keys: Dict[Node, int] = {}
        self._extreme: Optional[int] = None
        self._want_max = want_max
        self._rank = rank

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, node: object) -> bool:
        return node in self._keys

    def key_of(self, node: Node) -> int:
        """The current key of ``node`` (KeyError if absent)."""
        return self._keys[node]

    def insert(self, node: Node, key: int) -> None:
        """Insert ``node`` with ``key``; the node must not be present."""
        if node in self._keys:
            raise AlgorithmError(f"{node!r} already queued")
        self._keys[node] = key
        self._buckets.setdefault(key, set()).add(node)
        if self._extreme is None:
            self._extreme = key
        elif self._want_max:
            if key > self._extreme:
                self._extreme = key
        elif key < self._extreme:
            self._extreme = key

    def discard(self, node: Node) -> None:
        """Remove ``node`` if present."""
        key = self._keys.pop(node, None)
        if key is None:
            return
        bucket = self._buckets[key]
        bucket.discard(node)
        if not bucket:
            del self._buckets[key]
        if not self._keys:
            self._extreme = None

    def adjust(self, node: Node, delta: int) -> None:
        """Shift the key of a present ``node`` by ``delta``."""
        key = self._keys[node]
        self.discard(node)
        self.insert(node, key + delta)

    def peek(self) -> Optional[Node]:
        """The extreme-key node of lowest rank, or ``None`` when empty."""
        if not self._keys:
            return None
        bucket = self._buckets[self._repair_extreme()]
        if self._rank is None or len(bucket) == 1:
            return next(iter(bucket))
        return min(bucket, key=self._rank.__getitem__)

    def peek_key(self) -> Optional[int]:
        """The extreme key, or ``None`` when empty."""
        if not self._keys:
            return None
        return self._repair_extreme()

    def _repair_extreme(self) -> int:
        extreme = self._extreme
        step = -1 if self._want_max else 1
        while extreme not in self._buckets:
            extreme += step
        self._extreme = extreme
        return extreme


class CommunityState:
    """Mutable community with O(deg) add/remove and O(1) statistics.

    Keeps ``|S|``, ``E_in(S)``, the degree volume, each member's internal
    degree and each frontier node's member-link count, plus bucket queues
    over both counters.  ``rank`` (node -> insertion rank) drives the
    tie-breaking of :meth:`best_frontier_node` / :meth:`weakest_member`
    and is built from the graph's node order when omitted.
    """

    def __init__(
        self,
        graph: Graph,
        members: Iterable[Node] = (),
        rank: Optional[Dict[Node, int]] = None,
    ) -> None:
        self.graph = graph
        if rank is None:
            rank = {node: i for i, node in enumerate(graph.nodes())}
        self.rank = rank
        self.members: Set[Node] = set()
        self.internal_edges = 0
        self.volume = 0
        self._internal_degree: Dict[Node, int] = {}
        #: Non-members adjacent to the community -> #member neighbours.
        self.frontier: Dict[Node, int] = {}
        self._frontier_queue = BucketQueue(want_max=True, rank=rank)
        self._member_queue = BucketQueue(want_max=False, rank=rank)
        for node in members:
            if node not in self.members:
                self.add(node)

    @property
    def size(self) -> int:
        return len(self.members)

    def internal_degree_of(self, node: Node) -> int:
        """How many member neighbours a *member* node has."""
        try:
            return self._internal_degree[node]
        except KeyError:
            raise AlgorithmError(f"{node!r} is not a member") from None

    def best_frontier_node(self) -> Optional[Node]:
        """The lowest-rank frontier node with the most member links."""
        return self._frontier_queue.peek()

    def weakest_member(self) -> Optional[Node]:
        """The lowest-rank member with the fewest member links."""
        return self._member_queue.peek()

    def __contains__(self, node: object) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    def add(self, node: Node) -> None:
        """Add ``node`` to the community in O(deg(node))."""
        if node in self.members:
            raise AlgorithmError(f"{node!r} is already a member")
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        gained = self.frontier.pop(node, 0)
        self._frontier_queue.discard(node)
        self.members.add(node)
        self.internal_edges += gained
        self.volume += self.graph.degree(node)
        self._internal_degree[node] = gained
        self._member_queue.insert(node, gained)
        for neighbour in self.graph.neighbors(node):
            if neighbour in self.members:
                self._internal_degree[neighbour] += 1
                self._member_queue.adjust(neighbour, 1)
            elif neighbour in self.frontier:
                self.frontier[neighbour] += 1
                self._frontier_queue.adjust(neighbour, 1)
            else:
                self.frontier[neighbour] = 1
                self._frontier_queue.insert(neighbour, 1)

    def remove(self, node: Node) -> None:
        """Remove member ``node`` in O(deg(node))."""
        if node not in self.members:
            raise AlgorithmError(f"{node!r} is not a member")
        lost = self._internal_degree.pop(node)
        self._member_queue.discard(node)
        self.members.discard(node)
        self.internal_edges -= lost
        self.volume -= self.graph.degree(node)
        if lost:
            self.frontier[node] = lost
            self._frontier_queue.insert(node, lost)
        for neighbour in self.graph.neighbors(node):
            if neighbour in self.members:
                self._internal_degree[neighbour] -= 1
                self._member_queue.adjust(neighbour, -1)
            elif self.frontier[neighbour] == 1:
                del self.frontier[neighbour]
                self._frontier_queue.discard(neighbour)
            else:
                self.frontier[neighbour] -= 1
                self._frontier_queue.adjust(neighbour, -1)

    def value(self, fitness: FitnessFunction) -> float:
        """The fitness of the current community."""
        return fitness.value(self.size, self.internal_edges, self.volume)

    def value_if_added(self, node: Node, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically adding frontier node ``node``."""
        return fitness.value(
            self.size + 1,
            self.internal_edges + self.frontier.get(node, 0),
            self.volume + self.graph.degree(node),
        )

    def value_if_removed(self, node: Node, fitness: FitnessFunction) -> float:
        """The fitness after hypothetically removing member ``node``."""
        return fitness.value(
            self.size - 1,
            self.internal_edges - self._internal_degree[node],
            self.volume - self.graph.degree(node),
        )

    def verify(self) -> None:
        """Recompute every aggregate from scratch and compare."""
        if self.graph.edges_inside(self.members) != self.internal_edges:
            raise AlgorithmError("internal edge drift")
        if sum(self.graph.degree(v) for v in self.members) != self.volume:
            raise AlgorithmError("volume drift")
        for node in self.members:
            actual = self.graph.boundary_degree(node, self.members)
            if actual != self._internal_degree[node]:
                raise AlgorithmError(f"internal degree drift at {node!r}")
            if self._member_queue.key_of(node) != actual:
                raise AlgorithmError(f"member queue drift at {node!r}")
        expected: Dict[Node, int] = {}
        for member in self.members:
            for neighbour in self.graph.neighbors(member):
                if neighbour not in self.members:
                    expected[neighbour] = expected.get(neighbour, 0) + 1
        if expected != self.frontier:
            raise AlgorithmError("frontier drift")
        for node, count in expected.items():
            if self._frontier_queue.key_of(node) != count:
                raise AlgorithmError(f"frontier queue drift at {node!r}")


def grow_community(
    graph: Graph,
    initial_members: Iterable[Node],
    fitness: FitnessFunction,
    max_steps: Optional[int] = None,
    allow_removal: bool = True,
    rank: Optional[Dict[Node, int]] = None,
) -> GrowthResult:
    """The greedy add/remove climb on :class:`CommunityState`.

    Monotone fitness uses the bucket-queue probes; anything else scans
    the whole frontier / member set in rank order, first maximum wins.
    """
    members = set(initial_members)
    if not members:
        raise AlgorithmError("greedy growth needs a non-empty initial set")
    state = CommunityState(graph, members, rank=rank)
    rank = state.rank
    if max_steps is None:
        max_steps = 4 * graph.number_of_nodes() + 16
    monotone = bool(getattr(fitness, "monotone_in_internal_edges", False))

    def best(candidates, probe, value_of):
        if monotone:
            node = probe()
            return (None, float("-inf")) if node is None else (node, value_of(node, fitness))
        best_node, best_value = None, float("-inf")
        for node in sorted(candidates, key=rank.__getitem__):
            value = value_of(node, fitness)
            if value > best_value:
                best_node, best_value = node, value
        return best_node, best_value

    current = state.value(fitness)
    additions = removals = steps = 0
    converged = False
    while steps < max_steps:
        add_node, add_value = best(
            state.frontier, state.best_frontier_node, state.value_if_added
        )
        remove_node, remove_value = None, float("-inf")
        if allow_removal and state.size > 1:
            remove_node, remove_value = best(
                state.members, state.weakest_member, state.value_if_removed
            )
        best_value = max(add_value, remove_value)
        if best_value <= current + _IMPROVEMENT_EPS:
            converged = True
            break
        if add_value >= remove_value:
            state.add(add_node)
            additions += 1
        else:
            state.remove(remove_node)
            removals += 1
        current = best_value
        steps += 1
    return GrowthResult(
        members=frozenset(state.members),
        fitness_value=current,
        steps=steps,
        additions=additions,
        removals=removals,
        converged=converged,
    )


#: The last compiled graph :func:`oracle_kernel` saw, with its dict twin
#: (one detection calls the kernel once per task on the same graph).
_LAST_ID_GRAPH: list = [None, None]


def _id_graph(compiled: CompiledGraph) -> Graph:
    """A dict :class:`Graph` over ``compiled``'s dense ids, in id order."""
    if _LAST_ID_GRAPH[0] is not compiled:
        graph = Graph(nodes=range(compiled.number_of_nodes()))
        indptr, indices = compiled.indptr, compiled.indices
        for u in range(compiled.number_of_nodes()):
            for v in indices[indptr[u] : indptr[u + 1]].tolist():
                if u < v:
                    graph.add_edge(u, v)
        _LAST_ID_GRAPH[:] = [compiled, graph]
    return _LAST_ID_GRAPH[1]


def oracle_kernel(
    compiled: CompiledGraph,
    initial_members: Iterable[int],
    fitness: FitnessFunction,
    max_steps: Optional[int] = None,
    seed: SeedLike = None,
) -> GrowthResult:
    """A drop-in for the engine's growth kernel that climbs on the oracle.

    Monkeypatch it over ``repro.engine.tasks.grow_community`` to run a
    whole OCA detection on the dict substrate (in-process backends only).
    """
    return grow_community(_id_graph(compiled), initial_members, fitness, max_steps)


def natural_community(
    graph: Graph,
    node: Node,
    alpha: float = 1.0,
    max_steps: Optional[int] = None,
    rank: Optional[Dict[Node, int]] = None,
) -> Set[Node]:
    """The LFK natural community of ``node``, scanning in rank order.

    Step A adds the best frontier node while it improves the fitness;
    step B then removes, one at a time, every member whose exclusion
    improves it, rechecking after each removal.
    """
    fitness = LFKFitness(alpha=alpha)
    if rank is None:
        rank = {n: i for i, n in enumerate(graph.nodes())}
    state = CommunityState(graph, [node], rank=rank)
    if max_steps is None:
        max_steps = 4 * graph.number_of_nodes() + 16
    steps = 0
    while steps < max_steps:
        current = state.value(fitness)
        best_node = None
        best_value = current
        for candidate in sorted(state.frontier, key=rank.__getitem__):
            value = state.value_if_added(candidate, fitness)
            if value > best_value + _IMPROVEMENT_EPS:
                best_value = value
                best_node = candidate
        if best_node is None:
            break
        state.add(best_node)
        steps += 1
        removed = True
        while removed and steps < max_steps and state.size > 1:
            removed = False
            current = state.value(fitness)
            for member in sorted(state.members, key=rank.__getitem__):
                if state.size <= 1:
                    break
                value = state.value_if_removed(member, fitness)
                if value > current + _IMPROVEMENT_EPS:
                    state.remove(member)
                    steps += 1
                    current = value
                    removed = True
    return set(state.members)


def lfk(
    graph: Graph,
    alpha: float = 1.0,
    seed: SeedLike = None,
    max_steps_per_community: Optional[int] = None,
) -> Cover:
    """The LFK covering loop: natural communities of shuffled uncovered seeds."""
    rng = as_random(seed)
    order: List[Node] = list(graph.nodes())
    rank = {node: i for i, node in enumerate(order)}
    rng.shuffle(order)
    covered: Set[Node] = set()
    communities: List[Set[Node]] = []
    for node in order:
        if node in covered:
            continue
        community = natural_community(
            graph, node, alpha=alpha, max_steps=max_steps_per_community, rank=rank
        )
        community.add(node)
        communities.append(community)
        covered |= community
    return Cover(communities)


def clique_percolation(graph: Graph, k: int = 3, faithful_overlap: bool = True) -> Cover:
    """k-clique percolation by union-find over the maximal cliques.

    ``faithful_overlap`` compares every clique pair (the published
    CFinder scan); otherwise only cliques sharing a node are compared.
    Both find the same components.
    """
    cliques = [clique for clique in maximal_cliques(graph) if len(clique) >= k]
    parent = list(range(len(cliques)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(i: int, j: int) -> None:
        if len(cliques[i] & cliques[j]) >= k - 1:
            parent[find(j)] = find(i)

    if faithful_overlap:
        for i in range(len(cliques)):
            for j in range(i + 1, len(cliques)):
                link(i, j)
    else:
        by_node: Dict[Node, List[int]] = {}
        for index, clique in enumerate(cliques):
            for node in clique:
                by_node.setdefault(node, []).append(index)
        for indices in by_node.values():
            for position, i in enumerate(indices):
                for j in indices[position + 1 :]:
                    link(i, j)
    groups: Dict[int, Set[Node]] = {}
    for index, clique in enumerate(cliques):
        groups.setdefault(find(index), set()).update(clique)
    return Cover(groups.values())

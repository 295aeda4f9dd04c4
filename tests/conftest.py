"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import strategies as st

from repro import DetectionRequest, get_detector
from repro.graph import Graph
from repro.generators import (
    complete_graph,
    erdos_renyi,
    karate_club,
    path_graph,
    ring_of_cliques,
    two_cliques_bridged,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square() -> Graph:
    """C4 (bipartite, lambda_min = -2)."""
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k5() -> Graph:
    """K5."""
    return complete_graph(5)


@pytest.fixture
def path5() -> Graph:
    """P5."""
    return path_graph(5)


@pytest.fixture
def karate():
    """Zachary's karate club with its two-faction ground truth."""
    return karate_club()


@pytest.fixture
def two_cliques():
    """Two 6-cliques sharing 2 nodes, with ground-truth cover."""
    return two_cliques_bridged(6, 2)


@pytest.fixture
def ring():
    """Five 5-cliques in a ring, with planted cover."""
    return ring_of_cliques(5, 5)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def edge_lists(max_nodes: int = 12, max_edges: int = 40):
    """Strategy producing lists of (u, v) pairs with u != v."""
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    pair = st.tuples(node, node).filter(lambda uv: uv[0] != uv[1])
    return st.lists(pair, max_size=max_edges)


def small_graphs(max_nodes: int = 12, max_edges: int = 40):
    """Strategy producing small Graph instances."""
    return edge_lists(max_nodes, max_edges).map(lambda edges: Graph(edges=edges))


def node_subsets(graph: Graph, rng_seed: int = 0):
    """A deterministic list of interesting node subsets of ``graph``."""
    nodes = list(graph.nodes())
    rng = random.Random(rng_seed)
    subsets = [set(nodes)] if nodes else []
    for size in range(1, min(len(nodes), 5) + 1):
        subsets.append(set(rng.sample(nodes, size)))
    return subsets


def detect(name: str, graph, seed=None, **params):
    """One-shot detection through the registry (the test-suite shorthand)."""
    request = DetectionRequest(graph=graph, seed=seed, params=params)
    return get_detector(name).detect(request)


@pytest.fixture
def contention():
    """Two pure-Python busy loops competing for the GIL, switched often."""
    done = threading.Event()

    def burn():
        while not done.is_set():
            sum(range(2000))

    burners = [threading.Thread(target=burn, daemon=True) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for burner in burners:
            burner.start()
        yield
    finally:
        done.set()
        for burner in burners:
            burner.join(timeout=5.0)
        sys.setswitchinterval(interval)

"""Unit tests for the CFinder / clique percolation baseline."""

import pytest

from repro import DetectionRequest, get_detector
from repro.baselines import clique_percolation
from repro.communities import Cover
from repro.errors import ConfigurationError
from repro.generators import complete_graph, cycle_graph, ring_of_cliques
from repro.graph import Graph

from .. import oracles


def cfinder(graph, **params):
    """The registered CFinder detector's cover on ``graph``."""
    request = DetectionRequest(graph=graph, params=params)
    return get_detector("cfinder").detect(request).cover


def test_single_clique_is_one_community():
    result = clique_percolation(complete_graph(5), k=3)
    assert result.cover == Cover([set(range(5))])
    assert result.maximal_cliques == 1


def test_ring_of_cliques_separated():
    g, truth = ring_of_cliques(4, 5)
    result = clique_percolation(g, k=3)
    assert result.cover == truth


def test_overlapping_chain_of_triangles():
    # Two triangles sharing an edge percolate into one community at k=3.
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    result = clique_percolation(g, k=3)
    assert result.cover == Cover([{0, 1, 2, 3}])


def test_disjoint_triangles_stay_separate():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])
    result = clique_percolation(g, k=3)
    assert result.cover == Cover([{0, 1, 2}, {10, 11, 12}])


def test_triangle_free_graph_has_no_k3_communities():
    result = clique_percolation(cycle_graph(6), k=3)
    assert len(result.cover) == 0


def test_k2_degenerates_to_components():
    g = Graph(edges=[(0, 1), (1, 2), (10, 11)])
    result = clique_percolation(g, k=2)
    assert result.cover == Cover([{0, 1, 2}, {10, 11}])


def test_k4_stricter_than_k3():
    g, _ = ring_of_cliques(3, 4)  # bridges create no K4
    at3 = clique_percolation(g, k=3).cover
    at4 = clique_percolation(g, k=4).cover
    assert len(at4) == 3
    assert at3 == at4  # cliques themselves are K4s


def test_k_validated():
    with pytest.raises(ConfigurationError):
        clique_percolation(Graph(), k=1)


@pytest.mark.parametrize("faithful_overlap", [True, False])
def test_matches_union_find_oracle(faithful_overlap):
    g, _ = ring_of_cliques(5, 5)
    g.add_edge(0, 7)
    g.add_edge(1, 7)
    expected = oracles.clique_percolation(g, k=3, faithful_overlap=faithful_overlap)
    assert clique_percolation(g, k=3).cover == expected


def test_cfinder_detector_returns_cover():
    g, truth = ring_of_cliques(4, 5)
    assert cfinder(g, k=3) == truth


def test_overlap_nodes_in_both_communities():
    from repro.generators import two_cliques_bridged

    g, truth = two_cliques_bridged(6, 2)
    cover = cfinder(g, k=3)
    # Shared nodes belong to one percolation community at k=3 (the two
    # cliques chain through the shared pair), or two if separated: either
    # way every node is covered.
    assert cover.covered_nodes() == set(g.nodes())


def test_elapsed_and_repr():
    result = clique_percolation(complete_graph(4), k=3)
    assert result.elapsed_seconds >= 0.0
    assert "CPMResult" in repr(result)

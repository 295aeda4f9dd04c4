"""Property-based tests on the baseline algorithms (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DetectionRequest, get_detector
from repro.baselines import (
    clique_percolation,
    greedy_modularity,
    maximal_cliques,
    natural_community,
)
from repro.graph import Graph

from .. import oracles
from ..conftest import edge_lists


def lfk_cover(graph, seed):
    request = DetectionRequest(graph=graph, seed=seed)
    return get_detector("lfk").detect(request).cover


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25), k=st.integers(2, 4))
def test_cpm_communities_are_unions_of_k_cliques(edges, k):
    """Every CPM community contains a clique of size >= k, and every
    member of a community belongs to such a clique inside it."""
    g = Graph(edges=edges)
    result = clique_percolation(g, k=k)
    cliques = [c for c in maximal_cliques(g) if len(c) >= k]
    for community in result.cover:
        members = set(community)
        inside = [c for c in cliques if c <= members]
        assert inside, "community without a supporting clique"
        covered = set()
        for clique in inside:
            covered |= clique
        assert covered == members


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25))
def test_cpm_matches_faithful_and_indexed_oracles(edges):
    g = Graph(edges=edges)
    cover = clique_percolation(g, k=3).cover
    assert cover == oracles.clique_percolation(g, k=3, faithful_overlap=True)
    assert cover == oracles.clique_percolation(g, k=3, faithful_overlap=False)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25), seed=st.integers(0, 3))
def test_lfk_cover_is_total_and_deterministic(edges, seed):
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    cover = lfk_cover(g, seed)
    assert cover.covered_nodes() == set(g.nodes())
    assert lfk_cover(g, seed) == cover
    assert cover == oracles.lfk(g, seed=seed)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=25))
def test_lfk_natural_community_is_local_optimum(edges):
    """No single removal improves the LFK fitness of a natural community
    (the addition side may admit zero-gain plateaus, which step A skips)."""
    from repro.core import LFKFitness

    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    node = next(iter(g.nodes()))
    community = natural_community(g, node)
    fitness = LFKFitness(alpha=1.0)
    state = oracles.CommunityState(g, community)
    current = state.value(fitness)
    if state.size > 1:
        for member in list(state.members):
            assert state.value_if_removed(member, fitness) <= current + 1e-9


@settings(max_examples=20, deadline=None)
@given(edges=edge_lists(max_nodes=10, max_edges=30))
def test_greedy_modularity_contract(edges):
    g = Graph(edges=edges)
    if g.number_of_edges() == 0:
        return
    result = greedy_modularity(g)
    # Disjoint, exhaustive, and modularity in valid range.
    assert result.partition.covered_nodes() == set(g.nodes())
    assert not result.partition.overlapping_nodes()
    assert -0.5 <= result.modularity <= 1.0

"""ArrayCommunityState must track exactly what the CommunityState oracle tracks.

The array state is the greedy hot path's only state, so its observable
surface — aggregates, per-node counters, and the argmax/argmin move
probes with their lowest-rank tie-breaking — must agree with the
label-keyed oracle on every reachable configuration.  These tests drive
both through identical mutation sequences and compare everything after
every step.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DirectedLaplacianFitness
from repro.core.state import ArrayCommunityState
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.generators import complete_graph, ring_of_cliques
from repro.graph import Graph, compile_graph

from ..conftest import edge_lists
from ..oracles import CommunityState

FITNESS = DirectedLaplacianFitness(c=0.4)


def frontier_of(array_state):
    """The array state's frontier as ``{id: member links}``."""
    ids = array_state.frontier_id_array()
    return dict(zip(ids.tolist(), array_state.frontier_gain_array(ids).tolist()))


def assert_states_agree(dict_state, array_state):
    """Every observable of the two implementations must match."""
    assert array_state.size == dict_state.size
    assert array_state.internal_edges == dict_state.internal_edges
    assert array_state.volume == dict_state.volume
    assert set(array_state.members) == dict_state.members
    assert frontier_of(array_state) == dict_state.frontier
    for node in dict_state.members:
        assert array_state.internal_degree_of(node) == (
            dict_state.internal_degree_of(node)
        )
    assert array_state.best_frontier_node() == dict_state.best_frontier_node()
    assert array_state.weakest_member() == dict_state.weakest_member()
    node = dict_state.best_frontier_node()
    if node is not None:
        assert array_state.value_if_added(node, FITNESS) == (
            dict_state.value_if_added(node, FITNESS)
        )
    node = dict_state.weakest_member()
    if node is not None and dict_state.size > 1:
        assert array_state.value_if_removed(node, FITNESS) == (
            dict_state.value_if_removed(node, FITNESS)
        )
    dict_state.verify()
    array_state.verify()


class TestAgainstDictState:
    def test_k5_initial_members(self):
        g = complete_graph(5)
        dict_state = CommunityState(g, [0, 1, 2])
        array_state = ArrayCommunityState(compile_graph(g), [0, 1, 2])
        assert_states_agree(dict_state, array_state)

    def test_ring_of_cliques_growth_sequence(self):
        g, _ = ring_of_cliques(4, 5)
        compiled = compile_graph(g)
        dict_state = CommunityState(g, [0])
        array_state = ArrayCommunityState(compiled, [0])
        for _ in range(6):
            node = dict_state.best_frontier_node()
            if node is None:
                break
            dict_state.add(node)
            array_state.add(node)
            assert_states_agree(dict_state, array_state)

    def test_remove_mirrors_dict_state(self):
        g = complete_graph(6)
        compiled = compile_graph(g)
        dict_state = CommunityState(g, [0, 1, 2, 3])
        array_state = ArrayCommunityState(compiled, [0, 1, 2, 3])
        dict_state.remove(1)
        array_state.remove(1)
        assert_states_agree(dict_state, array_state)
        dict_state.add(1)
        array_state.add(1)
        assert_states_agree(dict_state, array_state)


class TestArrayStateContracts:
    def test_add_duplicate_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        with pytest.raises(AlgorithmError):
            state.add(0)

    def test_add_unknown_id_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)))
        with pytest.raises(NodeNotFoundError):
            state.add(9)

    def test_remove_non_member_raises(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        with pytest.raises(AlgorithmError):
            state.remove(2)

    def test_contains_and_len(self):
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [1, 3])
        assert 1 in state and 3 in state
        assert 0 not in state and 99 not in state
        assert len(state) == 2

    def test_full_graph_has_no_frontier(self):
        state = ArrayCommunityState(
            compile_graph(complete_graph(3)), [0, 1, 2]
        )
        assert state.best_frontier_node() is None
        assert frontier_of(state) == {}

    def test_tie_breaks_choose_lowest_id(self):
        # K4: after seeding {0}, every other node has one member link.
        state = ArrayCommunityState(compile_graph(complete_graph(4)), [0])
        assert state.best_frontier_node() == 1
        state.add(1)
        # Members 0 and 1 both have internal degree 1: lowest id wins.
        assert state.weakest_member() == 0
        assert state.best_frontier_node() == 2


@settings(max_examples=40, deadline=None)
@given(
    edges=edge_lists(max_nodes=10, max_edges=30),
    moves=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_mutation_sequences_agree(edges, moves):
    """Random add/remove walks keep the two implementations in lockstep."""
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    compiled = compile_graph(g)
    rank = g.node_index()
    first = next(iter(g.nodes()))
    dict_state = CommunityState(g, [first])
    array_state = ArrayCommunityState(compiled, [rank[first]])
    rng = random.Random(moves)
    labels = list(g.nodes())
    for _ in range(12):
        if rng.random() < 0.7 or dict_state.size <= 1:
            candidates = [v for v in labels if v not in dict_state.members]
            if not candidates:
                break
            node = rng.choice(candidates)
            dict_state.add(node)
            array_state.add(rank[node])
        else:
            node = rng.choice(sorted(dict_state.members, key=rank.__getitem__))
            dict_state.remove(node)
            array_state.remove(rank[node])
        # Identity-labelled graphs let the comparison helper match node
        # names directly; non-identity ids are covered by the engine
        # equivalence suite.
        if compiled.identity_labels:
            assert_states_agree(dict_state, array_state)
        else:
            assert array_state.size == dict_state.size
            assert array_state.internal_edges == dict_state.internal_edges
            assert array_state.volume == dict_state.volume
            array_state.verify()
            dict_state.verify()

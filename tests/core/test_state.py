"""Unit and property tests for the CommunityState oracle's incremental tracking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DirectedLaplacianFitness
from repro.errors import AlgorithmError, NodeNotFoundError
from repro.generators import complete_graph, erdos_renyi, path_graph

from repro.graph import Graph

from ..conftest import edge_lists
from ..oracles import BucketQueue, CommunityState


class TestBucketQueue:
    def test_max_queue(self):
        q = BucketQueue(want_max=True)
        q.insert("a", 1)
        q.insert("b", 5)
        q.insert("c", 3)
        assert q.peek() == "b"
        assert q.peek_key() == 5

    def test_min_queue(self):
        q = BucketQueue(want_max=False)
        q.insert("a", 4)
        q.insert("b", 2)
        assert q.peek() == "b"
        assert q.peek_key() == 2

    def test_discard_repairs_extreme(self):
        q = BucketQueue(want_max=True)
        q.insert("a", 1)
        q.insert("b", 9)
        q.discard("b")
        assert q.peek() == "a"

    def test_adjust_moves_keys(self):
        q = BucketQueue(want_max=True)
        q.insert("a", 2)
        q.insert("b", 3)
        q.adjust("a", 5)
        assert q.peek() == "a"
        assert q.key_of("a") == 7

    def test_empty_peek_none(self):
        q = BucketQueue(want_max=True)
        assert q.peek() is None
        assert q.peek_key() is None

    def test_discard_absent_is_noop(self):
        q = BucketQueue(want_max=False)
        q.discard("ghost")
        assert len(q) == 0

    def test_double_insert_raises(self):
        q = BucketQueue(want_max=True)
        q.insert("a", 1)
        with pytest.raises(AlgorithmError):
            q.insert("a", 2)

    def test_contains_and_len(self):
        q = BucketQueue(want_max=True)
        q.insert("a", 1)
        assert "a" in q and "b" not in q
        assert len(q) == 1


class TestCommunityState:
    def test_initial_statistics(self, k5):
        state = CommunityState(k5, [0, 1, 2])
        assert state.size == 3
        assert state.internal_edges == 3
        assert state.volume == 12

    def test_frontier_counts(self, k5):
        state = CommunityState(k5, [0, 1])
        assert state.frontier == {2: 2, 3: 2, 4: 2}

    def test_add_updates_everything(self, k5):
        state = CommunityState(k5, [0])
        state.add(1)
        state.add(2)
        state.verify()
        assert state.internal_edges == 3

    def test_remove_reverses_add(self, k5):
        state = CommunityState(k5, [0, 1, 2])
        state.remove(1)
        state.verify()
        assert state.size == 2
        assert state.internal_edges == 1

    def test_add_member_twice_raises(self, k5):
        state = CommunityState(k5, [0])
        with pytest.raises(AlgorithmError):
            state.add(0)

    def test_remove_non_member_raises(self, k5):
        state = CommunityState(k5, [0])
        with pytest.raises(AlgorithmError):
            state.remove(3)

    def test_add_missing_node_raises(self, k5):
        state = CommunityState(k5, [0])
        with pytest.raises(NodeNotFoundError):
            state.add(99)

    def test_internal_degree_of(self, k5):
        state = CommunityState(k5, [0, 1, 2])
        assert state.internal_degree_of(0) == 2
        with pytest.raises(AlgorithmError):
            state.internal_degree_of(4)

    def test_best_frontier_node(self, path5):
        state = CommunityState(path5, [1, 2])
        # Frontier: 0 (1 link), 3 (1 link); both count 1.
        assert state.best_frontier_node() in {0, 3}

    def test_weakest_member(self):
        g = complete_graph(4)
        g.add_edge(0, 99)  # pendant
        state = CommunityState(g, [0, 1, 2, 99])
        assert state.weakest_member() == 99

    def test_value_if_added_matches_actual(self, k5):
        fitness = DirectedLaplacianFitness(c=0.2)
        state = CommunityState(k5, [0, 1])
        predicted = state.value_if_added(2, fitness)
        state.add(2)
        assert state.value(fitness) == pytest.approx(predicted)

    def test_value_if_removed_matches_actual(self, k5):
        fitness = DirectedLaplacianFitness(c=0.2)
        state = CommunityState(k5, [0, 1, 2])
        predicted = state.value_if_removed(2, fitness)
        state.remove(2)
        assert state.value(fitness) == pytest.approx(predicted)


@settings(max_examples=60)
@given(edges=edge_lists(max_nodes=10, max_edges=30), data=st.data())
def test_random_mutation_sequence_preserves_invariants(edges, data):
    """Fuzz add/remove sequences; verify() recomputes from scratch."""
    g = Graph(edges=edges)
    nodes = list(g.nodes())
    if not nodes:
        return
    state = CommunityState(g, [nodes[0]])
    for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
        frontier = list(state.frontier)
        members = list(state.members)
        moves = []
        if frontier:
            moves.append("add-frontier")
        if len(members) > 1:
            moves.append("remove")
        outside = [n for n in nodes if n not in state.members]
        if outside:
            moves.append("add-any")
        if not moves:
            break
        move = data.draw(st.sampled_from(moves))
        if move == "add-frontier":
            state.add(data.draw(st.sampled_from(frontier)))
        elif move == "remove":
            state.remove(data.draw(st.sampled_from(members)))
        else:
            state.add(data.draw(st.sampled_from(outside)))
    state.verify()

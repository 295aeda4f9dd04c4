"""OCA on the CSR kernel vs OCA on the label-keyed oracle kernel.

The greedy climb runs only on :class:`~repro.core.state.ArrayCommunityState`.
These tests run whole detections twice — once as shipped, once with
every climb routed through the dict-and-set oracle of ``tests/oracles.py``
— and demand identical covers, raw covers, fitness values and run
counts, for every seed, worker count and backend.  The LFK-fitness
ablation (non-monotone, full-frontier scans) is included.
"""

import pytest
from hypothesis import given, settings

from repro import OCA, OCAConfig
from repro.core import LFKFitness
from repro.generators import (
    LFRParams,
    daisy_tree,
    karate_club,
    lfr_graph,
    ring_of_cliques,
)
from repro.graph import Graph

from .. import oracles
from ..conftest import edge_lists


def run_on_oracle(graph, seed, **config):
    """OCA with every growth task climbed by the oracle (serial engine)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.tasks.grow_community", oracles.oracle_kernel)
        return OCA(OCAConfig(**config)).run(graph, seed=seed)


def assert_identical(reference, result):
    assert result.cover == reference.cover
    assert result.raw_cover == reference.raw_cover
    assert result.fitness_values == reference.fitness_values
    assert result.runs == reference.runs
    assert result.c == reference.c


GRAPHS = {
    "daisy": (lambda: daisy_tree(flowers=5, seed=7).graph, 7, 16),
    "ring": (lambda: ring_of_cliques(5, 6)[0], 11, 16),
    "lfr": (lambda: lfr_graph(LFRParams(n=300, mu=0.2), seed=5).graph, 5, 32),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    build, seed, batch_size = GRAPHS[request.param]
    graph = build()
    reference = run_on_oracle(graph, seed, batch_size=batch_size)
    return graph, seed, batch_size, reference


class TestAcceptanceMatrix:
    """daisy/ring/LFR x serial/process x workers {1, 2, 8}."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_identical_to_oracle(self, case, backend, workers):
        graph, seed, batch_size, reference = case
        config = OCAConfig(backend=backend, workers=workers, batch_size=batch_size)
        assert_identical(reference, OCA(config).run(graph, seed=seed))


class TestOracleAgreement:
    def test_string_labelled_graph(self):
        g = Graph()
        for flower in range(4):
            hub = f"hub{flower}"
            for petal in range(5):
                leaf = f"n{flower}.{petal}"
                g.add_edge(hub, leaf)
                g.add_edge(leaf, f"n{flower}.{(petal + 1) % 5}")
        for flower in range(4):
            g.add_edge(f"hub{flower}", f"hub{(flower + 1) % 4}")
        assert_identical(
            run_on_oracle(g, 3, batch_size=4),
            OCA(OCAConfig(batch_size=4)).run(g, seed=3),
        )

    def test_seed_sweep(self):
        ring = ring_of_cliques(5, 6)[0]
        for seed in range(5):
            assert_identical(run_on_oracle(ring, seed), OCA().run(ring, seed=seed))

    @pytest.mark.parametrize(
        "graph",
        [
            karate_club()[0],
            ring_of_cliques(4, 6)[0],
            daisy_tree(flowers=4, seed=3).graph,
            lfr_graph(LFRParams(n=300, max_degree=30), seed=7).graph,
        ],
        ids=["karate", "ring", "daisy", "lfr300"],
    )
    def test_lfk_fitness_ablation(self, graph):
        fitness = LFKFitness(alpha=1.0)
        for seed in range(3):
            assert_identical(
                run_on_oracle(graph, seed, fitness=fitness),
                OCA(OCAConfig(fitness=fitness)).run(graph, seed=seed),
            )


def test_representation_option_is_gone():
    with pytest.raises(TypeError):
        OCAConfig(representation="dict")
    assert not hasattr(OCA().run(ring_of_cliques(3, 4)[0], seed=0).engine_stats,
                       "representation")


@settings(max_examples=15, deadline=None)
@given(edges=edge_lists(max_nodes=12, max_edges=36))
def test_random_graphs_identical_to_oracle(edges):
    g = Graph(edges=edges)
    if g.number_of_nodes() == 0:
        return
    assert_identical(
        run_on_oracle(g, 13, batch_size=4),
        OCA(OCAConfig(batch_size=4)).run(g, seed=13),
    )

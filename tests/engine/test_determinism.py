"""The engine's headline guarantee: covers never depend on parallelism.

``OCA(OCAConfig(workers=k)).run(g, seed=S)`` must return an identical
cover for any worker count and any backend — both at the default
``batch_size`` (1, the exact sequential semantics) and under real
speculative batching.
"""

import pytest

from repro import OCA, OCAConfig
from repro.generators import LFRParams, daisy_tree, lfr_graph, ring_of_cliques


@pytest.fixture(scope="module")
def daisy():
    return daisy_tree(flowers=5, seed=7).graph


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(5, 6)[0]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_daisy_same_cover_any_worker_count(self, daisy, workers):
        baseline = OCA(OCAConfig(batch_size=16)).run(daisy, seed=7)
        result = OCA(OCAConfig(workers=workers, batch_size=16)).run(daisy, seed=7)
        assert result.cover == baseline.cover
        assert result.raw_cover == baseline.raw_cover
        assert result.runs == baseline.runs

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_ring_same_cover_any_worker_count(self, ring, workers):
        baseline = OCA(OCAConfig(batch_size=16)).run(ring, seed=11)
        result = OCA(OCAConfig(workers=workers, batch_size=16)).run(ring, seed=11)
        assert result.cover == baseline.cover

    def test_default_batch_matches_plain_sequential(self, daisy):
        assert (
            OCA(OCAConfig(workers=8)).run(daisy, seed=7).cover
            == OCA().run(daisy, seed=7).cover
        )


class TestBackendInvariance:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_same_cover_any_backend(self, daisy, backend):
        baseline = OCA(OCAConfig(batch_size=16)).run(daisy, seed=7)
        config = OCAConfig(workers=2, backend=backend, batch_size=16)
        result = OCA(config).run(daisy, seed=7)
        assert result.cover == baseline.cover
        assert result.fitness_values == baseline.fitness_values

    def test_engine_stats_report_resolved_backend(self, daisy):
        auto = OCA(OCAConfig(workers=2, batch_size=8)).run(daisy, seed=7)
        assert auto.engine_stats.backend == "process"
        assert auto.engine_stats.workers == 2
        serial = OCA().run(daisy, seed=7)
        assert serial.engine_stats.backend == "serial"


class TestLFRInvariance:
    def test_lfr_cover_invariant_under_parallelism(self):
        graph = lfr_graph(LFRParams(n=300, mu=0.2), seed=5).graph
        baseline = OCA(OCAConfig(batch_size=32)).run(graph, seed=5)
        parallel = OCA(OCAConfig(workers=2, batch_size=32)).run(graph, seed=5)
        assert parallel.cover == baseline.cover

    def test_repeated_parallel_runs_identical(self, daisy):
        a = OCA(OCAConfig(workers=2, batch_size=8)).run(daisy, seed=3)
        b = OCA(OCAConfig(workers=2, batch_size=8)).run(daisy, seed=3)
        assert a.cover == b.cover
        assert a.c == pytest.approx(b.c)

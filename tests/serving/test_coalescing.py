"""Same-fingerprint request coalescing in the ServingQueue (ISSUE 7).

A dequeuing worker opportunistically drains further queued requests for
the same graph fingerprint (up to the ``coalesce`` bound) and serves
the whole group back-to-back on that graph's warm session.  These tests
pin the contract: grouping is invisible in results (covers, deadlines,
traces, future resolution are per-request), visible in accounting
(``coalesced`` counter, ``coalesce_batch`` histogram/stats/trace mark),
and never loses or reorders a request relative to its own fingerprint.
"""

import threading
import time

import pytest

from repro import ServeRequest, ServingQueue, SessionManager
from repro.errors import ConfigurationError, DeadlineExceeded
from repro.generators import ring_of_cliques
from repro.observability import new_trace


@pytest.fixture()
def graph():
    g, _ = ring_of_cliques(4, 5)
    return g


class _RecordingManager:
    """Manager stub recording dispatch order; optional per-call latch."""

    def __init__(self, block_first=False):
        self.calls = []
        self.release = threading.Event()
        self.started = threading.Event()
        self._block_first = block_first
        self._first = True

    def detect(self, graph, algorithm, seed=None, **params):
        if self._block_first and self._first:
            self._first = False
            self.started.set()
            self.release.wait(timeout=30)
        self.calls.append(graph)

        class _Result:
            stats = {}
            cover = []
            elapsed_seconds = 0.0

        return _Result()


def _drain_with_worker_parked(queue, manager, requests):
    """Submit ``requests`` while the single worker is parked on a decoy.

    Returns the futures; the queue contents coalesce deterministically
    once the decoy's detect is released.
    """
    decoy = queue.submit(ServeRequest(graph="decoy"))
    manager.started.wait(timeout=30)
    futures = [queue.submit(request) for request in requests]
    manager.release.set()
    return [decoy] + futures


class TestGrouping:
    def test_same_fingerprint_requests_coalesce(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
        try:
            futures = _drain_with_worker_parked(
                queue, manager, [ServeRequest(graph="g") for _ in range(5)]
            )
            for future in futures:
                future.result(timeout=30)
            assert queue.stats.coalesced == 4  # one leader + 4 piggybackers
        finally:
            queue.close()

    def test_coalesce_bound_caps_the_group(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=3)
        try:
            futures = _drain_with_worker_parked(
                queue, manager, [ServeRequest(graph="g") for _ in range(5)]
            )
            for future in futures:
                future.result(timeout=30)
            # Groups of 3 then 2: piggybackers = 2 + 1.
            assert queue.stats.coalesced == 3
        finally:
            queue.close()

    def test_coalesce_one_disables_grouping(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=1)
        try:
            futures = _drain_with_worker_parked(
                queue, manager, [ServeRequest(graph="g") for _ in range(4)]
            )
            for future in futures:
                future.result(timeout=30)
            assert queue.stats.coalesced == 0
        finally:
            queue.close()

    def test_mismatch_breaks_the_group_but_is_still_served(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
        try:
            requests = [
                ServeRequest(graph="a"),
                ServeRequest(graph="a"),
                ServeRequest(graph="b"),  # carried, then leads its own group
                ServeRequest(graph="b"),
                ServeRequest(graph="a"),
            ]
            futures = _drain_with_worker_parked(queue, manager, requests)
            for future in futures:
                future.result(timeout=30)
            # Order within the queue is preserved: a, a, then b, b, then a.
            assert manager.calls == ["decoy", "a", "a", "b", "b", "a"]
            assert queue.stats.coalesced == 2  # one "a" + one "b" piggyback
        finally:
            queue.close()

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="coalesce"):
            ServingQueue(_RecordingManager(), coalesce=0)


class TestPerRequestSemantics:
    def test_every_member_resolves_with_its_own_result(self, graph):
        with SessionManager(max_sessions=2) as manager:
            with ServingQueue(
                manager, workers=1, max_depth=16,
                coalesce=4, registry=manager.registry,
            ) as queue:
                futures = [
                    queue.submit(ServeRequest(graph=graph, seed=7))
                    for _ in range(5)
                ]
                covers = [f.result(timeout=60).cover for f in futures]
        assert all(cover == covers[0] for cover in covers)

    def test_group_members_keep_their_deadline_checks(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
        try:
            doomed = ServeRequest(
                graph="g",
                deadline_seconds=0.001,
                arrived_at=time.perf_counter() - 1.0,  # already expired
            )
            futures = _drain_with_worker_parked(
                queue, manager, [ServeRequest(graph="g"), doomed]
            )
            assert futures[1].result(timeout=30) is not None
            with pytest.raises(DeadlineExceeded):
                futures[2].result(timeout=30)
            assert queue.stats.expired_queue == 1
        finally:
            queue.close()

    def test_coalesce_batch_lands_in_stats_and_trace(self, graph):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
        try:
            traces = [new_trace(), new_trace()]
            requests = [
                ServeRequest(graph="g", trace=trace) for trace in traces
            ]
            futures = _drain_with_worker_parked(queue, manager, requests)
            results = [f.result(timeout=30) for f in futures]
            assert results[1].stats["coalesce_batch"] == 2
            assert results[2].stats["coalesce_batch"] == 2
            assert all(t.export()["coalesce_batch"] == 2 for t in traces)
        finally:
            queue.close()

    def test_singleton_dispatch_has_no_coalesce_annotation(self, graph):
        with SessionManager(max_sessions=2) as manager:
            with ServingQueue(
                manager, workers=1, coalesce=8, registry=manager.registry
            ) as queue:
                result = queue.submit(
                    ServeRequest(graph=graph, seed=7)
                ).result(timeout=60)
        assert "coalesce_batch" not in result.stats


class TestShutdown:
    def test_close_drains_coalesced_backlog(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=4)
        futures = _drain_with_worker_parked(
            queue, manager, [ServeRequest(graph="g") for _ in range(6)]
        )
        queue.close(drain=True)
        assert all(f.done() for f in futures)
        assert queue.stats.completed == 7

    def test_non_drain_close_cancels_pending_members(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=4)
        decoy = queue.submit(ServeRequest(graph="decoy"))
        manager.started.wait(timeout=30)
        pending = [queue.submit(ServeRequest(graph="g")) for _ in range(3)]
        closer = threading.Thread(target=queue.close, kwargs={"drain": False})
        closer.start()
        time.sleep(0.05)
        manager.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert decoy.result(timeout=30) is not None
        assert all(f.cancelled() or f.done() for f in pending)

    def test_metrics_render_in_prometheus_exposition(self):
        manager = _RecordingManager(block_first=True)
        queue = ServingQueue(manager, workers=1, max_depth=16, coalesce=8)
        try:
            futures = _drain_with_worker_parked(
                queue, manager, [ServeRequest(graph="g") for _ in range(3)]
            )
            for future in futures:
                future.result(timeout=30)
        finally:
            queue.close()
        text = queue.registry.render()
        assert "repro_queue_coalesced_total 2" in text
        assert "repro_queue_coalesce_batch_bucket" in text


class TestCrossWorkerOrdering:
    def test_same_fingerprint_dispatch_follows_submission_order(self, contention):
        """With several workers, a later request never reaches the manager
        before an earlier one with the same fingerprint: here an inline
        graph the queue must hash first, then the same graph by its
        fingerprint string, which needs no hashing at all."""
        from repro.serving import graph_fingerprint

        fingerprint = graph_fingerprint(ring_of_cliques(300, 8)[0])
        for _ in range(10):
            manager = _RecordingManager()
            queue = ServingQueue(manager, workers=2, max_depth=16)
            try:
                inline = ring_of_cliques(300, 8)[0]
                futures = [
                    queue.submit(ServeRequest(graph=inline)),
                    queue.submit(ServeRequest(graph=fingerprint)),
                ]
                for future in futures:
                    future.result(timeout=30)
                assert manager.calls[0] is inline
                assert manager.calls[1] == fingerprint
            finally:
                queue.close()

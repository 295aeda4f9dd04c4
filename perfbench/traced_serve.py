"""Traced server bootstrap: ``python perfbench/traced_serve.py serve ...``.

Runs exactly ``python -m repro serve ...`` after wrapping the public
entry points of each layer *where their callers look them up*, so no
file of the program changes.  Two private queue methods are wrapped as
well: ``_serve_one`` (the only call that holds both a request and the
worker thread serving it) and ``_fingerprint_of`` (the coalescing key the
worker computes before dispatch).  Every wrapped call records one span::

    [span_id, parent_id, name, request_id, start, end, attrs]

``parent_id`` is the innermost wrapped call still open on the same
thread.  ``request_id`` is read from the call's own arguments where the
request is visible (parse, submit, queue dispatch, render); calls made
while a queue worker serves a request inherit that request's id from
the serving thread.  Spans stay in memory and are written as JSON lines
to ``$PERFBENCH_SPANS`` when the server exits (SIGINT).  Times are
``time.perf_counter()`` (CLOCK_MONOTONIC), comparable with the client's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


class SpanRecorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function, request_of=None, attrs_of=None, serves=False):
        """A wrapper recording one ``name`` span per call of ``function``.

        ``request_of(args, kwargs, result)`` names the request when the
        call can see it; ``attrs_of(args, kwargs, result, start)`` adds
        counts.  ``serves`` marks the queue dispatch: calls nested in it
        on the same thread inherit its request id.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            inherited = getattr(recorder._local, "request", None)
            if serves:
                recorder._local.request = request_of(args, kwargs, None)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if serves:
                    recorder._local.request = inherited
                request = inherited
                if request_of is not None:
                    try:
                        request = request_of(args, kwargs, result)
                    except Exception:
                        request = inherited
                attrs = None
                if attrs_of is not None:
                    try:
                        attrs = attrs_of(args, kwargs, result, start)
                    except Exception as error:
                        attrs = {"attrs_error": repr(error)}
                recorder.spans.append(
                    [span_id, parent, name, request, start, end, attrs]
                )

        return wrapper

    def dump(self, path: str) -> None:
        target = Path(path)
        partial = target.with_name(target.name + ".part")
        with open(partial, "w", encoding="utf-8") as stream:
            for span in list(self.spans):
                stream.write(json.dumps(span) + "\n")
        os.replace(partial, target)


def _item_request(item):
    if isinstance(item, dict):
        return item.get("id")
    return getattr(item, "request_id", getattr(item, "id", None))


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's entry points in the modules that call them."""
    # import_module, not ``import a.b as c``: ``repro.core.oca`` is also
    # the name of a function the package re-exports.
    from importlib import import_module

    core_oca = import_module("repro.core.oca")
    builtin = import_module("repro.detectors.builtin")
    session_module = import_module("repro.detectors.session")
    engine_module = import_module("repro.engine.engine")
    tasks_module = import_module("repro.engine.tasks")
    fingerprint_module = import_module("repro.serving.fingerprint")
    manager_module = import_module("repro.serving.manager")
    queue_module = import_module("repro.serving.queue")
    service_module = import_module("repro.serving.service")
    store_module = import_module("repro.store.store")

    wrap = recorder.wrap

    def patch(owner, attribute, name, **options):
        setattr(owner, attribute, wrap(name, getattr(owner, attribute), **options))

    # core: the growth kernel (called per task by the engine), the
    # spectral inner-product resolution and post-processing (by OCA.run).
    patch(
        tasks_module, "grow_community", "grow",
        attrs_of=lambda a, k, r, s: {"moves": r.steps},
    )
    patch(
        core_oca, "shared_admissible_c", "spectral",
        attrs_of=lambda a, k, r, s: {"hit": bool(r[1])},
    )
    patch(core_oca, "postprocess", "postprocess")
    # engine
    patch(
        engine_module.ExecutionEngine, "run", "engine.run",
        attrs_of=lambda a, k, r, s: {
            "tasks": r.run_stats.runs,
            "duplicates": r.duplicate_runs,
            "discarded": r.discarded_small,
        },
    )
    # graph: compile, wherever a layer calls it.
    for module in (core_oca, builtin, session_module, fingerprint_module, store_module):
        patch(module, "compile_graph", "compile")
    # serving.fingerprint, wherever a layer calls it (the queue imports
    # it from the fingerprint module at call time).
    for module in (fingerprint_module, manager_module, store_module):
        patch(module, "graph_fingerprint", "fingerprint")
    # detection: label translation, and the baseline detectors.
    patch(builtin, "translate_cover", "translate")
    patch(builtin.LFKDetector, "detect", "baseline.lfk")
    patch(builtin.CFinderDetector, "detect", "baseline.cfinder")
    # detectors: the warm session.
    session_cls = session_module.GraphSession
    patch(
        session_cls, "detect", "session.detect",
        attrs_of=lambda a, k, r, s: {
            "algorithm": a[1] if len(a) > 1 else k.get("algorithm", "oca")
        },
    )
    patch(session_cls, "__init__", "session.bind")
    patch(session_cls, "close", "session.close")
    # serving.manager
    patch(
        manager_module.SessionManager, "detect", "manager.detect",
        attrs_of=lambda a, k, r, s: {
            "hit": bool(r.stats.get("session_hit")),
            "source": r.stats.get("session_source"),
        },
    )
    # store
    store_cls = store_module.GraphStore
    patch(
        store_cls, "load", "store.load",
        attrs_of=lambda a, k, r, s: {
            "bytes": (a[0].entry_bytes(a[1]) or 0) if r is not None else 0
        },
    )
    patch(
        store_cls, "save", "store.save",
        attrs_of=lambda a, k, r, s: {
            "bytes": (a[0].entry_bytes(k["fingerprint"]) or 0)
            if r and k.get("fingerprint")
            else 0
        },
    )
    # serving.service: parse and render (the front-ends' shared funnel).
    service_cls = service_module.ServingService
    patch(
        service_cls, "parse_line", "service.parse",
        request_of=lambda a, k, r: _item_request(r),
    )
    patch(
        service_cls, "render_response", "service.render",
        request_of=lambda a, k, r: _item_request(a[1]),
    )
    # serving.queue: admission (depth after enqueue) and the per-request
    # dispatch, the one place a request and its worker thread meet.
    queue_cls = queue_module.ServingQueue
    for attribute in ("submit", "submit_blocking"):
        patch(
            queue_cls, attribute, "queue.submit",
            request_of=lambda a, k, r: a[1].id,
            attrs_of=lambda a, k, r, s: {"depth": a[0].depth},
        )
    # The coalescing key (a fingerprint, so possibly a compile) is taken
    # by the queue worker before dispatch, on the request's behalf.
    queue_cls._fingerprint_of = staticmethod(
        wrap(
            "queue.key", queue_cls._fingerprint_of,
            request_of=lambda a, k, r: a[0][0].id,
            serves=True,
        )
    )
    patch(
        queue_cls, "_serve_one", "queue.serve",
        request_of=lambda a, k, r: a[1][0].id,
        attrs_of=lambda a, k, r, s: {"wait": s - a[1][2], "group": a[2]},
        serves=True,
    )


def main(argv) -> int:
    target = os.environ.get("PERFBENCH_SPANS")
    if not target:
        print("traced_serve: set PERFBENCH_SPANS to the span output path", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(target)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

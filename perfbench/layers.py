"""Per-layer metrics from the traced server's spans and the client records.

A span's self time is its duration minus the durations of its direct
children (children run nested on the same thread, so they never
overlap each other).  Self times are summed per request and layer;
a ``*.self_s`` metric is the median over the measured requests that
entered that layer (0 when none did).  Counts are medians per request
too, except the totals (``spectral.solves``, ``manager.evictions``,
``queue.refused``), the peak (``queue.depth_peak``) and the shares.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Span name -> layer key used in ``<layer>.self_s``.
SELF_LAYERS = {
    "grow": "grow",
    "engine.run": "engine.run",
    "postprocess": "postprocess",
    "translate": "translate",
    "spectral": "spectral.solve",
    "compile": "graph.compile",
    "fingerprint": "fingerprint",
    "service.parse": "service.parse",
    "service.render": "service.render",
    "store.save": "store.save",
    "store.load": "store.load",
    "session.bind": "session.bind",
    "manager.detect": "manager.acquire",
    "baseline.lfk": "baseline.lfk",
    "baseline.cfinder": "baseline.cfinder",
}

#: The per-layer metrics every traced run reports, with their units.
PER_LAYER_UNITS = {
    "grow.self_s": "s",
    "grow.moves": "count",
    "grow.us_per_move": "us",
    "engine.run.self_s": "s",
    "engine.tasks": "count",
    "engine.discard_frac": "frac",
    "engine.duplicate_frac": "frac",
    "postprocess.self_s": "s",
    "translate.self_s": "s",
    "session.detect_s.oca": "s",
    "spectral.solve.self_s": "s",
    "spectral.solves": "count",
    "spectral.cache_hit_frac": "frac",
    "graph.compile.self_s": "s",
    "fingerprint.self_s": "s",
    "service.parse.self_s": "s",
    "frontend.http.self_s": "s",
    "store.save.self_s": "s",
    "store.save_bytes": "bytes",
    "session.bind.self_s": "s",
    "store.load.self_s": "s",
    "store.load_bytes": "bytes",
    "manager.acquire.self_s": "s",
    "manager.hit_frac": "frac",
    "manager.evictions": "count",
    "queue.wait_p50_s": "s",
    "queue.wait_p90_s": "s",
    "queue.coalesced_frac": "frac",
    "queue.depth_peak": "count",
    "queue.refused": "count",
    "baseline.lfk.self_s": "s",
    "baseline.cfinder.self_s": "s",
    "frontend.socket.self_s": "s",
    "service.render.self_s": "s",
    "service.render.bytes": "bytes",
    "loadgen.lag_max_s": "s",
    "trace.overhead_frac": "frac",
}


def load_spans(path: Path) -> List[list]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations."""
    spans = list(spans)
    durations = {span[0]: span[5] - span[4] for span in spans}
    own = dict(durations)
    for span in spans:
        parent = span[1]
        if parent in own:
            own[parent] -= durations[span[0]]
    return own


def _covered(intervals: List[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``.

    Server spans of one request can overlap (a worker's span ends after
    the loop thread has already started rendering), and client and
    server share CLOCK_MONOTONIC, so the union inside the client's
    window is the server-side share of what the client waited.
    """
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer_metrics(
    spans: List[list],
    requests: Dict[str, dict],
    frontend: str,
    overhead_frac: float,
    lag_max_s: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every per-layer metric from the traced phase, and the median
    per-request share of OCA detect time spent in the growth kernel.

    ``requests`` maps each measured request id to its client view:
    ``sent`` and ``done`` (client clock), ``bytes`` (response size) and
    ``outcome`` (``ok`` / ``refused`` / ``error`` / ``timeout``).
    """
    own = self_times(spans)
    by_request: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[3] in requests:
            by_request[span[3]].append(span)

    layer_self: Dict[str, List[float]] = defaultdict(list)
    per_request: Dict[str, List[float]] = defaultdict(list)
    waits: List[float] = []
    groups: List[int] = []
    depths: List[int] = [0]
    manager_hits: List[bool] = []
    spectral_hits: List[bool] = []
    save_bytes: List[int] = []
    load_bytes: List[int] = []
    evictions = 0
    frontend_self: List[float] = []

    for request_id, request_spans in by_request.items():
        sums: Dict[str, float] = defaultdict(float)
        entered = set()
        moves = tasks = duplicates = discarded = 0
        oca_detect = 0.0
        key_seconds = 0.0
        wait: Optional[float] = None
        server: List[tuple] = []
        for span in request_spans:
            name, attrs = span[2], span[6] or {}
            layer = SELF_LAYERS.get(name)
            if layer is not None:
                sums[layer] += own[span[0]]
                entered.add(layer)
            if name == "grow":
                moves += attrs.get("moves", 0)
            elif name == "engine.run":
                tasks += attrs.get("tasks", 0)
                duplicates += attrs.get("duplicates", 0)
                discarded += attrs.get("discarded", 0)
            elif name == "session.detect" and attrs.get("algorithm") == "oca":
                oca_detect += span[5] - span[4]
            elif name == "manager.detect":
                manager_hits.append(bool(attrs.get("hit")))
            elif name == "spectral":
                spectral_hits.append(bool(attrs.get("hit")))
            elif name == "store.save":
                save_bytes.append(attrs.get("bytes", 0))
            elif name == "store.load":
                load_bytes.append(attrs.get("bytes", 0))
            elif name == "session.close":
                evictions += 1
            elif name == "queue.submit":
                depths.append(attrs.get("depth", 0))
            elif name == "queue.key":
                key_seconds += span[5] - span[4]
            elif name == "queue.serve":
                wait = attrs.get("wait", 0.0)
                groups.append(attrs.get("group", 1))
                server.append((span[4] - wait, span[5]))
            if name in ("service.parse", "service.render"):
                server.append((span[4], span[5]))
        if wait is not None:
            # The queue clocks its wait from arrival to dispatch, which
            # includes the coalescing-key fingerprint the worker takes
            # first; that is fingerprint/compile time, not waiting.
            waits.append(wait - key_seconds)
        for layer in entered:
            layer_self[layer].append(sums[layer])
        if moves:
            per_request["grow.moves"].append(moves)
            per_request["grow.us_per_move"].append(sums["grow"] / moves * 1e6)
        if tasks:
            per_request["engine.tasks"].append(tasks)
            per_request["engine.discard_frac"].append(discarded / tasks)
            per_request["engine.duplicate_frac"].append(duplicates / tasks)
        if oca_detect:
            per_request["session.detect_s.oca"].append(oca_detect)
            per_request["grow_share"].append(sums["grow"] / oca_detect)
        client = requests[request_id]
        if client["outcome"] == "ok":
            inside = _covered(server, client["sent"], client["done"])
            frontend_self.append(client["done"] - client["sent"] - inside)

    metrics = {
        f"{layer}.self_s": _median(layer_self[layer]) for layer in SELF_LAYERS.values()
    }
    for name in (
        "grow.moves",
        "grow.us_per_move",
        "engine.tasks",
        "engine.discard_frac",
        "engine.duplicate_frac",
        "session.detect_s.oca",
    ):
        metrics[name] = _median(per_request[name])
    metrics["spectral.solves"] = sum(1 for hit in spectral_hits if not hit)
    metrics["spectral.cache_hit_frac"] = (
        sum(spectral_hits) / len(spectral_hits) if spectral_hits else 0.0
    )
    metrics["store.save_bytes"] = _median(save_bytes)
    metrics["store.load_bytes"] = _median(load_bytes)
    metrics["manager.hit_frac"] = (
        sum(manager_hits) / len(manager_hits) if manager_hits else 0.0
    )
    metrics["manager.evictions"] = evictions
    metrics["queue.wait_p50_s"] = _median(waits)
    metrics["queue.wait_p90_s"] = _p90(waits)
    metrics["queue.coalesced_frac"] = (
        sum(1 for group in groups if group > 1) / len(groups) if groups else 0.0
    )
    metrics["queue.depth_peak"] = max(depths)
    metrics["queue.refused"] = sum(
        1 for client in requests.values() if client["outcome"] == "refused"
    )
    for kind in ("http", "socket"):
        metrics[f"frontend.{kind}.self_s"] = (
            _median(frontend_self) if kind == frontend else 0.0
        )
    metrics["service.render.bytes"] = _median(
        [client["bytes"] for client in requests.values() if client["outcome"] == "ok"]
    )
    metrics["loadgen.lag_max_s"] = lag_max_s
    metrics["trace.overhead_frac"] = overhead_frac
    shares = {"grow_of_oca_detect": _median(per_request["grow_share"])}
    missing = set(PER_LAYER_UNITS) - set(metrics)
    extra = set(metrics) - set(PER_LAYER_UNITS)
    if missing or extra:
        raise RuntimeError(f"per-layer metric set drift: {missing} / {extra}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}, shares

"""Seeded, disk-cached benchmark inputs and the in-process reference covers.

Two LFR families, both after the ``benchmarks/bench_csr.py`` formula
(mixing 0.3, community sizes and degrees scaled with ``n``):

``disjoint``
    The classic benchmark: every node in one planted community.
``overlap``
    The same with ``on = n // 10`` nodes in ``om = 2`` communities each.

A graph is keyed by family, ``n`` and graph seed.  Its edge list is
written once under the cache directory and reused by every later run
that draws the same key; generation time is measured per run and
reported beside ``setup_s``, never inside it.

The reference cover of a request is what an in-process
:class:`repro.detectors.GraphSession` returns for the same graph,
algorithm and seed.  The graph is built the way the server builds it
from the request: ``read_edge_list`` for a path, ``Graph.add_edge`` in
edge order for an inline ``{"edges": ...}`` body, so node insertion
order (which breaks ties in the greedy climb) is the same on both sides.
An inline body is cached as its JSON fragment, so a request costs the
client one file read.
References are cached next to the graphs and computed by a few worker
processes (``python3 perfbench/inputs.py JOB``, jobs as JSON on stdin)
after the measured phase, never while the server is being timed.  The
workers are plain subprocesses, each waited for: a ``multiprocessing``
pool would leave its resource-tracker process running past the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Worker processes for generation and reference covers (the benchmark
#: host has 2 CPUs; neither step overlaps a measured phase).
POOL_WORKERS = 2


def lfr_params(family: str, n: int):
    """The LFR parameters of one family at size ``n``."""
    from repro.generators import LFRParams

    if family not in ("disjoint", "overlap"):
        raise ValueError(f"unknown graph family {family!r}")
    return LFRParams(
        n=n,
        mu=0.3,
        average_degree=min(40.0, max(8.0, n / 25)),
        max_degree=min(100, max(20, n // 10)),
        min_community=min(60, max(10, n // 20)),
        max_community=min(120, max(20, n // 10)),
        on=n // 10 if family == "overlap" else 0,
        om=2,
    )


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed from any printable parts."""
    text = "\x1f".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def graph_key(family: str, n: int, seed: int) -> str:
    return f"{family}-n{n}-s{seed}"


class InputCache:
    """Edge lists and reference covers under one cache directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.graphs = self.root / "graphs"
        self.refs = self.root / "refs"
        self.graphs.mkdir(parents=True, exist_ok=True)
        self.refs.mkdir(parents=True, exist_ok=True)

    def edge_path(self, key: str) -> Path:
        return self.graphs / f"{key}.edges"

    def inline_path(self, key: str) -> Path:
        """The ``{"edges": [[u, v], ...]}`` body fragment of a graph."""
        return self.graphs / f"{key}.inline.json"

    def ref_path(self, key: str, form: str, algorithm: str, seed: int) -> Path:
        return self.refs / f"{key}-{form}-{algorithm}-{seed}.json"

    def ensure_graphs(self, specs: Sequence[Tuple[str, int, int]], inline: bool = False) -> float:
        """Generate every missing ``(family, n, seed)`` edge list (and,
        with ``inline``, its JSON body fragment).

        Returns the wall time spent generating (0 when all were cached).
        """
        def present(key: str) -> bool:
            return self.edge_path(key).is_file() and (
                not inline or self.inline_path(key).is_file()
            )

        missing = [spec for spec in specs if not present(graph_key(*spec))]
        if not missing:
            return 0.0
        started = time.perf_counter()
        jobs = [(str(self.graphs), *spec) for spec in missing]
        _pool_map(_generate_job, jobs)
        return time.perf_counter() - started

    def references(
        self, wanted: Iterable[Tuple[str, str, str, int]]
    ) -> Dict[Tuple[str, str, str, int], dict]:
        """Reference ``{"fingerprint", "cover"}`` per (key, form, alg, seed).

        ``form`` is ``path`` or ``inline``: how the request carried the
        graph to the server.
        """
        wanted = sorted(set(wanted))
        todo: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
        for key, form, algorithm, seed in wanted:
            if not self.ref_path(key, form, algorithm, seed).is_file():
                todo.setdefault((key, form), []).append((algorithm, seed))
        if todo:
            jobs = [
                (str(self.edge_path(key)), str(self.refs), key, form, calls)
                for (key, form), calls in sorted(todo.items())
            ]
            _pool_map(_reference_job, jobs)
        return {
            item: json.loads(self.ref_path(*item).read_text())
            for item in wanted
        }


def canonical_cover(communities: Iterable[Iterable[int]]) -> List[List[int]]:
    """Sorted members, sorted communities: the order-free cover identity."""
    return sorted(sorted(community) for community in communities)


# ----------------------------------------------------------------------
# Worker jobs (module level: a worker runs them by name)
# ----------------------------------------------------------------------
def _pool_map(function, jobs: list) -> None:
    """Run ``function`` on every job, over at most ``POOL_WORKERS``
    worker subprocesses; every worker has ended when this returns."""
    if len(jobs) == 1 or POOL_WORKERS <= 1:
        for job in jobs:
            function(job)
        return
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    workers = []
    try:
        for index in range(min(POOL_WORKERS, len(jobs))):
            worker = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), function.__name__],
                stdin=subprocess.PIPE,
                env=env,
            )
            workers.append(worker)
            worker.stdin.write(json.dumps(jobs[index::POOL_WORKERS]).encode())
            worker.stdin.close()
        codes = [worker.wait() for worker in workers]
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    if any(codes):
        raise RuntimeError(f"{function.__name__} workers exited with codes {codes}")


def _atomic_write(path: Path, text: str) -> None:
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    partial.write_text(text, encoding="utf-8")
    os.replace(partial, path)


def _generate_job(job) -> None:
    from repro.generators import lfr_graph

    directory, family, n, seed = job
    graph = lfr_graph(lfr_params(family, n), seed=seed).graph
    edges = list(graph.edges())
    key = graph_key(family, n, seed)
    _atomic_write(
        Path(directory) / f"{key}.inline.json", json.dumps({"edges": edges})
    )
    _atomic_write(
        Path(directory) / f"{key}.edges", "".join(f"{u} {v}\n" for u, v in edges)
    )


def _reference_job(job) -> None:
    from repro.detectors import GraphSession
    from repro.graph import Graph, read_edge_list
    from repro.serving import graph_fingerprint

    edge_path, refs_dir, key, form, calls = job
    if form == "path":
        graph = read_edge_list(edge_path)
    else:
        inline = Path(edge_path).with_name(f"{key}.inline.json")
        graph = Graph()
        for u, v in json.loads(inline.read_text())["edges"]:
            graph.add_edge(u, v)
    fingerprint = graph_fingerprint(graph)
    with GraphSession(graph) as session:
        for algorithm, seed in calls:
            result = session.detect(algorithm, seed=seed)
            record = {
                "fingerprint": fingerprint,
                "cover": canonical_cover(result.cover),
            }
            _atomic_write(
                Path(refs_dir) / f"{key}-{form}-{algorithm}-{seed}.json",
                json.dumps(record),
            )


if __name__ == "__main__":
    for _job in json.loads(sys.stdin.read()):
        {"_generate_job": _generate_job, "_reference_job": _reference_job}[sys.argv[1]](_job)

"""The CSR detect path on the single-worker engine, checked against the oracle.

Times ``oca`` on LFR graphs of growing size, with the spectral ``c``
resolved once and shared (the pattern every multi-run workload uses, and
what isolates the greedy engine loop; the spectral cost is reported
separately).  Every cover is checked against the same detection with
each climb routed through the label-keyed oracle kernel of
``tests/oracles.py`` (the dict-and-set community state the CSR kernel
replaced), whose time is reported as the reference.  Also measures the
worker-shipping cost of the compiled arrays: pickled payload size and
(de)serialisation time.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_csr.py              # full sweep
    PYTHONPATH=src python benchmarks/bench_csr.py --smoke      # CI-sized

The full sweep (n in {2000, 6000, 20000}) writes machine-readable
results to ``BENCH_csr.json`` at the repository root; ``--smoke`` runs
one small size and writes nothing, so CI can exercise the script
without touching tracked files.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional
from unittest import mock

import numpy as np

from repro import DetectionRequest, get_detector
from repro.core.vector_space import admissible_c
from repro.generators import LFRParams, lfr_graph
from repro.graph import compile_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import oracle_kernel  # noqa: E402

#: The sizes of the full sweep (ISSUE 2's benchmark trajectory seed).
FULL_SIZES = (2000, 6000, 20000)
SMOKE_SIZES = (300,)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_csr.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_graph(n: int, seed: int):
    """The bench_parallel LFR family: dense communities, heavy tasks."""
    params = LFRParams(
        n=n,
        mu=0.3,
        average_degree=min(40.0, max(8.0, n / 25)),
        max_degree=min(100, max(20, n // 10)),
        min_community=min(60, max(10, n // 20)),
        max_community=min(120, max(20, n // 10)),
    )
    return lfr_graph(params, seed=seed).graph


@dataclass
class SizeResult:
    """Every measurement for one graph size."""

    n: int
    m: int
    spectral_seconds: float
    compile_seconds: float
    csr_seconds: float
    oracle_seconds: float
    speedup_vs_oracle: float
    communities: int
    runs: int
    covers_identical: bool
    csr_payload_bytes: int
    csr_roundtrip_seconds: float


def _pickle_roundtrip(obj) -> "tuple[int, float]":
    """Payload size and dumps+loads wall-clock (the worker-shipping cost)."""
    start = time.perf_counter()
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    return len(blob), time.perf_counter() - start


def measure_size(n: int, seed: int, repeats: int, echo=print) -> SizeResult:
    """Time the csr detect path for one graph size and check its cover."""
    graph = build_graph(n, seed)
    m = graph.number_of_edges()
    echo(f"-- LFR n={graph.number_of_nodes()}, m={m}")

    start = time.perf_counter()
    compiled = compile_graph(graph)
    compile_seconds = time.perf_counter() - start

    start = time.perf_counter()
    c = admissible_c(graph, seed=seed)
    spectral_seconds = time.perf_counter() - start
    echo(
        f"   compile {compile_seconds:.3f}s "
        f"({compiled.nbytes()} array bytes); "
        f"spectral c={c:.4f} in {spectral_seconds:.3f}s (shared)"
    )

    detector = get_detector("oca")
    request = DetectionRequest(graph=graph, seed=seed, params={"c": c})
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = detector.detect(request)
        timings.append(time.perf_counter() - start)
    csr_seconds = min(timings)
    with mock.patch("repro.engine.tasks.grow_community", oracle_kernel):
        start = time.perf_counter()
        reference = detector.detect(request)
        oracle_seconds = time.perf_counter() - start
    identical = (
        result.cover == reference.cover and result.raw_cover == reference.raw_cover
    )
    speedup = oracle_seconds / csr_seconds if csr_seconds else float("inf")
    echo(
        f"   csr {csr_seconds:.3f}s | oracle {oracle_seconds:.3f}s "
        f"| x{speedup:.2f} | {len(result.cover)} communities, "
        f"{result.runs} runs | cover matches the oracle: {identical}"
    )

    csr_bytes, csr_roundtrip = _pickle_roundtrip(compiled)
    echo(f"   shipping: {csr_bytes}B / {csr_roundtrip * 1000:.1f}ms roundtrip")
    if not identical:
        raise AssertionError(f"csr cover differs from the oracle's at n={n}")
    return SizeResult(
        n=graph.number_of_nodes(),
        m=m,
        spectral_seconds=spectral_seconds,
        compile_seconds=compile_seconds,
        csr_seconds=csr_seconds,
        oracle_seconds=oracle_seconds,
        speedup_vs_oracle=speedup,
        communities=len(result.cover),
        runs=result.runs,
        covers_identical=identical,
        csr_payload_bytes=csr_bytes,
        csr_roundtrip_seconds=csr_roundtrip,
    )


def run_bench(
    sizes=FULL_SIZES, seed: int = 2, repeats: int = 2, echo=print
) -> List[SizeResult]:
    """Measure every size; returns the per-size results."""
    echo(
        f"csr detect-path bench: sizes {list(sizes)}, "
        f"{_available_cpus()} CPU(s), single worker"
    )
    return [measure_size(n, seed=seed, repeats=repeats, echo=echo) for n in sizes]


def write_json(results: List[SizeResult], path: Path = _JSON_PATH) -> None:
    """Emit the machine-readable benchmark record."""
    payload = {
        "benchmark": "bench_csr",
        "description": (
            "OCA single-worker detect path on the csr kernel vs the "
            "label-keyed oracle kernel, spectral c resolved once and shared"
        ),
        "family": "lfr",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": _available_cpus(),
        "unix_time": int(time.time()),
        "results": [asdict(result) for result in results],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest-benchmark wrapper
# ----------------------------------------------------------------------
def test_csr_speedup_over_oracle(benchmark):
    from conftest import run_once

    lines: List[str] = []
    results = run_once(
        benchmark, run_bench, sizes=(6000,), echo=lines.append
    )
    print()
    for line in lines:
        print(line)
    assert results[0].covers_identical
    assert results[0].speedup_vs_oracle >= 1.5


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small size, no JSON output (CI smoke check)",
    )
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument(
        "--repeats", type=int, default=2, help="timed csr runs per size"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="override the size sweep",
    )
    args = parser.parse_args(argv)
    if args.sizes:
        sizes = tuple(args.sizes)
    else:
        sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    results = run_bench(sizes=sizes, seed=args.seed, repeats=args.repeats)
    if not args.smoke:
        write_json(results)
        print(f"wrote {_JSON_PATH}")
    slow = [r for r in results if r.n >= 6000 and r.speedup_vs_oracle < 1.5]
    if slow:
        print(
            "WARNING: csr speedup over the oracle below 1.5x at "
            + ", ".join(f"n={r.n} (x{r.speedup_vs_oracle:.2f})" for r in slow),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

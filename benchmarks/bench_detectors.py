"""The baseline detectors on the CSR kernels, checked against the oracles.

Times ``lfk`` and ``cfinder`` (plus one ``modularity_greedy`` reference
row at the smallest size) on the same LFR family and seeds as
``bench_csr.py``, and checks every cover against the label-keyed
dict-and-set reference of ``tests/oracles.py`` — the LFK covering loop
and the union-find clique percolation the CSR kernels replaced — whose
time is reported alongside.  CNM has no separate oracle; its row checks
the detector against a direct :func:`~repro.baselines.greedy_modularity`
call.  One extra point runs lfk/cfinder on an **overlapping** LFR
instance (``on``/``om`` knobs, the paper's regime).

The CFinder oracle runs the indexed overlap scan
(``faithful_overlap=False``): the published quadratic scan exists to
reproduce the Figure 5 cost profile, not to be a fair comparison — it is
6x slower again at n = 2000 and unusable at n = 6000.  Both scans find
the identical components.

Also runnable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_detectors.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_detectors.py --smoke   # CI-sized

The full sweep (n in {2000, 6000, 20000}) writes machine-readable
results to ``BENCH_detectors.json`` at the repository root; ``--smoke``
runs one small size and writes nothing, so CI can exercise the script
without touching tracked files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import DetectionRequest, get_detector
from repro.baselines import greedy_modularity
from repro.generators import LFRParams, lfr_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import oracles  # noqa: E402

#: The bench_csr sizes — the shared perf-trajectory family.
FULL_SIZES = (2000, 6000, 20000)
SMOKE_SIZES = (300,)

#: CNM's merge loop is ~100 s per run at n = 6000, so the reference row
#: runs at the smallest full size only.
CNM_MAX_SIZE = 2000

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_detectors.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_params(n: int, on: int = 0, om: int = 2) -> LFRParams:
    """The bench_csr LFR family, with optional overlap knobs."""
    return LFRParams(
        n=n,
        mu=0.3,
        average_degree=min(40.0, max(8.0, n / 25)),
        max_degree=min(100, max(20, n // 10)),
        min_community=min(60, max(10, n // 20)),
        max_community=min(120, max(20, n // 10)),
        on=on,
        om=om,
    )


@dataclass
class DetectorResult:
    """One detector's csr timing and oracle check on one graph."""

    n: int
    m: int
    detector: str
    params: Dict[str, Any]
    overlapping_nodes: int
    csr_seconds: float
    oracle_seconds: float
    speedup_vs_oracle: float
    communities: int
    covers_identical: bool


def _reference(graph, name: str, params: Dict[str, Any], seed: int):
    """The detector's cover as the label-keyed reference computes it."""
    if name == "lfk":
        return oracles.lfk(graph, seed=seed, **params)
    if name == "cfinder":
        return oracles.clique_percolation(graph, k=3, faithful_overlap=False)
    return greedy_modularity(graph).partition


def measure_detector(
    graph,
    name: str,
    params: Dict[str, Any],
    seed: int,
    repeats: int,
    overlapping_nodes: int = 0,
    echo=print,
) -> DetectorResult:
    """Time one detector on the csr kernels and check it against the oracle."""
    detector = get_detector(name)
    request = DetectionRequest(graph=graph, seed=seed, params=dict(params))
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = detector.detect(request)
        timings.append(time.perf_counter() - start)
    csr_seconds = min(timings)
    start = time.perf_counter()
    reference = _reference(graph, name, params, seed)
    oracle_seconds = time.perf_counter() - start
    identical = result.cover == reference
    speedup = oracle_seconds / csr_seconds if csr_seconds else float("inf")
    echo(
        f"   {name:18s} csr {csr_seconds:7.3f}s | oracle {oracle_seconds:8.3f}s "
        f"| x{speedup:5.2f} | {len(result.cover)} communities "
        f"| cover matches the oracle: {identical}"
    )
    if not identical:
        raise AssertionError(
            f"{name} cover differs from the oracle's "
            f"at n={graph.number_of_nodes()}"
        )
    return DetectorResult(
        n=graph.number_of_nodes(),
        m=graph.number_of_edges(),
        detector=name,
        params=dict(params),
        overlapping_nodes=overlapping_nodes,
        csr_seconds=csr_seconds,
        oracle_seconds=oracle_seconds,
        speedup_vs_oracle=speedup,
        communities=len(result.cover),
        covers_identical=identical,
    )


def measure_size(
    n: int, seed: int, repeats: int, echo=print
) -> List[DetectorResult]:
    """The lfk/cfinder rows (plus CNM at the smallest size) for one n."""
    instance = lfr_graph(build_params(n), seed=seed)
    graph = instance.graph
    echo(f"-- LFR n={graph.number_of_nodes()}, m={graph.number_of_edges()}")
    rows = [
        measure_detector(
            graph, "lfk", {"alpha": 1.0}, seed, repeats, echo=echo
        ),
        measure_detector(graph, "cfinder", {}, seed, repeats, echo=echo),
    ]
    if n <= CNM_MAX_SIZE:
        rows.append(
            measure_detector(
                graph, "modularity_greedy", {}, seed, repeats, echo=echo
            )
        )
    return rows


def measure_overlap_point(
    seed: int, repeats: int, n: int = 2000, echo=print
) -> List[DetectorResult]:
    """lfk/cfinder on one overlapping-LFR instance (on/om knobs)."""
    params = build_params(n, on=n // 10, om=2)
    instance = lfr_graph(params, seed=seed)
    graph = instance.graph
    echo(
        f"-- overlapping LFR n={graph.number_of_nodes()}, "
        f"m={graph.number_of_edges()}, on={instance.overlapping_nodes}, "
        f"om={params.om}"
    )
    return [
        measure_detector(
            graph,
            "lfk",
            {"alpha": 1.0},
            seed,
            repeats,
            overlapping_nodes=instance.overlapping_nodes,
            echo=echo,
        ),
        measure_detector(
            graph,
            "cfinder",
            {},
            seed,
            repeats,
            overlapping_nodes=instance.overlapping_nodes,
            echo=echo,
        ),
    ]


def run_bench(
    sizes=FULL_SIZES,
    seed: int = 2,
    repeats: int = 2,
    overlap_point: bool = True,
    echo=print,
) -> List[DetectorResult]:
    """Measure every size (and the overlap point); returns all rows."""
    echo(
        f"baseline-detector bench: sizes {list(sizes)}, "
        f"{_available_cpus()} CPU(s), single worker"
    )
    rows: List[DetectorResult] = []
    for n in sizes:
        rows.extend(measure_size(n, seed=seed, repeats=repeats, echo=echo))
    if overlap_point:
        rows.extend(measure_overlap_point(seed, repeats, echo=echo))
    return rows


def write_json(results: List[DetectorResult], path: Path = _JSON_PATH) -> None:
    """Emit the machine-readable benchmark record."""
    payload = {
        "benchmark": "bench_detectors",
        "description": (
            "Baseline detectors (lfk, cfinder, modularity_greedy at the "
            "smallest size) on the csr kernels, covers checked against "
            "the label-keyed oracles (cfinder against the indexed "
            "union-find scan); one overlapping-LFR point (on/om) rides "
            "along"
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
def test_baseline_speedup_over_oracles(benchmark):
    from conftest import run_once

    lines: List[str] = []
    results = run_once(
        benchmark,
        run_bench,
        sizes=(6000,),
        overlap_point=False,
        echo=lines.append,
    )
    print()
    for line in lines:
        print(line)
    assert all(row.covers_identical for row in results)
    for row in results:
        if row.detector in ("lfk", "cfinder"):
            assert row.speedup_vs_oracle >= 3.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small size, no JSON output (CI smoke check)",
    )
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument(
        "--repeats", type=int, default=2, help="timed csr runs per detector"
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
    results = run_bench(
        sizes=sizes,
        seed=args.seed,
        repeats=args.repeats,
        overlap_point=not args.smoke,
    )
    if not args.smoke:
        write_json(results)
        print(f"wrote {_JSON_PATH}")
    slow = [
        row
        for row in results
        if row.n >= 6000
        and row.detector in ("lfk", "cfinder")
        and row.speedup_vs_oracle < 3.0
    ]
    if slow:
        print(
            "WARNING: csr speedup over the oracle below 3x at "
            + ", ".join(
                f"{row.detector} n={row.n} (x{row.speedup_vs_oracle:.2f})"
                for row in slow
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The serving benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Each run starts the real server (``python -m repro serve``, CLI defaults
except the flags a workload names) from the checkout's ``src/``, drives
it from this one client process over at most 2 connections, checks every
cover against an in-process ``GraphSession.detect`` reference, stops the
server with SIGINT under a bounded wait, checks for leaked shared-memory
segments and temp files, and prints one JSON result as its last line.

Workloads (see ``WORKLOADS``):

``warm_oca``     closed loop, 2 HTTP keep-alive connections, OCA by
                 fingerprint against 3 resident disjoint-LFR graphs.
``cold_graphs``  closed loop, 1 HTTP connection, every request an inline
                 graph the server has never seen, fresh ``--store-dir``.
``mixed_socket`` closed loop, 2 JSONL socket connections with 2 requests
                 pipelined on each: oca/lfk/cfinder by fingerprint over
                 4 overlapping-LFR graphs, ``--store-warm 0
                 --max-sessions 3`` so sessions are evicted and rebound
                 from the store populated in set-up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice for half the time each, untraced and then under
``perfbench/traced_serve.py``, and prints the per-layer metrics (the
difference between the two halves' server CPU per request is
``trace.overhead_frac``).  Inputs and reference covers are cached under
``.perfbench_work/cache``; per-run state lives in
``.perfbench_work/runs`` and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clients  # noqa: E402
import layers  # noqa: E402
from inputs import InputCache, canonical_cover, derive_seed, graph_key  # noqa: E402
from serverproc import Server, ServerError  # noqa: E402

#: A run must hold at least this many answered requests, so p90 has ten
#: samples beyond it.
MIN_SAMPLES = 100
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Request seeds the workloads cycle through.
REQUEST_SEEDS = (1, 2, 3, 4)


@dataclass
class Workload:
    """One traffic mix.

    Every run serves the same graphs: OCA cost differs severalfold
    between LFR draws of one size, which would swamp the run-to-run
    spread.  With resident ``graphs`` the seed deals the order of the
    (graph, algorithm, request seed) combinations; without, every request
    carries the next graph of one fixed sequence, new to the server, and
    the seed draws its request seed.
    """

    name: str
    why: str
    family: str
    n: int
    frontend: str  # "http" or "socket"
    connections: int
    latency_limit_s: float
    graphs: int = 0  # resident graphs (0: a fresh graph per request)
    server_args: Tuple[str, ...] = ()
    depth: int = 1  # requests each connection keeps in flight
    mix: Tuple[Tuple[str, int], ...] = (("oca", 1),)  # algorithm: share
    max_rps: float = 0.0  # fresh-graph workloads: graphs one run may need


WORKLOADS = {
    "warm_oca": Workload(
        name="warm_oca",
        why="warm OCA detect by fingerprint on resident graphs: growth kernel and engine",
        family="disjoint",
        n=1500,
        frontend="http",
        connections=2,
        latency_limit_s=1.5,
        graphs=3,
    ),
    "cold_graphs": Workload(
        name="cold_graphs",
        why="every request an unseen inline graph: parse, compile, fingerprint, spectral, store write",
        family="disjoint",
        n=600,
        frontend="http",
        connections=1,
        latency_limit_s=1.5,
        server_args=("--store-dir", "{store}"),
        max_rps=8.0,
    ),
    "mixed_socket": Workload(
        name="mixed_socket",
        why="oca/lfk/cfinder mix over 4 graphs, 3 sessions: queue wait, coalescing, store reads, evictions, baselines, socket",
        family="overlap",
        n=400,
        frontend="socket",
        connections=2,
        latency_limit_s=1.0,
        graphs=4,
        server_args=(
            "--store-dir", "{store}", "--store-warm", "0", "--max-sessions", "3",
        ),
        depth=2,
        mix=(("oca", 5), ("lfk", 3), ("cfinder", 2)),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "goodput_frac": "frac",
    "server_cpu_s_per_req": "s",
    "server_peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A failed run: reported, never retried."""


# ----------------------------------------------------------------------
# Environment and hygiene
# ----------------------------------------------------------------------
def environment(repo: Path, workload: Workload, seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    head = repo / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = repo / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            sha = ref
    shape = {
        "loop": "closed",
        "clients": workload.connections,
        "in_flight_per_client": workload.depth,
        "latency_limit_s": workload.latency_limit_s,
        "frontend": workload.frontend,
    }
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "load": shape,
        "graphs": {"family": workload.family, "n": workload.n},
    }


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro_shm_")}
    except FileNotFoundError:
        return set()


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode()


@dataclass
class Inputs:
    keys: List[str]
    paths: List[str]
    gen_s: float
    request_seeds: List[int]


def prepare_inputs(cache: InputCache, workload: Workload, seed: int, seconds: float) -> Inputs:
    """This run's graphs and, for fresh graphs, their request seeds.

    Graph ``i`` of a workload has its own generation seed, so its edge
    list, inline body and reference covers are cached on disk and shared
    by every run.
    """
    count = workload.graphs or math.ceil(workload.max_rps * 2 * seconds) + 8
    specs = [
        (workload.family, workload.n, derive_seed(workload.family, workload.n, index))
        for index in range(count)
    ]
    gen_s = cache.ensure_graphs(specs, inline=not workload.graphs)
    keys = [graph_key(*spec) for spec in specs]
    rng = random.Random(derive_seed("request-seeds", workload.name, seed))
    return Inputs(
        keys=keys,
        paths=[str(cache.edge_path(key).resolve()) for key in keys],
        gen_s=gen_s,
        request_seeds=[rng.choice(REQUEST_SEEDS) for _ in keys],
    )


# ----------------------------------------------------------------------
# One server: set-up (launch + priming) and one measured phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    records: List[clients.Record]
    started: float
    lag_max_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    priming: List[Tuple[dict, dict]]  # (response, meta)
    spans_path: Optional[Path] = None


def start_server(repo: Path, run_dir: Path, workload: Workload, tag: str, traced: bool):
    store = run_dir / f"store-{tag}"
    args = [arg.format(store=store) for arg in workload.server_args]
    if workload.frontend == "http":
        args += ["--http", "127.0.0.1:0"]
    else:
        args += ["--listen", "127.0.0.1:0"]
    spans = run_dir / f"spans-{tag}.jsonl" if traced else None
    return Server(repo, run_dir, args, traced_spans=spans), spans


def prime(server: Server, workload: Workload, inputs: Inputs) -> List[Tuple[dict, dict]]:
    """Bind every resident graph with one OCA request by path."""
    if not workload.graphs:
        return []
    seed = REQUEST_SEEDS[0]
    lines, metas = [], []
    for index, (key, path) in enumerate(zip(inputs.keys, inputs.paths)):
        lines.append(line({"id": f"p-{index}", "graph": path, "algorithm": "oca", "seed": seed}))
        metas.append({"key": key, "form": "path", "algorithm": "oca", "seed": seed})
    if workload.frontend == "http":
        host, port = server.addresses["http"]
        connection = http.client.HTTPConnection(host, port, timeout=clients.REQUEST_TIMEOUT_S)
        try:
            body = clients.http_detect(connection, b"".join(lines))
        finally:
            connection.close()
        responses = [json.loads(text) for text in body.decode().splitlines() if text.strip()]
    else:
        responses = clients.socket_exchange(server.addresses["socket"], lines)
    for response in responses:
        if not response.get("ok"):
            raise BenchError(f"priming failed: {response.get('error')}")
    return list(zip(responses, metas))


def setup_once(repo, run_dir, workload, inputs, tag, traced):
    server, spans = start_server(repo, run_dir, workload, tag, traced)
    try:
        server.wait_ready()
        priming = prime(server, workload, inputs)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - server.launched, priming, spans


def run_phase(repo, run_dir, cache, workload, inputs, seed, seconds, tag, traced, min_samples) -> Phase:
    server, setup_s, priming, spans = setup_once(repo, run_dir, workload, inputs, tag, traced)
    try:
        cpu_before = server.cpu_seconds()
        source = request_source(workload, inputs, priming, cache, seed)
        if workload.frontend == "http":
            records, started, lag = clients.closed_loop_http(
                server.addresses["http"], workload.connections, source,
                seconds, min_samples, max_seconds=2 * seconds,
            )
        else:
            records, started, lag = clients.closed_loop_socket(
                server.addresses["socket"], workload.connections, workload.depth,
                source, seconds, min_samples, max_seconds=2 * seconds,
            )
        cpu_s = server.cpu_seconds() - cpu_before
    except BaseException:
        server.kill()
        raise
    server.stop()
    return Phase(records, started, lag, setup_s, cpu_s, server.peak_rss_mb, priming, spans)


def request_source(workload: Workload, inputs: Inputs, priming, cache: InputCache, run_seed: int):
    if not workload.graphs:
        sequence = iter(enumerate(zip(inputs.keys, inputs.request_seeds)))

        def next_inline():
            index, (key, request_seed) = next(sequence, (None, (None, None)))
            if key is None:
                return None
            request_id = f"m-{index}"
            head = line(
                {"id": request_id, "algorithm": "oca", "seed": request_seed}
            ).rstrip()[:-1]
            body = head + b', "graph": ' + cache.inline_path(key).read_bytes() + b"}\n"
            meta = {"key": key, "form": "inline", "algorithm": "oca", "seed": request_seed}
            return request_id, body, meta

        return next_inline
    fingerprints = [response["fingerprint"] for response, _ in priming]
    # Every (graph, algorithm, request seed) combination once per round
    # (algorithms repeated by their share), each round in a fresh seeded
    # order: exact composition, random pairing of the requests the
    # clients have in flight together.
    deck = [
        (graph, algorithm, seed)
        for graph in range(len(fingerprints))
        for algorithm, share in workload.mix
        for _ in range(share)
        for seed in REQUEST_SEEDS
    ]
    rng = random.Random(derive_seed("deck", workload.name, run_seed))
    counter = itertools.count()

    def next_request():
        index = next(counter)
        if index % len(deck) == 0:
            rng.shuffle(deck)
        graph, algorithm, request_seed = deck[index % len(deck)]
        request_id = f"m-{index}"
        body = line(
            {
                "id": request_id,
                "fingerprint": fingerprints[graph],
                "algorithm": algorithm,
                "seed": request_seed,
            }
        )
        meta = {"key": inputs.keys[graph], "form": "path", "algorithm": algorithm, "seed": request_seed}
        return request_id, body, meta

    return next_request


# ----------------------------------------------------------------------
# Correctness and metrics
# ----------------------------------------------------------------------
def classify(phases: List[Phase], cache: InputCache) -> Tuple[Dict[str, int], List[Dict[str, dict]]]:
    """Parse every response, gate ok covers against the references.

    Returns failure counts by kind (over every phase, priming included)
    and, per phase, each measured request's client view.
    """
    parsed = []
    wanted = set()
    for phase in phases:
        items = [(response, meta, None) for response, meta in phase.priming]
        for record in phase.records:
            response = None
            if record.outcome == "ok":
                text = record.body.decode().strip().splitlines()
                response = json.loads(text[0]) if text else {"ok": False, "error": "empty"}
            items.append((response, record.meta, record))
        for response, meta, _ in items:
            if response is not None and response.get("ok"):
                wanted.add((meta["key"], meta["form"], meta["algorithm"], meta["seed"]))
        parsed.append(items)
    references = cache.references(wanted)
    failures = {"refused": 0, "error": 0, "timeout": 0, "mismatch": 0}
    views = []
    for items in parsed:
        view = {}
        for response, meta, record in items:
            if record is not None and record.outcome != "ok":
                kind = record.outcome
            elif not response.get("ok"):
                kind = "refused" if "queue full" in str(response.get("error")) else "error"
            else:
                reference = references[(meta["key"], meta["form"], meta["algorithm"], meta["seed"])]
                same = (
                    response.get("fingerprint") == reference["fingerprint"]
                    and canonical_cover(response["communities"]) == reference["cover"]
                )
                kind = "ok" if same else "mismatch"
            if kind != "ok":
                failures[kind] += 1
            if record is not None:
                view[record.id] = {
                    "outcome": kind,
                    "latency": record.latency,
                    "sent": record.sent,
                    "done": record.done,
                    "bytes": len(record.body),
                }
        views.append(view)
    return failures, views


def quantiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


def end_to_end(workload: Workload, phase: Phase, view: Dict[str, dict], setups: List[float]) -> Tuple[dict, int]:
    latencies = [v["latency"] for v in view.values() if v["outcome"] == "ok"]
    p50, p90 = quantiles(latencies)
    attempted = len(view)
    finished = max((record.done for record in phase.records), default=phase.started)
    elapsed = max(finished - phase.started, 1e-9)
    good = sum(1 for latency in latencies if latency <= workload.latency_limit_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "throughput_rps": len(latencies) / elapsed,
        "goodput_frac": good / attempted if attempted else 0.0,
        "server_cpu_s_per_req": phase.cpu_s / attempted if attempted else 0.0,
        "server_peak_rss_mb": phase.peak_rss_mb,
    }
    return metrics, len(latencies)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(repo: Path, workload: Workload, seed: int, seconds: float, trace: bool,
        min_samples: int = MIN_SAMPLES) -> dict:
    """One run of ``workload``: the report behind the printed result."""
    work = repo / ".perfbench_work"
    cache = InputCache(work / "cache")
    run_dir = work / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    shm_before = shm_segments()
    env = environment(repo, workload, seed, seconds)
    problems: List[str] = []
    try:
        inputs = prepare_inputs(cache, workload, seed, seconds)
        if trace:
            half = seconds / 2
            phases = [
                run_phase(repo, run_dir, cache, workload, inputs, seed, half, "plain", False, 0),
                run_phase(repo, run_dir, cache, workload, inputs, seed, half, "traced", True, 0),
            ]
            setups = [phases[0].setup_s]
        else:
            setups = []
            for repeat in range(SETUP_REPEATS - 1):
                server, setup_s, _, _ = setup_once(repo, run_dir, workload, inputs, f"setup{repeat}", False)
                server.stop()
                setups.append(setup_s)
            phases = [run_phase(repo, run_dir, cache, workload, inputs, seed, seconds, "run", False, min_samples)]
            setups.append(phases[0].setup_s)
        failures, views = classify(phases, cache)
        spans = layers.load_spans(phases[1].spans_path) if trace else None
    except ServerError as error:
        raise BenchError(str(error)) from None
    finally:
        leaked_shm = shm_segments() - shm_before
        if leaked_shm:
            problems.append(f"leaked shared-memory segments: {sorted(leaked_shm)}")
        tmp = run_dir / "tmp"
        leftovers = sorted(p.name for p in tmp.iterdir()) if tmp.is_dir() else []
        if leftovers:
            problems.append(f"leaked temp files: {leftovers}")
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = phases[-1]
    view = views[-1]
    metrics, answered = end_to_end(workload, measured, view, setups)
    attempted = sum(len(v) for v in views)
    failed = sum(1 for v in views for item in v.values() if item["outcome"] != "ok")
    if not trace and seconds >= 10 and answered < min_samples:
        problems.append(f"only {answered} answered requests (< {min_samples}): p90 under-sampled")
    report = {
        "workload": workload.name,
        "environment": env,
        "input_gen_s": inputs.gen_s,
        "setup_samples_s": setups,
        "samples": answered,
        "failures": failures,
        "failed_frac": failed / attempted if attempted else 0.0,
        "problems": problems,
        "end_to_end": metrics,
    }
    if trace:
        plain_cpu = phases[0].cpu_s / max(1, len(views[0]))
        traced_cpu = phases[1].cpu_s / max(1, len(views[1]))
        report["per_layer"], report["shares"] = layers.per_layer_metrics(
            spans, views[1], workload.frontend,
            overhead_frac=traced_cpu / plain_cpu - 1.0 if plain_cpu else 0.0,
            lag_max_s=phases[1].lag_max_s,
        )
    report["correct"] = failures["mismatch"] == 0 and not problems
    report["attempted"] = attempted
    report["failed"] = failed
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_summary(report: dict, trace: bool) -> None:
    out = sys.stdout
    print(f"# {report['workload']}: environment {json.dumps(report['environment'])}", file=out)
    print(
        f"# input_gen_s {report['input_gen_s']:.3f} (outside setup_s); "
        f"setup samples {[round(s, 3) for s in report['setup_samples_s']]}",
        file=out,
    )
    print(
        f"# samples {report['samples']} answered of {report['attempted']} attempted; "
        f"failed_frac {report['failed_frac']:.4f} {json.dumps(report['failures'])}",
        file=out,
    )
    for name, unit in END_TO_END_UNITS.items():
        print(f"#   {name:<22} {report['end_to_end'][name]:>12.6g} {unit}  (n={report['samples']})", file=out)
    if trace:
        for name, unit in layers.PER_LAYER_UNITS.items():
            print(f"#   {name:<26} {report['per_layer'][name]:>12.6g} {unit}", file=out)
        share = report["shares"]["grow_of_oca_detect"]
        print(
            f"# grow.self_s is {share:.1%} of session.detect_s.oca "
            "(median per OCA request)",
            file=out,
        )
    for problem in report["problems"]:
        print(f"# PROBLEM: {problem}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    repo = Path.cwd()
    if not (repo / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout holding src/repro "
            f"(not found under {repo})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(repo / "src"))
    trace = bool(args.trace)
    # A server inherits an ignored SIGINT (a benchmark started in the
    # background) and could then never be stopped: install the default
    # handler, which exec resets to the default action in the child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        report = run(repo, WORKLOADS[args.workload], args.seed, args.seconds, trace)
    except BenchError as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    print_summary(report, trace)
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

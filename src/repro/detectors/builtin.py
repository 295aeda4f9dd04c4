"""The five built-in detectors: OCA and the paper's baselines.

Each class adapts one algorithm to the uniform
:class:`~repro.detection.DetectionRequest` /
:class:`~repro.detection.DetectionResult` contract:

* ``oca`` — the paper's algorithm, on the parallel execution engine;
* ``lfk`` — local fitness optimisation (ref. [8]);
* ``cfinder`` — k-clique percolation with the paper's parameterisation
  (``k = 3``);
* ``cpm`` — the same percolation with ``k`` exposed;
* ``modularity_greedy`` — Newman's CNM agglomeration, the disjoint
  reference point.

All five accept either graph form and run their dense-id kernels on the
compiled CSR arrays (compiling a :class:`~repro.graph.Graph` through its
cache); covers from compiled input are translated back to original
labels and are byte-identical to those from the graph itself.  The
shared plumbing (normalisation, translation, echo, timing) lives in
:class:`DetectorBase`; new algorithms subclass it, implement
``_detect`` and register with
:func:`~repro.detectors.register_detector`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict

from ..baselines.cpm import _percolate_ids
from ..baselines.lfk import _lfk_compiled
from ..baselines.modularity_greedy import greedy_modularity
from ..communities import Cover, Partition
from ..core.config import OCAConfig
from ..core.oca import OCA
from ..detection import (
    DetectionRequest,
    DetectionResult,
    normalized_graph,
    translate_cover,
)
from ..errors import AlgorithmError
from ..graph.csr import CompiledGraph, compile_graph
from .registry import register_detector

__all__ = [
    "DetectorBase",
    "OCADetector",
    "LFKDetector",
    "CFinderDetector",
    "CPMDetector",
    "ModularityGreedyDetector",
]


def _take(params: Dict[str, Any], name: str, default: Any) -> Any:
    """Pop ``name`` from a params copy, falling back to ``default``."""
    return params.pop(name) if name in params else default


class DetectorBase:
    """Shared request/response plumbing for registered detectors.

    Subclasses implement :meth:`_detect` against a normalised graph
    (always label-keyed from the algorithm's point of view — compiled
    input arrives as its identity-labelled view) and return any
    :class:`DetectionResult`; this base translates covers back to the
    caller's label space, stamps the algorithm name, echoes the request
    parameters, and times the whole call.
    """

    name: str = ""

    def detect(self, request: DetectionRequest) -> DetectionResult:
        start = time.perf_counter()
        run_graph, source = normalized_graph(request.graph)
        result = self._detect(run_graph, request)
        if source is not None:
            result.cover = translate_cover(result.cover, source)
            self._translate_extras(result, source)
        result.algorithm = self.name
        result.params = dict(request.params)
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # -- hooks ---------------------------------------------------------
    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        raise NotImplementedError

    def _translate_extras(self, result: DetectionResult, source) -> None:
        """Translate algorithm-specific id-space fields (default: none)."""

    def _reject_unknown(self, params: Dict[str, Any]) -> None:
        if params:
            unknown = ", ".join(sorted(params))
            raise AlgorithmError(
                f"unknown parameter(s) for {self.name!r}: {unknown}"
            )

    @staticmethod
    def _cover_from_ids(compiled: CompiledGraph, communities) -> Cover:
        """A dense-id community list as a cover in ``compiled``'s label
        space (identity-labelled graphs pass straight through)."""
        if compiled.identity_labels:
            return Cover(communities)
        return Cover(
            compiled.labels_of(community) for community in communities
        )


@register_detector("oca")
class OCADetector(DetectorBase):
    """The paper's algorithm behind the uniform contract.

    ``params`` accepts any :class:`~repro.core.config.OCAConfig` field,
    or a complete config object under the key ``config``.  The request's
    engine knobs (``workers`` / ``backend`` / ``batch_size`` /
    ``shipping``) seed the config defaults; a supplied
    ``request.engine`` (the session's persistent pool) is used only when
    it matches the resolved config's engine knobs — a mismatch (e.g. a
    per-call ``batch_size`` override) falls back to an ephemeral engine
    so the config, which determines the cover, always wins.
    """

    name = "oca"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        config = params.pop("config", None)
        if config is not None:
            if params:
                raise AlgorithmError(
                    "pass either a config object or individual OCA "
                    "parameters, not both"
                )
        else:
            valid = {field.name for field in dataclasses.fields(OCAConfig)}
            unknown = {name: value for name, value in params.items() if name not in valid}
            if unknown:
                self._reject_unknown(unknown)
            merged: Dict[str, Any] = {
                "workers": request.workers,
                "backend": request.backend,
                "batch_size": request.batch_size,
                "shipping": request.shipping,
            }
            merged.update(params)
            config = OCAConfig(**merged)
        return OCA(config).run(graph, seed=request.seed, engine=request.engine)

    def _translate_extras(self, result, source) -> None:
        result.raw_cover = translate_cover(result.raw_cover, source)


@register_detector("lfk")
class LFKDetector(DetectorBase):
    """LFK local fitness optimisation (inherently sequential).

    ``params``: ``alpha`` (resolution, default 1.0) and
    ``max_steps_per_community``.  Runs the vectorised dense-id kernels
    of :mod:`repro.baselines.lfk`; the engine knobs are ignored.
    """

    name = "lfk"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        alpha = _take(params, "alpha", 1.0)
        max_steps = _take(params, "max_steps_per_community", None)
        self._reject_unknown(params)
        compiled = compile_graph(graph)
        communities, computed = _lfk_compiled(
            compiled,
            alpha=alpha,
            seed=request.seed,
            max_steps_per_community=max_steps,
        )
        return DetectionResult(
            cover=self._cover_from_ids(compiled, communities),
            stats={"alpha": alpha, "natural_communities": computed},
        )


@register_detector("cpm")
class CPMDetector(DetectorBase):
    """k-clique percolation with the full parameter surface.

    ``params``: ``k`` (default 3).  The seed is ignored — percolation is
    deterministic.  Bron–Kerbosch runs on the compiled rows and clique
    adjacency is resolved with the vectorised subset-grouping kernel of
    :mod:`repro.baselines.cpm`.
    """

    name = "cpm"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        params = dict(request.params)
        k = _take(params, "k", 3)
        self._reject_unknown(params)
        compiled = compile_graph(graph)
        communities, clique_count = _percolate_ids(compiled, k=k)
        return DetectionResult(
            cover=self._cover_from_ids(compiled, communities),
            stats={"k": k, "maximal_cliques": clique_count},
        )


@register_detector("cfinder")
class CFinderDetector(CPMDetector):
    """CFinder as the paper ran it: CPM at ``k = 3``.

    Identical implementation to :class:`CPMDetector`; registered
    separately so experiment code can name the baseline the way the
    figures label it while parameter sweeps use ``cpm``.
    """

    name = "cfinder"


@register_detector("modularity_greedy")
class ModularityGreedyDetector(DetectorBase):
    """Newman's CNM greedy agglomeration — the disjoint reference point.

    ``params``: none.  The seed is ignored — the agglomeration is
    deterministic (canonical id-space tie-breaking on the compiled
    rows).  The cover is a :class:`~repro.communities.Partition`: a node
    belongs to exactly one block, which is the structural limitation the
    paper's overlapping algorithms move beyond.
    """

    name = "modularity_greedy"

    def _detect(self, graph, request: DetectionRequest) -> DetectionResult:
        self._reject_unknown(dict(request.params))
        compiled = compile_graph(graph)
        outcome = greedy_modularity(compiled)
        cover = outcome.partition
        if not compiled.identity_labels:
            cover = Partition(compiled.labels_of(block) for block in cover)
        return DetectionResult(
            cover=cover,
            stats={"modularity": outcome.modularity, "merges": outcome.merges},
        )

#!/usr/bin/env python
"""Building a custom pipeline from the library's components.

OCA is assembled from pluggable pieces — fitness, seeding, halting,
post-processing — all of which the paper leaves open for tuning.  This
example wires them together by hand:

1. compute the admissible c spectrally, then inspect the virtual vector
   representation explicitly (small graph!);
2. grow a single community from a chosen seed and watch the fitness —
   the climb runs on the compiled CSR form in dense-id space, the one
   graph representation every kernel uses;
3. run the full driver, ``OCA(config).run``, with a custom configuration
   (degree-biased seeding, coverage halting, aggressive merging);
4. write the cover to disk in the standard exchange format.

Run:  python examples/custom_pipeline.py
"""

import io

from repro import OCA, compile_graph
from repro.communities import write_cover
from repro.core import (
    CoverageHalting,
    DirectedLaplacianFitness,
    OCAConfig,
    VirtualVectorRepresentation,
    admissible_c,
    grow_community,
)
from repro.generators import ring_of_cliques


def main() -> None:
    graph, truth = ring_of_cliques(5, 6)
    print(f"ring of cliques: {graph.number_of_nodes()} nodes, "
          f"{len(truth)} planted cliques\n")

    # --- 1. The vector space (Section II of the paper) --------------------
    c = admissible_c(graph, seed=0)
    representation = VirtualVectorRepresentation(graph, c=c)
    clique = set(truth[0])
    print(f"admissible c = -1/lambda_min = {c:.4f}")
    print(f"phi(clique)       = {representation.phi(clique):.3f}  (closed form)")
    print(f"phi(clique)       = {representation.phi_explicit(clique):.3f}  "
          f"(explicit vectors)\n")

    # --- 2. One greedy local search (Section IV) ---------------------------
    fitness = DirectedLaplacianFitness(c)
    compiled = compile_graph(graph)  # cached on the graph: compiled once
    seed_id = compiled.id_of(0)
    growth = grow_community(compiled, [seed_id], fitness)
    members = sorted(compiled.labels_of(growth.members))
    print(f"growth from node 0: {members}")
    print(f"  fitness L = {growth.fitness_value:.3f}, "
          f"{growth.additions} additions, {growth.removals} removals")
    # Passing the Graph itself compiles and translates at the boundary.
    assert grow_community(graph, [0], fitness).members == frozenset(members)
    print()

    # --- 3. The full driver with a custom configuration --------------------
    config = OCAConfig(
        seeding="degree",
        halting=CoverageHalting(target_fraction=1.0, max_runs=500),
        merge_threshold=0.5,
        assign_orphans=True,
    )
    result = OCA(config).run(graph, seed=0)
    print(f"custom-config OCA: {len(result.cover)} communities "
          f"in {result.runs} runs")

    # --- 4. Serialise -------------------------------------------------------
    buffer = io.StringIO()
    write_cover(result.cover, buffer)
    print("\ncover in exchange format (one community per line):")
    print(buffer.getvalue())


if __name__ == "__main__":
    main()

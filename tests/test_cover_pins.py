"""Pinned cover digests: covers are the contract across refactors.

Each case runs one registered detector (or OCA with the LFK fitness, the
ablation) on a fixed graph and compares a SHA-256 digest of the
canonical cover with a committed value.  Every case runs twice, one-shot
through ``get_detector(...).detect`` and through a warm
:class:`~repro.detectors.GraphSession`, on both int and str labels.  A
change that moves any digest changes a canonical cover and must say so.
"""

import hashlib
import json

import pytest

from repro import DetectionRequest, Graph, GraphSession, get_detector
from repro.core.fitness import LFKFitness
from repro.generators import LFRParams, daisy_tree, karate_club, lfr_graph

SEED = 7

#: ``name -> (registered detector, extra params)``.
CASES = {
    "oca": ("oca", {}),
    "lfk": ("lfk", {}),
    "cfinder": ("cfinder", {}),
    "cpm": ("cpm", {}),
    "modularity_greedy": ("modularity_greedy", {}),
    "oca_lfk_fitness": ("oca", {"fitness": LFKFitness(alpha=1.0)}),
}


def _int_graph(family: str) -> Graph:
    if family == "daisy":
        return daisy_tree(flowers=5, seed=SEED).graph
    if family == "karate":
        return karate_club()[0]
    return lfr_graph(LFRParams(n=300, max_degree=30), seed=SEED).graph


def _str_graph(graph: Graph) -> Graph:
    """The same structure with string labels, same construction order."""
    relabelled = Graph(nodes=(f"n{node}" for node in graph.nodes()))
    for u, v in graph.edges():
        relabelled.add_edge(f"n{u}", f"n{v}")
    return relabelled


_GRAPHS = {}


def pinned_graph(family: str, labels: str) -> Graph:
    key = (family, labels)
    if key not in _GRAPHS:
        graph = _int_graph(family)
        _GRAPHS[key] = graph if labels == "int" else _str_graph(graph)
    return _GRAPHS[key]


def cover_digest(cover) -> str:
    """SHA-256 of the cover as sorted lists of member ``repr``s."""
    canonical = sorted(sorted(repr(node) for node in community) for community in cover)
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


def one_shot_digest(case: str, family: str, labels: str) -> str:
    algorithm, params = CASES[case]
    request = DetectionRequest(
        graph=pinned_graph(family, labels), seed=SEED, params=dict(params)
    )
    return cover_digest(get_detector(algorithm).detect(request).cover)


def session_digest(case: str, family: str, labels: str) -> str:
    algorithm, params = CASES[case]
    with GraphSession(pinned_graph(family, labels)) as session:
        return cover_digest(session.detect(algorithm, seed=SEED, **params).cover)


DIGESTS = {
    "oca/daisy/int": "10150ae4e7082a6fbd7e53e80781d37fffd74328ebc1475b6febd382a83a4942",
    "oca/daisy/str": "43baee35f81416bdb2f1306c6f138db3f6ab167bf21dc7e6b4a35f16620a76f7",
    "oca/karate/int": "daa06940263ec43c497cb23c2ffd0425f4ba12514214068247c21e3d86a8d507",
    "oca/karate/str": "47d2ae8a76e74ee4b7d884f4025adad94682f44492fc5d0475c67f80b363fece",
    "oca/lfr300/int": "b447056bb2ecf69bece9b845e3d42033a5c990e2918f77427638a96cca49bf7c",
    "oca/lfr300/str": "c677ff4e702d06b5168d40dc2c13aaf973b47697b0b55ee2696c1b8092f25c8f",
    "lfk/daisy/int": "50abb607cb438490f96042b1a26d937b8b930264f0f74811dfb2ab9e1643071c",
    "lfk/daisy/str": "a83ec64864038d62b6da6cfaa19dc0e38d212459e3029c0fa2cfd50f60715175",
    "lfk/karate/int": "59e46be3a93b13b827abbff159178da0418b73f754a2e18414ca6087840a2179",
    "lfk/karate/str": "ad0247f407f2abc257692f0ccd1097c99e80bd23106f77119e1e5f1f5eaa415f",
    "lfk/lfr300/int": "067d6507c0f0d80e21928c2f8aca3c96dfe40ccdf08dca72812e9bc447cc8439",
    "lfk/lfr300/str": "ea1e0038ef9539ce04c2b8a43d49b0053fb73750476df637b159a45982e92415",
    "cfinder/daisy/int": "2dbeec4b74c273dd2ecf1f2cee5e080906b77dfcc81c076fb7e8b7882699d83c",
    "cfinder/daisy/str": "b1612f667f745a0aaf3f05a6d6f68d92270308929466ded1d6966fad14c2cb3b",
    "cfinder/karate/int": "b5ec7dac23b72a6630dbb3ecdc911821f832d44d888f614d865d647675f2744b",
    "cfinder/karate/str": "3f18f67e1b2646f1cae0d49b4cd2c6b2c09d9d5ec788a9b3ad9e7cef88bdf685",
    "cfinder/lfr300/int": "fd964f907a0a6eead99adc5e994c261d787b98f63d9a06ca31c5516415123936",
    "cfinder/lfr300/str": "f8319fd6c48a0f2e099618eea3685f217b4ac3ccb95be10a7bb00413f9604c5c",
    "cpm/daisy/int": "2dbeec4b74c273dd2ecf1f2cee5e080906b77dfcc81c076fb7e8b7882699d83c",
    "cpm/daisy/str": "b1612f667f745a0aaf3f05a6d6f68d92270308929466ded1d6966fad14c2cb3b",
    "cpm/karate/int": "b5ec7dac23b72a6630dbb3ecdc911821f832d44d888f614d865d647675f2744b",
    "cpm/karate/str": "3f18f67e1b2646f1cae0d49b4cd2c6b2c09d9d5ec788a9b3ad9e7cef88bdf685",
    "cpm/lfr300/int": "fd964f907a0a6eead99adc5e994c261d787b98f63d9a06ca31c5516415123936",
    "cpm/lfr300/str": "f8319fd6c48a0f2e099618eea3685f217b4ac3ccb95be10a7bb00413f9604c5c",
    "modularity_greedy/daisy/int": "a9d45ef728efc52517f9272e56321eedd10b2716151c6406ab50b3ae99a9ae5c",
    "modularity_greedy/daisy/str": "eaa05234f8bdd29e0bd7fae37c1e6b13248011e85584877756d37debb0459a2f",
    "modularity_greedy/karate/int": "71309cd2c4ad5e479bca454bfa06cd438d1578dddc3e94bfa1b669550daa843a",
    "modularity_greedy/karate/str": "01db97b0c814061b5e66bfffd924cc36cab89978ec4f07be854ae39d7e60a31e",
    "modularity_greedy/lfr300/int": "bb814d11330d0a994a5fc5e2ae6d31d229a5228914a3acf7e369c43cc1232d90",
    "modularity_greedy/lfr300/str": "76b28206ddefa7b6ed1603bce00167862e9be0953c0df47c3474d18b0b0d777c",
    "oca_lfk_fitness/daisy/int": "7f51119f70629da23bcd4a49d8ac37e311e0147b1e2792acfada6379c2d64284",
    "oca_lfk_fitness/daisy/str": "87e79810a2478bb59596f98fa5d052a225ad92dd51ddc0fbd113547dff3b7c34",
    "oca_lfk_fitness/karate/int": "a642c86e13abdafe1e641f3e7a07ded7ca50acf44185d55e32800271b9bde0c0",
    "oca_lfk_fitness/karate/str": "ad661570873599a5694d64942a4447e0a70cda9b5cfe06b5ae44a4831e23bb1e",
    "oca_lfk_fitness/lfr300/int": "b447056bb2ecf69bece9b845e3d42033a5c990e2918f77427638a96cca49bf7c",
    "oca_lfk_fitness/lfr300/str": "c677ff4e702d06b5168d40dc2c13aaf973b47697b0b55ee2696c1b8092f25c8f",
}

KEYS = [
    (case, family, labels)
    for case in CASES
    for family in ("daisy", "karate", "lfr300")
    for labels in ("int", "str")
]


@pytest.mark.parametrize("case,family,labels", KEYS)
@pytest.mark.parametrize("mode", ["one_shot", "session"])
def test_cover_matches_pinned_digest(mode, case, family, labels):
    run = one_shot_digest if mode == "one_shot" else session_digest
    assert run(case, family, labels) == DIGESTS[f"{case}/{family}/{labels}"]

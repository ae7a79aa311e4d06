"""The checker stands apart from the engine.

``qsym.check`` re-verifies certificates with the graph and reduction code
alone; nothing it imports reaches the rule engine in ``qsym.classify`` or
the automorphism search in ``qsym.automorphisms``.  Importing ``qsym.check`` the usual way runs the
package's ``__init__``, which loads the engine, so the fence test runs in
a fresh interpreter whose ``qsym`` is a bare package stub.
"""

import collections
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qsym
from qsym.census import SplitMix64, random_graph
from qsym.check import (
    DisjointPair,
    ForestNoDisjointPair,
    QuadrangleFreeComplement,
    QuadrangleFreeSelf,
    Status,
    verify_certificate,
)
from qsym.classify import classify_with_complement
from qsym.graphs import complement, complete, cycle, edgeless, path, star

_FENCED = """
import sys
import types
from types import SimpleNamespace

package = types.ModuleType("qsym")
package.__path__ = [sys.argv[1]]
sys.modules["qsym"] = package

from qsym.check import DisjointPair, EdgeFreePair, Status, verify_certificate
from qsym.graphs import Permutation, star

g = star(4)
pair = Permutation((0, 2, 1, 3, 4)), Permutation((0, 1, 2, 4, 3))
for cert in (EdgeFreePair(*pair), DisjointPair(*pair)):
    claim = SimpleNamespace(target="bic", status=Status.NONCOMMUTATIVE, certificate=cert)
    print(cert.kind, verify_certificate(g, claim))
print(*sorted(name for name in sys.modules if name.startswith("qsym.")))
"""


def test_the_checker_runs_without_the_engine():
    # two ray swaps of star(4) are an edge-free pair, which shows the fine
    # algebra non-commutative; the same pair forged as a bare disjoint
    # pair on the fine target is rejected
    proc = subprocess.run(
        [sys.executable, "-c", _FENCED, str(Path(qsym.__file__).parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "edge-free-pair True",
        "disjoint-pair False",
        "qsym.check qsym.errors qsym.graphs qsym.reduction",
    ]


def _claim(target, status, cert):
    return SimpleNamespace(target=target, status=status, certificate=cert)


@pytest.mark.parametrize(
    "g", [edgeless(11), star(12), star(10)], ids=["edgeless11", "star12", "star10"]
)
@pytest.mark.parametrize("edge_free_only", [False, True])
def test_forged_forest_certificates_are_rejected_without_a_search(g, edge_free_only):
    # each has a disjoint pair, and a group too large for the search to
    # list within the default budget
    cert = ForestNoDisjointPair(edge_free_only=edge_free_only)
    for target in ("bic", "ban"):
        assert not verify_certificate(g, _claim(target, Status.COMMUTATIVE, cert))


def test_a_long_path_has_its_forest_certificate_checked():
    g = path(3000)
    for edge_free_only in (False, True):
        cert = ForestNoDisjointPair(edge_free_only=edge_free_only)
        assert verify_certificate(g, _claim("bic", Status.COMMUTATIVE, cert))


def test_a_target_outside_the_three_supports_nothing():
    # a verdict is on bic, ban or bic_complement; any other target, say
    # one spelt in capitals or "coarse", is a claim no certificate
    # supports, though its own target accepts the same certificate
    rng = SplitMix64(0x5EED)
    kinds = collections.Counter()
    for _ in range(300):
        rep = classify_with_complement(random_graph(rng))
        for verdict in (rep.bic, rep.ban, rep.bic_complement):
            cert = verdict.certificate
            if cert is None:
                continue
            g = rep.graph if verdict.target != "bic_complement" else complement(rep.graph)
            assert verify_certificate(g, verdict)
            for target in ("BAN", "BIC", "coarse", "fine", "", "complement bic"):
                assert not verify_certificate(g, _claim(target, verdict.status, cert))
            kinds[cert.kind] += 1
    assert {"strip", "quadrangle-free-complement", "disjoint-pair"} <= set(kinds), kinds


def test_a_malformed_certificate_is_rejected_not_raised():
    # a companion that is not a certificate, and a pair of image tuples
    # where permutations belong, are merely wrong: the checker says no
    k4, c4 = complete(4), cycle(4)
    for wrapper in (QuadrangleFreeComplement, QuadrangleFreeSelf):
        for target in ("bic", "ban"):
            claim = _claim(target, Status.COMMUTATIVE, wrapper(companion="x"))
            assert not verify_certificate(k4, claim)
    pair = DisjointPair((2, 1, 0, 3), (0, 3, 2, 1))
    assert not verify_certificate(c4, _claim("ban", Status.NONCOMMUTATIVE, pair))

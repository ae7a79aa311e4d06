"""The checker stands apart from the engine.

``qsym.check`` re-verifies certificates with the graph, automorphism and
reduction code alone; nothing it imports reaches the rule engine in
``qsym.classify``.  Importing ``qsym.check`` the usual way runs the
package's ``__init__``, which loads the engine, so the fence test runs in
a fresh interpreter whose ``qsym`` is a bare package stub.
"""

import subprocess
import sys
from pathlib import Path

import qsym

_FENCED = """
import sys
import types
from types import SimpleNamespace

package = types.ModuleType("qsym")
package.__path__ = [sys.argv[1]]
sys.modules["qsym"] = package

from qsym.automorphisms import transposition
from qsym.check import DisjointPair, EdgeFreePair, Status, verify_certificate
from qsym.graphs import star

g = star(4)
pair = transposition(5, 1, 2), transposition(5, 3, 4)
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
        "qsym.automorphisms qsym.check qsym.errors qsym.graphs qsym.reduction",
    ]

"""Report bytes, pinned per graph.

For each graph below, ``classify_with_complement(g).payload()`` without
``elapsed_ms`` is dumped as JSON with sorted keys and hashed with sha256.
The digests must equal those recorded in ``tests/data/report_digests.json``,
so a change that should leave reports alone can show that it changed no
byte of any of them.  The graphs are the first 300 draws of the 0x5EED
pool, the 308 forests with n <= 9 and the sparse gallery.

A change that means to alter reports re-records the file, and says which
reports changed and why:

    PYTHONPATH=src python -m tests.test_report_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from qsym import classify_with_complement, gallery
from qsym.census import SplitMix64, enumerate_forests, random_graph

from .conftest import SPARSE_GALLERY

DIGESTS = Path(__file__).with_name("data") / "report_digests.json"


def pinned_graphs():
    """(key, graph) for every graph whose report is pinned."""
    rng = SplitMix64(0x5EED)
    for index in range(300):
        yield f"pool/{index}", random_graph(rng)
    for n in range(1, 10):
        for index, forest in enumerate(enumerate_forests(n)):
            yield f"forest/{n}/{index}", forest
    for name in SPARSE_GALLERY:
        yield f"gallery/{name}", gallery(name)


def report_digest(g) -> str:
    payload = classify_with_complement(g).payload()
    del payload["elapsed_ms"]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {key: report_digest(g) for key, g in pinned_graphs()}


def test_report_bytes_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:10]}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(current_digests(), indent=1) + "\n")
    print(f"recorded {DIGESTS}")

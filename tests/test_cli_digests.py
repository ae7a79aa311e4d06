"""CLI bytes, pinned per invocation.

For each ``qsym construct``, ``qsym census`` and ``qsym pattern``
invocation below, the exit code, stdout and stderr of ``main(argv)`` are
dumped as JSON and hashed with sha256.  The digests must equal those
recorded in ``tests/data/cli_digests.json``, so a refactor of the
constructions, their traces, the census CSV or the zero-pattern display
can show that it changed no byte a shell user sees.

A change that means to alter this output re-records the file, and says
which invocations changed and why:

    PYTHONPATH=src python -m tests.test_cli_digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qsym.cli import main

DIGESTS = Path(__file__).with_name("data") / "cli_digests.json"

_FACTOR_SETS = (
    ("--gallery", "k2", "--gallery", "k2"),
    ("--gallery", "c4", "--gallery", "c3", "--gallery", "k1"),
    ("--gallery", "sc", "--edges", "4;0 1;2 3"),
    ("--edges", "0", "--edges", "0"),
    ("--edges", "1", "--edges", "0"),
    ("--edges", "1", "--gallery", "p2"),
    ("--gallery", "star3",),
)

_SINGLES = (
    ("--edges", "2;"),
    ("--edges", "0"),
    ("--edges", "1"),
    ("--gallery", "sc"),
    ("--gallery", "c3"),
    ("--edges", "5;0 1;2 3"),
    ("--gallery", "k2", "--gallery", "k2"),
)

_WREATH_PAIRS = (
    ("--gallery", "k2", "--gallery", "c3"),
    ("--edges", "4;0 1;2 3", "--gallery", "k2"),
    ("--gallery", "k1", "--gallery", "k4"),
    ("--gallery", "k1", "--gallery", "c4"),
    ("--edges", "0", "--gallery", "k2"),
    ("--gallery", "sc", "--gallery", "p2"),
    ("--gallery", "k2",),
)

_PATTERN_INPUTS = (
    *(("--gallery", name) for name in (
        "fig7", "sc", "t0", "cherry2", "prism7", "c16", "c64", "p48",
        "c4pn20", "c4pn300", "star20", "k3_12",
    )),
    ("--edges", "0"),
    ("--edges", "1"),
    ("--edges", "5;0 1;2 3"),
)


def invocations():
    """Every pinned argv: construct, then census, then pattern."""
    for mode in ((), ("--json",), ("--format", "graph6"), ("--format", "dot")):
        for kind in ("free", "tensor"):
            for factors in _FACTOR_SETS:
                yield ("construct", kind, *factors, *mode)
        for kind in ("cone", "corona-k1"):
            for single in _SINGLES:
                yield ("construct", kind, *single, *mode)
        for pair in _WREATH_PAIRS:
            yield ("construct", "wreath", *pair, *mode)
    yield ("census", "forests")
    yield ("census", "forests", "--n-max", "6")
    yield ("census", "forests", "--n-max", "0")
    yield ("census", "cherries")
    yield ("census", "cherries", "--n-max", "8")
    yield ("census", "oracle")
    yield ("census", "oracle", "--count", "30", "--seed", "0x11")
    for mode in ((), ("--json",)):
        for source in _PATTERN_INPUTS:
            yield ("pattern", *source, *mode)


def invocation_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    text = json.dumps([rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {" ".join(argv): invocation_digest(argv) for argv in invocations()}


def test_cli_bytes_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[:10]}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(current_digests(), indent=1) + "\n")
    print(f"recorded {DIGESTS}")

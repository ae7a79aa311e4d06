from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from qsym import (
    Graph,
    build,
    cartesian,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edgeless,
    path,
    star,
)
from qsym.census import SplitMix64, enumerate_forests, random_graph

#: The gallery graphs of perfbench's sparse workload: sparse, up to 65
#: vertices, mostly with small groups.
SPARSE_GALLERY = (
    "c4", "c16", "c32", "c48", "c64", "p48", "p64", "t0",
    "c4pn20", "c4pn30", "star20", "k3_12", "sc", "fig7",
)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7) -> Graph:
    """Arbitrary simple graph with n in [min_n, max_n]."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build(n, [e for e, k in zip(pairs, keep) if k])


def small_corpus() -> list[Graph]:
    """A fixed, deterministic spread of small graphs used by several
    suites: families, complements, unions, the odd irregular case."""
    out = [
        edgeless(1),
        edgeless(4),
        complete(2),
        complete(3),
        complete(4),
        complete(5),
        cycle(3),
        cycle(4),
        cycle(5),
        cycle(6),
        path(1),
        path(2),
        path(3),
        path(5),
        star(3),
        star(4),
        star(5),
        complete_bipartite(2, 2),
        complete_bipartite(2, 3),
        complete_bipartite(3, 3),
        complete_bipartite(1, 4),
        disjoint_union([complete(2), complete(2)]),
        disjoint_union([cycle(4), complete(2)]),
        disjoint_union([complete(3), complete(3)]),
        disjoint_union([path(2), edgeless(2)]),
        build(6, [(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
        build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
    ]
    out.extend([complement(cycle(5)), complement(complete_bipartite(3, 3))])
    return out


@lru_cache(maxsize=1)
def kernel_corpus() -> tuple[Graph, ...]:
    """The graphs on which the bitmask kernels are held to the plain
    references they replaced: the first 1,500 0x5EED draws and the
    complements of the first 500, all 308 forests with n <= 9, K_{a,b}
    for 1 <= a, b <= 5, edgeless(0), edgeless(1), edgeless(2) and K2."""
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(1500)]
    return (
        *pool,
        *map(complement, pool[:500]),
        *(f for n in range(1, 10) for f in enumerate_forests(n)),
        *(complete_bipartite(a, b) for a in range(1, 6) for b in range(1, 6)),
        edgeless(0),
        edgeless(1),
        edgeless(2),
        complete(2),
    )


def relabelled(g: Graph, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """``g`` under a random relabelling, and the relabelling as an image
    tuple (vertex v of ``g`` becomes vertex images[v])."""
    images = list(range(g.n))
    rng.shuffle(images)
    back = np.argsort(images)
    return Graph(g.adj[np.ix_(back, back)]), tuple(images)


def hypercube(d: int) -> Graph:
    """Q_d as an iterated cartesian product of K2 (provenance kept)."""
    g = complete(2)
    for _ in range(d - 1):
        g = cartesian(g, complete(2))
    return g


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    return small_corpus()


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once it has run for ``seconds``, so a
    call that never returns fails its test instead of hanging the suite
    (SIGALRM: POSIX, main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s, in {frame.f_code.co_name}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        # the frame the alarm lands in may carry no line number, and then
        # pytest's report of the failure stops the whole run: raise afresh
        raise TimeoutError(str(exc)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

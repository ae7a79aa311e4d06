"""Graph products.

Every binary product lives on the vertex set ``V(g1) x V(g2)`` with the
pair ``(i, alpha)`` packed as index ``i * m + alpha`` (``m = |V(g2)|``,
first factor major).  Each product is computed twice in this package:
here row by row from the factors' neighbour bitmasks, each row that of
the matrix formula the docstring states (see :func:`_kron`), and in
:func:`edge_rule_product` on a matrix via the definitional vertex-pair
rules.  Tests and the census oracle insist the two agree bit for bit.

A note on the lexicographic product: the convention implemented here
joins *all* pairs across adjacent levels of the second factor, and lays
a copy of the first factor on each level.  Concretely
``lexicographic(edgeless(2), complete(2))`` is a 4-cycle, and
``lexicographic(g, edgeless(k))`` is k disjoint copies of ``g``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadParams
from .graphs import Graph, Provenance, _init_graph, check_order


def _kron(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Rows of X (x) Y, X and Y the 0/1 matrices with rows ``x`` and ``y``
    (m = len(y)): row (i, alpha) has (j, beta) at bit j*m + beta.  It is
    ``x[i]`` spread to one bit every m, times ``y[alpha] < 2**m``: no carry."""
    gap = "0" * (len(y) - 1)
    spread = [int(gap.join(bin(row)[2:]), 2) for row in x]
    return [s * row for s in spread for row in y]


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: move along an edge in one coordinate, stand
    still in the other.  Matrix form A1 (x) I + I (x) A2."""
    check_order(g1.n * g2.n)
    eye1, eye2 = [1 << i for i in range(g1.n)], [1 << a for a in range(g2.n)]
    bits = (a | b for a, b in zip(_kron(g1._bits, eye2), _kron(eye1, g2._bits)))
    provenance = Provenance("cartesian", (g1, g2))
    return _init_graph(Graph.__new__(Graph), tuple(bits), None, provenance)


def direct(g1: Graph, g2: Graph) -> Graph:
    """Direct (tensor) product: move in both coordinates at once.
    Matrix form A1 (x) A2."""
    check_order(g1.n * g2.n)
    bits = tuple(_kron(g1._bits, g2._bits))
    return _init_graph(Graph.__new__(Graph), bits, None, Provenance("direct", (g1, g2)))


def strong(g1: Graph, g2: Graph) -> Graph:
    """Strong product: move-or-stay in each coordinate, but not both
    staying.  Matrix form (A1 + I) (x) (A2 + I) - I, clipped to 0/1."""
    check_order(g1.n * g2.n)
    closed1, closed2 = ([r | 1 << v for v, r in enumerate(g._bits)] for g in (g1, g2))
    bits = tuple(row ^ (1 << v) for v, row in enumerate(_kron(closed1, closed2)))
    return _init_graph(Graph.__new__(Graph), bits, None, Provenance("strong", (g1, g2)))


def lexicographic(g1: Graph, g2: Graph) -> Graph:
    """Lexicographic product, second factor outermost (see module note).
    Matrix form A1 (x) I + J (x) A2, clipped to 0/1."""
    check_order(g1.n * g2.n)
    eye2, ones1 = [1 << a for a in range(g2.n)], [(1 << g1.n) - 1] * g1.n
    bits = (a | b for a, b in zip(_kron(g1._bits, eye2), _kron(ones1, g2._bits)))
    provenance = Provenance("lexicographic", (g1, g2))
    return _init_graph(Graph.__new__(Graph), tuple(bits), None, provenance)


def corona(g1: Graph, g2: Graph) -> Graph:
    """Corona product: ``g1`` plus one private copy of ``g2`` per base
    vertex, the whole copy joined to its base vertex.

    Layout: base vertices first (``0..n-1``), then copy ``alpha`` of
    ``g2`` occupies the block ``n + alpha*m .. n + (alpha+1)*m - 1``.
    """
    n, m = g1.n, g2.n
    check_order(n + n * m)
    bits = [row | ((1 << m) - 1) << (n + a * m) for a, row in enumerate(g1._bits)]
    bits += [(row << (n + a * m)) | (1 << a) for a in range(n) for row in g2._bits]
    provenance = Provenance("corona", (g1, g2))
    return _init_graph(Graph.__new__(Graph), tuple(bits), None, provenance)


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Disjoint union, blocks in input order: each graph's rows shifted
    past the graphs before it.  Empty input gives the empty graph."""
    check_order(sum(g.n for g in graphs))
    bits, offset = [], 0
    for g in graphs:
        bits += [row << offset for row in g._bits]
        offset += g.n
    return _init_graph(Graph.__new__(Graph), tuple(bits), None, None)


# ---------------------------------------------------------------------------
# definitional twins (used for cross-checking the bitmask constructors)

PRODUCT_KINDS = ("cartesian", "direct", "strong", "lexicographic")


def edge_rule_product(kind: str, g1: Graph, g2: Graph) -> Graph:
    """Build a product straight from its vertex-pair rule, no matrix
    algebra.  Same vertex packing as the bitmask constructors, so
    the outputs must be *equal*, not just isomorphic."""
    n, m = g1.n, g2.n
    check_order(n * m)
    adj = np.zeros((n * m, n * m), dtype=bool)
    for i in range(n):
        for alpha in range(m):
            a = i * m + alpha
            for j in range(n):
                for beta in range(m):
                    b = j * m + beta
                    if a >= b:
                        continue
                    e1 = bool(g1.adj[i, j])
                    e2 = bool(g2.adj[alpha, beta])
                    if kind == "cartesian":
                        hit = (i == j and e2) or (alpha == beta and e1)
                    elif kind == "direct":
                        hit = e1 and e2
                    elif kind == "strong":
                        hit = (
                            (i == j and e2)
                            or (alpha == beta and e1)
                            or (e1 and e2)
                        )
                    elif kind == "lexicographic":
                        hit = e2 or (alpha == beta and e1)
                    else:
                        raise BadParams(f"unknown product kind {kind!r}")
                    if hit:
                        adj[a, b] = adj[b, a] = True
    return Graph(adj)


def corona_counts(g1: Graph, g2: Graph) -> tuple[int, int]:
    """Expected (vertex, edge) counts of ``corona(g1, g2)``:
    ``n + n*m`` vertices and ``|E1| + n*|E2| + n*m`` edges."""
    n, m = g1.n, g2.n
    return n + n * m, g1.edge_count + n * g2.edge_count + n * m

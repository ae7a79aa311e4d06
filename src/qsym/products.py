"""Graph products.

Every binary product lives on the vertex set ``V(g1) x V(g2)`` with the
pair ``(i, alpha)`` packed as index ``i * m + alpha`` (``m = |V(g2)|``,
first factor major).  Each product is computed twice in this package:
here via boolean matrix formulas (Kronecker products), and in
:func:`edge_rule_product` via the definitional vertex-pair rules.  Tests
and the census oracle insist the two routes agree bit for bit.

A note on the lexicographic product: the convention implemented here
joins *all* pairs across adjacent levels of the second factor, and lays
a copy of the first factor on each level.  Concretely
``lexicographic(edgeless(2), complete(2))`` is a 4-cycle, and
``lexicographic(g, edgeless(k))`` is k disjoint copies of ``g``.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParams
from .graphs import Graph, Provenance, check_order


def _eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=bool)


def _ones(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=bool)


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: move along an edge in one coordinate, stand
    still in the other.  Matrix form A1 (x) I + I (x) A2."""
    check_order(g1.n * g2.n)
    adj = np.kron(g1.adj, _eye(g2.n)) | np.kron(_eye(g1.n), g2.adj)
    return Graph(adj, provenance=Provenance("cartesian", (g1, g2)))


def direct(g1: Graph, g2: Graph) -> Graph:
    """Direct (tensor) product: move in both coordinates at once.
    Matrix form A1 (x) A2."""
    check_order(g1.n * g2.n)
    adj = np.kron(g1.adj, g2.adj)
    return Graph(adj, provenance=Provenance("direct", (g1, g2)))


def strong(g1: Graph, g2: Graph) -> Graph:
    """Strong product: move-or-stay in each coordinate, but not both
    staying.  Matrix form (A1 + I) (x) (A2 + I) - I, clipped to 0/1."""
    check_order(g1.n * g2.n)
    adj = np.kron(g1.adj | _eye(g1.n), g2.adj | _eye(g2.n))
    np.fill_diagonal(adj, False)
    return Graph(adj, provenance=Provenance("strong", (g1, g2)))


def lexicographic(g1: Graph, g2: Graph) -> Graph:
    """Lexicographic product, second factor outermost (see module note).
    Matrix form A1 (x) I + J (x) A2, clipped to 0/1."""
    check_order(g1.n * g2.n)
    adj = np.kron(g1.adj, _eye(g2.n)) | np.kron(_ones(g1.n), g2.adj)
    return Graph(adj, provenance=Provenance("lexicographic", (g1, g2)))


def corona(g1: Graph, g2: Graph) -> Graph:
    """Corona product: ``g1`` plus one private copy of ``g2`` per base
    vertex, the whole copy joined to its base vertex.

    Layout: base vertices first (``0..n-1``), then copy ``alpha`` of
    ``g2`` occupies the block ``n + alpha*m .. n + (alpha+1)*m - 1``.
    """
    n, m = g1.n, g2.n
    total = n + n * m
    check_order(total)
    adj = np.zeros((total, total), dtype=bool)
    adj[:n, :n] = g1.adj
    for alpha in range(n):
        lo = n + alpha * m
        hi = lo + m
        adj[lo:hi, lo:hi] = g2.adj
        adj[alpha, lo:hi] = True
        adj[lo:hi, alpha] = True
    return Graph(adj, provenance=Provenance("corona", (g1, g2)))


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Disjoint union, blocks in input order.  Empty input gives the
    empty graph."""
    total = sum(g.n for g in graphs)
    check_order(total)
    adj = np.zeros((total, total), dtype=bool)
    offset = 0
    for g in graphs:
        adj[offset : offset + g.n, offset : offset + g.n] = g.adj
        offset += g.n
    return Graph(adj)


# ---------------------------------------------------------------------------
# definitional twins (used for cross-checking the matrix formulas)

PRODUCT_KINDS = ("cartesian", "direct", "strong", "lexicographic")


def edge_rule_product(kind: str, g1: Graph, g2: Graph) -> Graph:
    """Build a product straight from its vertex-pair rule, no matrix
    algebra.  Same vertex packing as the formula-based constructors, so
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

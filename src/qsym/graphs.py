"""Finite simple graphs and the structural predicates the rest of the
package leans on.

Graphs are immutable: one neighbour bitmask per vertex, optional display
labels, and a boolean matrix kept only when ``Graph(adj)`` or the graph6
reader is handed one (else unpacked on first read).  Vertices are always
``0..n-1``; labels are cosmetic and never affect equality.  The helpers
here are deliberately plain -- walks on neighbour bitmasks, a forest's
branch forms, re-verifying an isomorphism -- because everything
downstream (certificates, census runs) wants to re-verify results
against *simple* code.  The isomorphism *search* is in :mod:`qsym.automorphisms`.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParams, IndexOutOfRange, LengthMismatch, LoopEdge
from .errors import NotATree, OutOfRange

#: Sentinel used in distance matrices for "no path".
UNREACHABLE = -1

#: The most vertices any constructor accepts.  Each one passes its
#: declared order to :func:`check_order` before anything is allocated, so
#: ``k1000000``, an edge-list header of 10**9 or a product of two large
#: factors is refused rather than exhausting memory.  The largest graph
#: the demos and the benchmark build has 66 vertices, and the searches
#: are meant for small graphs anyway.
MAX_ORDER = 4096


def check_order(n: int) -> None:
    """Refuse a declared order above :data:`MAX_ORDER` with
    :class:`BadParams`, before its rows are built."""
    if n > MAX_ORDER:
        raise BadParams(f"vertex count {n} is above the limit of {MAX_ORDER}")


@dataclass(frozen=True)
class Provenance:
    """How a graph was made, when a product constructor made it.

    ``kind`` is one of ``cartesian``, ``direct``, ``strong``,
    ``lexicographic`` or ``corona``; ``factors`` holds the operand graphs
    in order.  The classifier uses this to lift verdicts from factors to
    the product.  Structural operations (complement, induced subgraphs)
    drop provenance, since they do not preserve the product shape.
    """

    kind: str
    factors: tuple["Graph", ...]


@dataclass(frozen=True)
class Cherry:
    """A cherry: two degree-1 vertices ``v1 < v2`` hanging off a common
    neighbour ``w`` of degree exactly 3."""

    v1: int
    v2: int
    w: int


def _pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Each row of a square boolean matrix as a bitmask (bit ``j`` set iff
    ``matrix[i, j]``)."""
    rows = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


def _unpack_rows(bits: Sequence[int]) -> np.ndarray:
    """The square boolean matrix whose rows are the bitmasks ``bits``."""
    n = len(bits)
    width = (n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in bits)
    rows = np.frombuffer(packed, np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


class Graph:
    """An immutable simple graph on vertices ``0..n-1``.

    The neighbour bitmasks are the representation: bit ``j`` of
    ``_bits[i]`` is set iff i ~ j.  :attr:`adj`, the boolean matrix, is
    kept only when ``Graph(adj)`` or the graph6 reader is handed one;
    every other constructor writes bitmasks, and the matrix is unpacked
    from them on first read."""

    __slots__ = ("n", "labels", "provenance", "_bits", "_degrees", "_adj")

    def __init__(
        self,
        adj: np.ndarray,
        labels: Sequence[str] | None = None,
        provenance: Provenance | None = None,
    ):
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise BadParams(f"adjacency matrix must be square, got {adj.shape}")
        check_order(adj.shape[0])
        adj = np.array(adj, dtype=bool, order="C")
        if adj.diagonal().any():
            raise LoopEdge("adjacency matrix has a nonzero diagonal")
        if not np.array_equal(adj, adj.T):
            raise BadParams("adjacency matrix must be symmetric")
        _init_graph(self, _pack_rows(adj), labels, provenance, adj)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Graph is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def adj(self) -> np.ndarray:
        """The adjacency matrix, read-only: the one a constructor was
        handed, or else unpacked from the bitmasks on first read."""
        if self._adj is None:
            adj = _unpack_rows(self._bits)
            adj.flags.writeable = False
            object.__setattr__(self, "_adj", adj)
        return self._adj

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return self._degrees

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._degrees[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return _mask_vertices(self._bits[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted pairs ``(u, v)`` with ``u < v``, sorted: for
        each u, the neighbours above u read off ``N(u) >> (u + 1)``."""
        out = []
        for u, row in enumerate(self._bits):
            rest = row >> (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, u + low.bit_length()))
                rest ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(self._degrees) // 2

    def label_of(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} outside range(0, {self.n})")

    # -- equality is by labelled structure, ignoring display labels -----

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._bits == other._bits

    def __hash__(self):
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _init_graph(
    g: Graph,
    bits: tuple[int, ...],
    labels: Sequence[str] | None,
    provenance: Provenance | None,
    adj: np.ndarray | None = None,
) -> Graph:
    """Fill ``g``'s fields from its neighbour bitmasks ``bits``, which the
    caller vouches for as symmetric and loop-free, and return it.  ``adj``,
    when given, is their matrix, which ``g`` then owns."""
    n = len(bits)
    if labels is not None and len(labels) != n:
        raise BadParams(f"{len(labels)} labels for {n} vertices")
    if adj is not None:
        adj.flags.writeable = False
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "labels", tuple(labels) if labels is not None else None)
    object.__setattr__(g, "provenance", provenance)
    object.__setattr__(g, "_bits", bits)
    object.__setattr__(g, "_degrees", tuple(row.bit_count() for row in bits))
    object.__setattr__(g, "_adj", adj)
    return g


# ---------------------------------------------------------------------------
# construction


def build(n: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None) -> Graph:
    """Build a graph from an explicit edge list.

    Raises :class:`LoopEdge` on an edge ``(v, v)``,
    :class:`IndexOutOfRange` on a vertex outside ``range(n)`` and
    :class:`BadParams` on ``n`` above :data:`MAX_ORDER`.  Duplicate edges
    (in either orientation) collapse silently.  The families below pass
    their edges as generators, so an order over the cap lists none.
    """
    if n < 0:
        raise BadParams(f"vertex count must be >= 0, got {n}")
    check_order(n)
    bits = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside range(0, {n})")
        u, v = operator.index(u), operator.index(v)  # numpy ints would wrap shifts
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    # symmetric and loop-free by construction
    return _init_graph(Graph.__new__(Graph), tuple(bits), labels, None)


def complement(g: Graph) -> Graph:
    """The complement graph on the same vertex set (labels preserved).

    It is read off ``g``'s neighbour bitmasks: vertex v's row is every
    vertex but v outside N(v).  That is symmetric, as u lies outside N(v)
    exactly when v lies outside N(u), and loop-free, as v leaves itself
    out, so no matrix is built or checked."""
    full = (1 << g.n) - 1
    bits = tuple(full ^ row ^ (1 << v) for v, row in enumerate(g._bits))
    return _init_graph(Graph.__new__(Graph), bits, g.labels, None)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """The induced subgraph on ``keep``, renumbered in ascending order of
    the kept original indices (labels carried along).  Each kept row's
    bitmask is compressed into the new numbering, so no matrix is built
    or checked."""
    keep = sorted(set(map(operator.index, keep)))  # numpy ints would wrap shifts
    for v in keep:
        g._check_vertex(v)
    position = {v: i for i, v in enumerate(keep)}
    kept = sum(1 << v for v in keep)
    bits = tuple(
        sum(1 << position[u] for u in _mask_vertices(g._bits[v] & kept)) for v in keep
    )
    labels = [g.labels[v] for v in keep] if g.labels is not None else None
    return _init_graph(Graph.__new__(Graph), bits, labels, None)


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge of ``g``, adjacent iff the
    edges share an endpoint.  Edge order (and hence vertex numbering of
    the result) follows :meth:`Graph.edges`.  Edge k = (u, v) gets the
    edges at u or at v, itself left out, so no matrix is built or checked."""
    es = g.edges()
    check_order(len(es))
    at = [0] * g.n
    for k, (u, v) in enumerate(es):
        at[u] |= 1 << k
        at[v] |= 1 << k
    bits = tuple((at[u] | at[v]) ^ (1 << k) for k, (u, v) in enumerate(es))
    labels = [f"{u}-{v}" for u, v in es]
    return _init_graph(Graph.__new__(Graph), bits, labels, None)


# ---------------------------------------------------------------------------
# metrics and predicates


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances by BFS; ``UNREACHABLE`` (-1) across
    components.  Returned array is read-only.

    The BFS runs level by level on the neighbour bitmasks: the next
    frontier is the OR of the frontier's masks minus the vertices
    already seen."""
    n = g.n
    bits = g._bits
    rows = []
    for s in range(n):
        row = [UNREACHABLE] * n
        seen = frontier = 1 << s
        k = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                row[v] = k
                reach |= bits[v]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            k += 1
        rows.append(row)
    dist = np.array(rows, dtype=np.int64).reshape(n, n)
    dist.flags.writeable = False
    return dist


def contains_quadrangle(g: Graph) -> bool:
    """Whether ``g`` contains a 4-cycle subgraph (not necessarily induced),
    that is, whether two distinct vertices have two common neighbours.

    One walk over the neighbour bitmasks: ``shared[u]`` holds the vertices
    already seen to share a neighbour with u.  At vertex w, for each u in
    N(w), a vertex x in ``shared[u] & (N(w) - {u})`` closes the 4-cycle
    u, w, x, w' with w' the earlier common neighbour of u and x: x != u,
    and w != w' since w adds to ``shared[u]`` only after this test.
    Conversely, for a 4-cycle u, w', x, w with w' walked first, w' puts x
    in ``shared[u]``, and the test at w finds it."""
    shared = [0] * g.n
    for nbrs in g._bits:
        rest = nbrs
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            others = nbrs ^ low
            if shared[u] & others:
                return True
            shared[u] |= others
            rest ^= low
    return False


def _mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _component_masks(rows: Sequence[int]) -> list[int]:
    """Connected components of the graph whose neighbour bitmasks are
    ``rows``, each as a bitmask, ordered by least vertex.  A row may
    include its own vertex.  Each component grows level by level: the
    next frontier is the OR of the frontier's rows minus what is seen."""
    left = (1 << len(rows)) - 1
    out = []
    while left:
        seen = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        out.append(seen)
        left &= ~seen
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, each a frozenset, ordered by least vertex."""
    return [frozenset(_mask_vertices(m)) for m in _component_masks(g._bits)]


def is_connected(g: Graph) -> bool:
    """True when there is at most one component (vacuously for n=0)."""
    return len(_component_masks(g._bits)) <= 1


def is_forest(g: Graph) -> bool:
    """Acyclic?  A graph is a forest exactly when it has n - c edges, c
    being its number of components."""
    return g.edge_count == g.n - len(_component_masks(g._bits))


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def tree_center(g: Graph) -> tuple[int, ...]:
    """Centre of a tree, the middle of a longest path: one or two vertices."""
    if not is_tree(g):
        raise NotATree("tree_center needs a tree")
    return branch_forms(g)[0][0][0]


def _walk(bits: Sequence[int], roots: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """Breadth-first order from ``roots`` and each reached vertex's
    parent, -1 at a root; no root is reached from another."""
    order, parent = list(roots), dict.fromkeys(roots, -1)
    seen = sum(1 << r for r in roots)
    for v in order:
        rest = bits[v] & ~seen
        seen |= rest
        for u in _mask_vertices(rest):
            parent[u] = v
            order.append(u)
    return order, parent


def branch_forms(
    g: Graph, table: dict[tuple[int, ...], int] | None = None
) -> tuple[list[tuple[tuple[int, ...], int]], list[int]]:
    """The canonical branch forms of a forest (Aho, Hopcroft and Ullman):
    per component, by least vertex, its centre and form; then the sizes
    of the swap classes.  ``g`` must be a forest.

    A centre is the middle of a longest path, found by two breadth-first
    walks: a vertex, or the ends of a central edge, which is cut.  Rooted
    there, bottom-up, each branch's form is the id in ``table`` (fresh
    unless given) of its children's sorted forms, so two branches share
    a form exactly when they are isomorphic.  A component's form is its
    centre's, or that of (-1, its halves' forms), and the forest's that
    of its components' forms; two components, or two forests, read with
    one ``table`` are isomorphic exactly when their forms are equal.  A
    swap class is two or more branches of one form that are the children
    of a vertex, the halves of a central edge, or components; swapping
    two of them is an automorphism."""
    table = {} if table is None else table
    classes: list[int] = []

    def form(key: tuple[int, ...]) -> int:
        if len(set(key)) < len(key):
            classes.extend(k for k in Counter(key).values() if k > 1)
        return table.setdefault(key, len(table))

    comps = []
    for mask in _component_masks(g._bits):
        far = _walk(g._bits, [(mask & -mask).bit_length() - 1])[0][-1]
        order, parent = _walk(g._bits, [far])
        line = [order[-1]]
        while line[-1] != far:
            line.append(parent[line[-1]])
        centre = tuple(sorted({line[(len(line) - 1) // 2], line[len(line) // 2]}))
        order, parent = _walk(g._bits, centre)
        kids: dict[int, list[int]] = {-1: []}
        for v in reversed(order):
            branch = form(tuple(sorted(kids.pop(v, ()))))
            kids.setdefault(parent[v], []).append(branch)
        halves = sorted(kids[-1])
        comps.append((centre, halves[0] if len(halves) == 1 else form((-1, *halves))))
    form(tuple(sorted(f for _, f in comps)))  # the components' swap classes
    return comps, classes


def forest_has_disjoint_pair(g: Graph) -> bool:
    """Whether the forest ``g`` has two non-trivial automorphisms σ, τ with
    disjoint supports: exactly when it has two swap classes, or one of
    four or more branches (see :func:`branch_forms`).  Such a pair is
    edge-free: an edge i ~ k, σ(i) ≠ i, τ(k) ≠ k closes i, k, σ(i), τ(k).

    Proof.  Four members of a class give two disjoint swaps.  So do two
    classes, unless one lies in a member X of the other; then its swap
    and that swap carried onto another member Y ≅ X are disjoint.
    Conversely, σ permutes components and centres, and so the rooted
    branches; a moved branch nearest a root goes to another member of
    its class, and σ moves all of both.  So disjoint σ, τ show two
    classes, or four members of one."""
    _, classes = branch_forms(g)
    return len(classes) > 1 or any(k > 3 for k in classes)


def find_cherries(g: Graph) -> tuple[Cherry, ...]:
    """All cherries of ``g``, sorted by (centre, leaf pair)."""
    out = []
    for w in range(g.n):
        if g.degree(w) != 3:
            continue
        ones = [u for u in g.neighbors(w) if g.degree(u) == 1]
        for i in range(len(ones)):
            for j in range(i + 1, len(ones)):
                out.append(Cherry(v1=ones[i], v2=ones[j], w=w))
    out.sort(key=lambda c: (c.w, c.v1, c.v2))
    return tuple(out)


# ---------------------------------------------------------------------------
# isomorphism


def is_isomorphism(g1: Graph, g2: Graph, images: Sequence[int]) -> bool:
    """Check that ``images`` (vertex i of g1 goes to images[i] in g2) is a
    graph isomorphism: for every vertex ``i``, it must map the neighbours
    of ``i`` exactly onto the neighbours of ``images[i]``.  Pure
    re-verification, no search."""
    n = g1.n
    images = tuple(map(operator.index, images))  # numpy ints would overflow shifts
    if g2.n != n or len(images) != n or sorted(images) != list(range(n)):
        return False
    bits2 = g2._bits
    for i, nbrs in enumerate(g1._bits):
        image = 0
        while nbrs:
            low = nbrs & -nbrs
            image |= 1 << images[low.bit_length() - 1]
            nbrs ^= low
        if image != bits2[images[i]]:
            return False
    return True


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``0..n-1`` stored as its image tuple.

    ``p.images[v]`` is where ``v`` goes.  As a matrix this is the
    0/1 matrix with ``M[p(j), j] = 1``, so ``p`` is a graph automorphism
    exactly when ``M A = A M`` for the adjacency matrix ``A``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            if any(not 0 <= v < n for v in self.images):
                raise OutOfRange(f"images {self.images} not within range({n})")
            raise OutOfRange(f"images {self.images} are not a bijection")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def support(self) -> frozenset[int]:
        return frozenset(v for v, w in enumerate(self.images) if v != w)

    def support_mask(self) -> int:
        mask = 0
        for v, w in enumerate(self.images):
            if v != w:
                mask |= 1 << v
        return mask

    @property
    def is_identity(self) -> bool:
        return all(v == w for v, w in enumerate(self.images))

    def cycles(self, names: Sequence[str] | None = None) -> str:
        """Cycle notation for display, e.g. ``(0 2)(1 3)``; ``id`` if
        trivial.  ``names`` substitutes vertex labels for the indices."""
        seen = [False] * self.n
        parts = []
        for v in range(self.n):
            if seen[v] or self.images[v] == v:
                seen[v] = True
                continue
            cyc = [v]
            seen[v] = True
            w = self.images[v]
            while w != v:
                cyc.append(w)
                seen[w] = True
                w = self.images[w]
            text = " ".join(str(x) if names is None else names[x] for x in cyc)
            parts.append(f"({text})")
        return "".join(parts) if parts else "id"


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Re-verify that ``p`` preserves adjacency on ``g``."""
    if p.n != g.n:
        raise LengthMismatch(f"permutation on {p.n} points, graph on {g.n}")
    return is_isomorphism(g, g, p.images)


def _edge_between(g: Graph, mask_a: int, mask_b: int) -> bool:
    """Whether an edge joins a vertex of ``mask_a`` to one of ``mask_b``."""
    m = mask_a
    while m:
        v = (m & -m).bit_length() - 1
        if g._bits[v] & mask_b:
            return True
        m &= m - 1
    return False


# ---------------------------------------------------------------------------
# standard families


def edgeless(n: int) -> Graph:
    if n < 0:
        raise BadParams("need n >= 0")
    return build(n, [])


def complete(n: int) -> Graph:
    if n < 0:
        raise BadParams("need n >= 0")
    return build(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParams("a cycle needs at least 3 vertices")
    return build(n, ((i, (i + 1) % n) for i in range(n)))


def path(k: int) -> Graph:
    """The path with ``k`` edges, hence ``k + 1`` vertices."""
    if k < 0:
        raise BadParams("need k >= 0 edges")
    return build(k + 1, ((i, i + 1) for i in range(k)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise BadParams("both sides must be nonempty")
    return build(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def star(n: int) -> Graph:
    """The star with ``n`` rays: hub vertex 0 joined to ``1..n``."""
    if n < 1:
        raise BadParams("need at least one ray")
    return build(n + 1, ((0, i) for i in range(1, n + 1)))

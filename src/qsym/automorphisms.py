"""Automorphism groups and isomorphisms by one backtracking search, and
the disjoint-pair searches that drive the non-commutativity
certificates.

Aut(g) is first built as a stabiliser chain along the base 0, 1, ...,
n-1 (Seress, *Permutation Group Algorithms*, 2003).  Level i holds the
orbit of i under G_i, the automorphisms that fix 0..i-1, and one
transversal element per orbit point.  The levels are built deepest
first.  At level i each candidate image x of i -- same degree profile,
same distance class to each fixed point 0..i-1, and not yet in the orbit
the generators found so far give -- is tried by one first-leaf search
with the prefix fixed (identity on 0..i-1, i -> x); every leaf found is
a new generator.  |Aut(g)| is the product of the orbit sizes.

The search maps each vertex to one with the same degree profile and the
same distance class (see :func:`_distance_classes`) to the image of
every earlier vertex, a first step of individualise-and-refine (McKay
and Piperno, "Practical graph isomorphism II", 2014).  As there, the
work follows what a vertex touches: each vertex is tested against its
near earlier vertices (adjacent or two steps away) one by one, and
against all the far ones at once by a count (see :class:`_Search`), so
on a sparse graph the set-up and each node cost about a neighbourhood,
not n.  The twin classes (:func:`_twin_classes`) are read in one pass
over the neighbour bitmasks too, not by testing every vertex pair.

The complete listing is then composed from the transversals in numpy,
one level at a time: every element is t_0 t_1 ... t_{n-1}, one
transversal element per level, and ordering the children of each prefix
by where the prefix sends that level's orbit point gives the
lexicographic order of image tuples exactly.  Each distinct support
mask keeps the images of its first element, its lexicographically
smallest, in the support table.  The listing is composed, and up to 64
points its masks are taken, in fixed blocks of rows (:data:`_BLOCK`), so
no temporary grows with the table.
The pair searches read only its inclusion-minimal masks, and only a
witness pair becomes Permutations.

One search node is one unused, profile-compatible candidate image at a
level of a first-leaf search, counted before the distance-class tests;
the candidates of a chain level are filtered for free.  Once the group
order is known, one more node is charged per entry of the listing, order
times n, before any element is built.  That total is what ``--budget``
caps, so it bounds the listing's memory as well as the search.  It
depends only on the graph, never on the machine, and a group too large
for the budget is refused without being listed.  Candidate sets are
bitmasks over the vertices.

:func:`are_isomorphic` runs the same first-leaf search from one graph
onto another, without a budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import SizeLimitExceeded
from .graphs import Graph, Permutation, _edge_between, _mask_vertices, is_automorphism

#: Default cap on search nodes for one listing of Aut(g).
DEFAULT_NODE_BUDGET = 10_000_000

#: Rows of the table that :func:`_listing` composes, and :func:`_supports`
#: keys, at once.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class AutomorphismSet:
    """The full automorphism group of a graph, listed in lexicographic
    order of image tuples (so the identity comes first).

    ``table`` holds the elements as the rows of a read-only integer
    array.  ``supports``, the support table, maps each distinct non-empty
    support mask to the images of its lexicographically smallest element,
    ordered by support size, then by first occurrence in the listing.
    The pair searches scan only its inclusion-minimal masks,
    :attr:`minimal`.  ``transitive`` says whether the group moves vertex
    0 to every vertex, which the chain's first level, the orbit of 0,
    shows.  :attr:`images` and :attr:`elements` build Python tuples and
    :class:`Permutation` objects on first use; :attr:`order`, ``supports``
    and :attr:`minimal` never need them.
    """

    table: np.ndarray
    supports: dict[int, tuple[int, ...]] = field(repr=False)
    transitive: bool

    @cached_property
    def minimal(self) -> dict[int, tuple[int, ...]]:
        """The entries of ``supports`` whose mask has no other support mask
        as a subset, in table order.  A mask with a proper subset in the
        table has a minimal one, which is smaller and so comes earlier:
        each mask is checked against the minimal masks kept so far."""
        kept: dict[int, tuple[int, ...]] = {}
        for mask, images in self.supports.items():
            rest = ~mask
            if all(low & rest for low in kept):
                kept[mask] = images
        return kept

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.table.tolist()))

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation, self.images))

    @property
    def order(self) -> int:
        return len(self.table)

    def nontrivial(self) -> tuple[Permutation, ...]:
        return self.elements[1:]


def _profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's degree and sorted multiset of neighbour degrees."""
    degrees = g.degree_sequence
    return [
        (degrees[v], tuple(sorted([degrees[u] for u in _mask_vertices(nbrs)])))
        for v, nbrs in enumerate(g._bits)
    ]


def _distance_classes(g: Graph) -> list[tuple[int, int, int]]:
    """Per vertex w, the vertices *near* it split three ways as bitmasks:
    the neighbours u with N[u] | N[w] = V, the other neighbours, and the
    vertices two steps away.  The rest, the far vertices, make a fourth
    class.  Every isomorphism preserves the split, so no leaf is lost; a
    complement has the same four sets with the labels swapped (first
    with far, second with third), so a graph and its complement spend
    the same nodes.  Each class is symmetric: u is in w's exactly when w
    is in u's."""
    bits = g._bits
    full = (1 << g.n) - 1
    out = []
    for w, nbrs in enumerate(bits):
        outside = full & ~nbrs & ~(1 << w)
        spanning = reach = 0
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            row = bits[low.bit_length() - 1]
            reach |= row
            if not outside & ~row:
                spanning |= low
        out.append((spanning, nbrs & ~spanning, reach & outside))
    return out


class _Search:
    """The backtracking search for distance-class-preserving bijections
    g -> h (see :func:`_distance_classes`), stopped at its first leaf.

    Vertices of ``g`` are mapped in index order, each to an unused vertex
    of ``h`` with the same profile and the same distance class to the
    image of every earlier vertex as it has to that vertex (built only
    when the profiles match).  Candidates are tried in increasing order,
    so :meth:`first_leaf` returns the lexicographically smallest
    extension of its prefix.  ``nodes`` adds up over all calls, charged
    as described in the module docstring; past ``budget`` it raises
    :class:`SizeLimitExceeded`.

    Per vertex v, ``earlier[v]`` files only v's *near* earlier vertices,
    each under its class, so the set-up and each node follow v's
    neighbourhood, not every earlier vertex.  The far ones are tested by
    a count: when v has a far earlier vertex, ``counts[v]`` holds
    k_v = |near_g(v) ∩ {0..v-1}|, else it is None.  Let x pass the near
    tests, and let ``used`` hold the images of 0..v-1.  Then x is far from
    the image of every far earlier vertex exactly when
    |near_h(x) ∩ used| = k_v.  Proof: for each near earlier u, x lies in
    the class of u's image that v has to u, so, the classes being
    symmetric, u's image lies in near_h(x); these are k_v distinct
    members of near_h(x) ∩ used.  Every other member of ``used`` is the
    image of a far earlier vertex, so the count exceeds k_v exactly when
    some such image is near x.  The count is taken as each candidate is
    tried, after its node is charged, so it changes no node count.
    """

    def __init__(self, g: Graph, h: Graph, budget: float):
        gprof = _profiles(g)
        hprof = gprof if h is g else _profiles(h)
        #: False when the sorted profiles differ, so no leaf exists
        self.possible = sorted(gprof) == sorted(hprof)
        self.budget = budget
        self.nodes = 0
        if not self.possible:
            return
        classes: dict[tuple, int] = {}
        for w, prof in enumerate(hprof):
            classes[prof] = classes.get(prof, 0) | 1 << w
        self.cand_mask = [classes.get(prof, 0) for prof in gprof]
        gclasses = _distance_classes(g)
        hclasses = gclasses if h is g else _distance_classes(h)
        self.near = [a | b | c for a, b, c in hclasses]
        # per class, the masks of every vertex of h: the image of v must
        # lie in the class of the image of u that v has to u, for each
        # earlier near u; so per vertex, its earlier near vertices grouped
        # by class, each group with that class's masks
        tables = list(zip(*hclasses))
        self.earlier = []
        self.counts = []
        for v, masks in enumerate(gclasses):
            lower = (1 << v) - 1
            self.earlier.append([
                (_mask_vertices(mask & lower), table)
                for mask, table in zip(masks, tables)
                if mask & lower
            ])
            k = ((masks[0] | masks[1] | masks[2]) & lower).bit_count()
            self.counts.append(k if k < v else None)

    def charge(self, count: int) -> None:
        self.nodes += count
        if self.nodes > self.budget:
            raise SizeLimitExceeded(self.budget)

    def first_leaf(self, prefix: Sequence[int]) -> tuple[int, ...] | None:
        """The smallest leaf whose images of ``0..len(prefix)-1`` are
        ``prefix`` (which must itself preserve the distance classes), or
        ``None``.  Depth first, without recursion: ``rest[v]`` holds the
        candidates for ``v`` that passed the near tests, not yet tried."""
        cand_mask, earlier, counts, near = (
            self.cand_mask, self.earlier, self.counts, self.near
        )
        n, budget = len(cand_mask), self.budget
        images = [*prefix, *[0] * (n - len(prefix))]
        used = sum(1 << x for x in prefix)
        nodes = self.nodes
        start = v = len(prefix)
        rest = [0] * n
        try:
            while v < n:
                free = cand_mask[v] & ~used
                nodes += free.bit_count()
                if nodes > budget:
                    raise SizeLimitExceeded(budget)
                for group, table in earlier[v]:
                    for u in group:
                        free &= table[images[u]]
                while True:
                    # back up to the deepest vertex with a candidate left
                    while not free:
                        v -= 1
                        if v < start:
                            return None
                        used ^= 1 << images[v]
                        free = rest[v]
                    low = free & -free
                    free ^= low
                    x = low.bit_length() - 1
                    k = counts[v]
                    if k is None or (near[x] & used).bit_count() == k:
                        break
                rest[v] = free
                images[v] = x
                used |= low
                v += 1
        finally:
            self.nodes = nodes
        return tuple(images)


def _transversal(
    point: int, gens: Sequence[tuple[int, ...]], identity: tuple[int, ...]
) -> dict[int, tuple[int, ...]]:
    """The orbit of ``point`` under ``gens``, each orbit point x mapped to
    an element (a product of generators) that sends ``point`` to x;
    ``point`` itself maps to the identity."""
    reps = {point: identity}
    queue = [point]
    for x in queue:
        t = reps[x]
        for s in gens:
            y = s[x]
            if y not in reps:
                reps[y] = tuple(map(s.__getitem__, t))
                queue.append(y)
    return reps


def _chain(g: Graph, search: _Search) -> list[dict[int, tuple[int, ...]]]:
    """The stabiliser chain of Aut(g) along the base 0..n-1: per base
    point i, the transversal (see :func:`_transversal`) of the orbit of i
    under the automorphisms fixing 0..i-1.  Built deepest level first,
    so the generators found below level i already fix i."""
    n = g.n
    identity = tuple(range(n))
    near = search.near
    gens: list[tuple[int, ...]] = []
    levels = []
    for i in reversed(range(n)):
        fixed = (1 << i) - 1
        reps = {i: identity}
        rest = search.cand_mask[i] & ~fixed & ~(1 << i)
        if rest:
            # the images of i with its distance class to each near fixed
            # point, then (by the count of :class:`_Search`) to the far ones
            for group, table in search.earlier[i]:
                for u in group:
                    rest &= table[u]
        k = search.counts[i]
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            if x in reps or k is not None and (near[x] & fixed).bit_count() != k:
                continue
            leaf = search.first_leaf((*range(i), x))
            if leaf is not None:
                gens.append(leaf)
                reps = _transversal(i, gens, identity)
        levels.append(reps)
    levels.reverse()
    return levels


def _listing(n: int, levels: Sequence[dict[int, tuple[int, ...]]]) -> np.ndarray:
    """Every element t_0 t_1 ... t_{n-1} of the chain, as the rows of one
    array in lexicographic order.  Level by level, each prefix p is
    extended by the level's transversal, its children p t_x ordered by
    their image of the level's base point i, p(t_x(i)) = p(x): the first
    place where they differ.  A level's output is allocated once and
    filled a block of at most :data:`_BLOCK` rows at a time (at least one
    prefix); a level that fits in one block is kept as composed, since
    copying it costs the many tiny listings a few per cent."""
    table = np.arange(n, dtype=np.min_scalar_type(n))[None, :]
    for i, reps in enumerate(levels):
        if len(reps) > 1:
            m, k = len(table), len(reps)
            images = np.array(list(reps.values()))
            step = max(1, _BLOCK // k)
            out = np.empty((m, k, n), table.dtype) if m > step else None
            for start in range(0, m, step):
                children = table[start : start + step, images]
                order = np.argsort(children[:, :, i], axis=1)
                rows = children[np.arange(len(order))[:, None], order]
                if out is not None:
                    out[start : start + step] = rows
            table = (rows if out is None else out).reshape(m * k, n)
    return table


def _supports(table: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each non-empty support mask of the rows of ``table`` with the row
    where it first occurs, ordered by support size, then by first
    occurrence.  Up to 64 points a row's mask is one integer key, whose
    first row :func:`numpy.unique` gives (it sorts stably when asked for
    indices), :data:`_BLOCK` rows at a time; the blocks' first rows come in
    row order, so when there are several blocks the same call merges them.
    Wider rows are packed into 64-bit words and compared whole, which on
    small rows is an order of magnitude slower."""
    count, n = table.shape
    if n <= 64:
        kind = np.min_scalar_type((1 << n) - 1)
        weights = 1 << np.arange(n, dtype=kind)
        found = []
        for start in range(0, count, _BLOCK):
            keys = (table[start : start + _BLOCK] != np.arange(n)).astype(kind) @ weights
            index = np.sort(np.unique(keys, return_index=True)[1])
            found.append((start, index, keys[index]))
        _, index, keys = found[0]
        if len(found) > 1:
            index = np.concatenate([start + index for start, index, _ in found])
            keys = np.concatenate([keys for *_, keys in found])
            first = np.sort(np.unique(keys, return_index=True)[1])
            index, keys = index[first], keys[first]
        masks = keys.tolist()
    else:
        packed = np.packbits(table != np.arange(n), axis=1, bitorder="little")
        width = -(-packed.shape[1] // 8)
        words = np.zeros((count, 8 * width), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        _, index = np.unique(words.view(np.uint64), axis=0, return_index=True)
        index = np.sort(index)
        masks = [int.from_bytes(packed[j].tobytes(), "little") for j in index]
    rows = [
        (mask, tuple(table[j].tolist()))
        for mask, j in zip(masks, index.tolist())
        if mask
    ]
    return dict(sorted(rows, key=lambda row: row[0].bit_count()))


def _twin_classes(g: Graph) -> list[list[int]]:
    """The classes of two or more vertices with equal N(v), and those with
    equal N[v], each ascending, read in one pass.  Two vertices u < v are
    *twins*, N(u) - {v} = N(v) - {u}, exactly when they share a class: N(u)
    = N(v) if u and v are apart, N[u] = N[v] if they are adjacent.

    The classes are disjoint: a vertex u with a false twin v has no true
    twin w, since w in N(u) = N(v) and v in N[w] = N[u] would make u ~ v.
    No N(u) equals an N[v] either (v in N(u) would put u in N[v] = N(u)),
    so one table keyed by both serves.  It maps each key to its first
    vertex; a vertex that joins a class by N(v) never enters N[v], which
    no later vertex can share."""
    first: dict[int, int] = {}
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(g._bits):
        u = first.setdefault(row, v)
        if u == v:
            u = first.setdefault(row | 1 << v, v)
        if u != v:
            classes.setdefault(u, [u]).append(v)
    return list(classes.values())


def _twin_order(g: Graph) -> int:
    """Π k! over the twin classes (see :func:`_twin_classes`), a lower
    bound on |Aut(g)|: the members of a class may be permuted at will."""
    return math.prod(math.factorial(len(cls)) for cls in _twin_classes(g))


def automorphisms(g: Graph, node_budget: int | None = None) -> AutomorphismSet:
    """Enumerate Aut(g) completely: build the stabiliser chain, charge one
    node per entry of the listing the order it gives calls for, then
    compose the listing.

    A vertex may only map to vertices with the same degree and the same
    sorted multiset of neighbour degrees, and partial maps must already
    preserve the distance classes.  Nodes are charged as the module
    docstring says; when the running total exceeds ``node_budget`` (default
    :data:`DEFAULT_NODE_BUDGET`) :class:`SizeLimitExceeded` is raised, so
    a caller never gets a silently truncated group.  This count is the
    ``--budget`` contract.  A graph whose twin classes alone (see
    :func:`_twin_order`) would make the order charge exceed the budget is
    refused before the chain is built.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if _twin_order(g) * g.n > budget:
        raise SizeLimitExceeded(budget)
    search = _Search(g, g, budget)
    levels = _chain(g, search)
    search.charge(math.prod(map(len, levels)) * g.n)
    table = _listing(g.n, levels)
    table.flags.writeable = False
    transitive = bool(levels) and len(levels[0]) == g.n
    return AutomorphismSet(table, _supports(table), transitive)


def are_isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """Search for an isomorphism g1 -> g2.

    Returns the witness as an image tuple (``result[i]`` is where vertex
    ``i`` of ``g1`` lands in ``g2``), or ``None``.  The first-leaf search
    of :func:`automorphisms`, run from ``g1`` onto ``g2`` without a node
    budget, so the witness is the lexicographically smallest isomorphism
    and equal inputs always give the same one.  Graphs whose orders, edge
    counts or sorted vertex profiles differ are rejected before any
    search.
    """
    if g2.n != g1.n or g1.edge_count != g2.edge_count:
        return None
    search = _Search(g1, g2, math.inf)
    return search.first_leaf(()) if search.possible else None


def transposition(n: int, u: int, v: int) -> Permutation:
    """The permutation of ``0..n-1`` that swaps ``u`` and ``v``."""
    return Permutation(_swap_images(n, u, v))


def _swap_images(n: int, u: int, v: int) -> tuple[int, ...]:
    images = list(range(n))
    images[u], images[v] = v, u
    return tuple(images)


def _twin_pairs(g: Graph) -> list[tuple[int, int]]:
    """The twin pairs u < v (see :func:`_twin_classes`), in order of u,
    then v: swapping u and v is an automorphism.  They are a cheap source
    of automorphisms that needs no listing of a large group, read off the
    classes in one pass, and a graph and its complement have the same
    twins."""
    return sorted([pair for cls in _twin_classes(g) for pair in combinations(cls, 2)])


def twin_transpositions(g: Graph) -> list[Permutation]:
    """The swaps of the twin pairs of :func:`_twin_pairs`, in its order."""
    return [transposition(g.n, u, v) for u, v in _twin_pairs(g)]


def _disjoint_pairs(
    g: Graph, masks: Sequence[int], edge_free: bool
) -> Iterator[tuple[int, int]]:
    """Index pairs ``i < j`` of disjoint support masks, in scan order;
    with ``edge_free``, only pairs that no edge of ``g`` joins."""
    for i, mask_a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            mask_b = masks[j]
            if mask_a & mask_b == 0 and not (
                edge_free and _edge_between(g, mask_a, mask_b)
            ):
                yield i, j


def _first_pair(
    g: Graph, supports: Mapping[int, tuple[int, ...]], edge_free: bool
) -> tuple[Permutation, Permutation] | None:
    """The first pair :func:`_disjoint_pairs` finds among the masks of a
    support table (see :class:`AutomorphismSet`), as permutations in
    presentation order: smaller support first, then smaller least moved
    point, which two disjoint supports never share.  ``None`` if none.

    The minimal masks alone give the same pair: a proper subset of a
    member comes earlier and pairs, as disjoint and edge-free, with the
    other member at an earlier point of the scan."""
    masks = list(supports)
    for i, j in _disjoint_pairs(g, masks, edge_free):
        a, b = sorted((masks[i], masks[j]), key=lambda m: (m.bit_count(), m & -m))
        return Permutation(supports[a]), Permutation(supports[b])
    return None


def find_disjoint_pair(
    g: Graph, *, auts: AutomorphismSet | None = None
) -> tuple[Permutation, Permutation] | None:
    """First pair of non-trivial automorphisms with disjoint supports.

    Complete search over the enumerated group; elements are considered in
    order of support size, so the returned witness has the smallest
    support available.  Only the minimal supports are scanned (see
    :func:`_first_pair`).  ``None`` when no such pair exists.
    """
    if auts is None:
        auts = automorphisms(g)
    return _first_pair(g, auts.minimal, edge_free=False)


def find_edge_free_disjoint_pair(
    g: Graph, *, auts: AutomorphismSet | None = None
) -> tuple[Permutation, Permutation] | None:
    """Like :func:`find_disjoint_pair`, but additionally no edge of ``g``
    may join the two supports."""
    if auts is None:
        auts = automorphisms(g)
    return _first_pair(g, auts.minimal, edge_free=True)

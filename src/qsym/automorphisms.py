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

Every element is t_0 t_1 ... t_{n-1}, one transversal element per
level; composing them level by level, the children of each prefix
ordered by where it sends that level's orbit point, gives the
lexicographic order of image tuples.  The support table keeps, per
support mask, its first element, its lexicographically smallest.  A
group of order at most :data:`_SMALL` is composed whole in plain Python
(:func:`_small_supports`), as numpy's fixed cost per call outweighs its
speed per row there.  A larger one is composed in numpy, and its table
read off that composition with the prefix rows that share a *state*
merged into the first before each level i that would outgrow a block of
rows (:data:`_BLOCK`).  A row's state is which of 0..i-1 it moves and
its images of i..n-1; rows p and p' with one state give p h and p' h the
same mask for every h fixing 0..i-1, and p h comes first when p does, so
the first element of every mask is kept (see :func:`_merge`).  The full
listing is composed only when :attr:`AutomorphismSet.table` is read.
Composing and keying work in blocks of rows, so no temporary grows with
the table.  The pair searches read only the inclusion-minimal masks, and
only a witness pair becomes Permutations.

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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import SizeLimitExceeded
from .graphs import Graph, Permutation, _edge_between, _mask_vertices, is_automorphism

#: Default cap on search nodes for one listing of Aut(g).
DEFAULT_NODE_BUDGET = 10_000_000

#: Rows that :func:`_first_rows` composes, and :func:`_supports` keys, at
#: once; a merge is tried only past one block.
_BLOCK = 4096

#: The largest group order whose support table :func:`_small_supports`
#: composes in plain Python; a larger group goes through numpy.  Timed
#: per group on the chains of the ``0x5EED`` pool and the forests (2-vCPU
#: host): Python is ahead through order 16, even at 20-24, and behind
#: from 32 on (1.75 times as slow at 48).
_SMALL = 16


@dataclass(frozen=True, eq=False)
class AutomorphismSet:
    """The full automorphism group of a graph, held as its stabiliser
    chain (see :func:`_chain`), which gives :attr:`order` and
    :attr:`transitive` (whether vertex 0 goes to every vertex).

    ``supports``, the support table, maps each distinct non-empty support
    mask to the images of its lexicographically smallest element, ordered
    by support size, then by first occurrence in the listing, and is read
    off the chain's composition with rows of one state merged (see
    :func:`_merge`); the pair searches scan only its inclusion-minimal
    masks, :attr:`minimal`.
    :attr:`table` is the listing: every element, in lexicographic order
    of image tuples (so the identity comes first), as the rows of a
    read-only integer array composed on first read.  :attr:`elements`
    builds :class:`Permutation` objects from its rows; nothing else
    needs it.
    """

    chain: Sequence[dict[int, tuple[int, ...]]] = field(repr=False)
    supports: dict[int, tuple[int, ...]] = field(repr=False)

    @cached_property
    def table(self) -> np.ndarray:
        table = _first_rows(len(self.chain), self.chain, merging=False)
        table.flags.writeable = False
        return table

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
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self.table.tolist())

    @property
    def order(self) -> int:
        return math.prod(map(len, self.chain))

    @property
    def transitive(self) -> bool:
        return bool(self.chain) and len(self.chain[0]) == len(self.chain)

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

    def __init__(
        self, g: Graph, h: Graph, budget: float, gprof: list | None = None
    ):
        """``gprof``, when given, is ``_profiles(g)``, already worked out."""
        gprof = _profiles(g) if gprof is None else gprof
        hprof = gprof if h is g else _profiles(h)
        #: False when the sorted profiles differ, so no leaf exists
        self.possible = h is g or sorted(gprof) == sorted(hprof)
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


def _first_rows(
    n: int, levels: Sequence[dict[int, tuple[int, ...]]], merging: bool = True
) -> np.ndarray:
    """The chain's elements, composed level by level: each prefix p is
    extended by the level's transversal, its children p t_x ordered by
    their image of the level's base point i, p(t_x(i)) = p(x), the first
    place where they differ.  A level is composed a block of at most
    :data:`_BLOCK` rows (at least one prefix) at a time; one that fits in
    one block is kept as composed, which spares the tiny listings a copy.

    With ``merging``, a level i that would outgrow one block first merges
    the rows (see :func:`_merge`) once some non-identity transversal
    element moves no point from i on.  Two rows merge only if they agree
    on i..n-1, so only if an element other than the identity fixes
    i..n-1; the gate asks the transversals for one, a cheap sign that may
    pass a merge by but never changes the support table."""
    table = np.arange(n, dtype=np.min_scalar_type(n))[None, :]
    opens = None if merging else n
    for i, reps in enumerate(levels):
        k = len(reps)
        if k == 1:
            continue
        if len(table) * k > _BLOCK:
            if opens is None:  # one past the least highest point moved
                elements = np.array([t for level in levels for t in level.values()])
                tail = np.argmax(elements[:, ::-1] != np.arange(n)[::-1], axis=1)
                opens = n - int(tail.max())
            if i >= opens:
                table = _merge(table, i)
        m = len(table)
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


def _merge(table: np.ndarray, i: int) -> np.ndarray:
    """The first row of ``table`` per *state*: which of 0..i-1 the row
    moves, and its images of i..n-1.  Below a prefix row p lie the p h for
    h fixing 0..i-1, and h permutes i..n-1, so p h moves v < i exactly
    when p does and sends v >= i to p(h(v)).  Rows p and p' with one state
    thus give p h and p' h the same mask, and p h precedes p' h in the
    listing when p precedes p'.  So the rows kept still hold the first
    element of every mask, in the listing's order."""
    state = table.copy()
    state[:, :i] = table[:, :i] != np.arange(i)
    keys = state.view(np.dtype((np.void, state.itemsize * state.shape[1]))).ravel()
    return table[np.sort(np.unique(keys, return_index=True)[1])]


def _small_supports(
    n: int, levels: Sequence[dict[int, tuple[int, ...]]]
) -> dict[int, tuple[int, ...]]:
    """:func:`_supports` ``(_first_rows(n, levels))`` in plain Python, for
    a small group, which then pays none of numpy's fixed cost per call.
    The listing is composed unmerged, in the order of
    :func:`_first_rows`: the children p t of a prefix p agree on the
    fixed points 0..i-1 and differ at the level's base point i, so
    sorting them as tuples orders them by p(t(i)).  Then the first row
    per mask is kept."""
    rows = [tuple(range(n))]
    for reps in levels:
        if len(reps) > 1:
            rows = [
                child
                for p in rows
                for child in sorted([tuple(map(p.__getitem__, t)) for t in reps.values()])
            ]
    first: dict[int, tuple[int, ...]] = {}
    for row in rows:
        mask = 0
        for v, x in enumerate(row):
            if v != x:
                mask |= 1 << v
        first.setdefault(mask, row)
    del first[0]
    return dict(sorted(first.items(), key=lambda item: item[0].bit_count()))


def _supports(table: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each non-empty support mask of the rows of ``table`` with the row
    where it first occurs, ordered by support size, then by first
    occurrence.  Each block of :data:`_BLOCK` rows is keyed, and its first
    row per key taken by :func:`numpy.unique` (it sorts stably when asked
    for indices); the blocks' first rows come in row order, so when there
    are several blocks the same call merges them.  Up to 64 points a key
    is the mask as one integer; wider rows are packed into bytes and
    compared whole, which on the many tiny tables is three times slower."""
    count, n = table.shape
    kind = np.min_scalar_type((1 << n) - 1) if n <= 64 else None
    found = []
    for start in range(0, count, _BLOCK):
        moved = table[start : start + _BLOCK] != np.arange(n)
        if kind is None:
            packed = np.packbits(moved, axis=1, bitorder="little")
            keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        else:
            keys = moved.astype(kind) @ (1 << np.arange(n, dtype=kind))
        index = np.sort(np.unique(keys, return_index=True)[1])
        found.append((start, index, keys[index]))
    _, index, keys = found[0]
    if len(found) > 1:
        index = np.concatenate([start + index for start, index, _ in found])
        keys = np.concatenate([keys for *_, keys in found])
        first = np.sort(np.unique(keys, return_index=True)[1])
        index, keys = index[first], keys[first]
    masks = keys.tolist()
    if kind is None:
        masks = [int.from_bytes(key, "little") for key in masks]
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
    node per entry of the listing the order it gives calls for, then read
    the support table off the merged rows of :func:`_first_rows`, or for
    a group of order at most :data:`_SMALL` off :func:`_small_supports`.
    The listing itself is composed when :attr:`AutomorphismSet.table` is
    read.  When no two vertices share a degree profile, the group is the
    identity alone, and no search is set up.

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
    profiles = _profiles(g)
    if len(set(profiles)) == g.n:
        # no two vertices share a profile, so only the identity maps
        # each vertex to one with its own; it is charged its n entries
        if g.n > budget:
            raise SizeLimitExceeded(budget)
        identity = tuple(range(g.n))
        return AutomorphismSet([{i: identity} for i in range(g.n)], {})
    if _twin_order(g) * g.n > budget:
        raise SizeLimitExceeded(budget)
    search = _Search(g, g, budget, profiles)
    levels = _chain(g, search)
    order = math.prod(map(len, levels))
    search.charge(order * g.n)
    if order <= _SMALL:
        return AutomorphismSet(levels, _small_supports(g.n, levels))
    return AutomorphismSet(levels, _supports(_first_rows(g.n, levels)))


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


def _twin_swaps(g: Graph) -> dict[int, tuple[int, ...]]:
    """The swaps of the twin pairs u < v (see :func:`_twin_classes`) as a
    support table (see :class:`AutomorphismSet`), in order of image tuple:
    the swap of u < v sends u to v, so a larger u comes first, then a
    smaller v.  They are a cheap source of automorphisms that needs no
    listing of a large group, read off the classes in one pass, and a
    graph and its complement have the same twins."""
    later = {  # the classes are disjoint, so each u is in one
        u: cls[i + 1:] for cls in _twin_classes(g) for i, u in enumerate(cls)
    }
    return {
        1 << u | 1 << v: _swap_images(g.n, u, v)
        for u in sorted(later, reverse=True)
        for v in later[u]
    }


def twin_transpositions(g: Graph) -> list[Permutation]:
    """The swaps of :func:`_twin_swaps`, in its order."""
    return [Permutation(images) for images in _twin_swaps(g).values()]


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

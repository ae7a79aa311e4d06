"""Automorphism groups and isomorphisms by one exhaustive backtracking
search, and the disjoint-pair searches that drive the non-commutativity
certificates.

The enumeration is complete (every element, not generators), which keeps
the downstream pair searches trivially correct.  That is fine at desk
scale -- the search is pruned by degree and neighbour-degree profiles and
counts its nodes against a budget, raising :class:`SizeLimitExceeded`
rather than silently hanging on a pathological input.

One search node is one unused, profile-compatible candidate image at a
level of the backtracking, counted before the adjacency test.  That count
is what ``--budget`` caps; it depends only on the graph, never on the
machine.  Candidate sets are bitmasks over the vertices.

The search lists each element as its image tuple and tracks supports as
it goes, so the listing also yields the distinct supports, each with the
first element found to have it: the lexicographically smallest.  Only
those representatives become :class:`Permutation` objects up front; the
full element list is built on demand.

:func:`are_isomorphic` runs the same search from one graph onto another,
without a budget, and stops at the first leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import LengthMismatch, OutOfRange, SizeLimitExceeded
from .graphs import Graph, is_isomorphism

#: Default cap on backtracking nodes for one enumeration.
DEFAULT_NODE_BUDGET = 10_000_000


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

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, w in enumerate(self.images):
            inv[w] = v
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """``self after other``: v -> self(other(v))."""
        if other.n != self.n:
            raise LengthMismatch("composing permutations of different sizes")
        return Permutation(tuple(self.images[w] for w in other.images))

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


def support(p: Permutation) -> frozenset[int]:
    """The set of vertices moved by ``p``."""
    return p.support()


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Re-verify that ``p`` preserves adjacency on ``g``."""
    if p.n != g.n:
        raise LengthMismatch(f"permutation on {p.n} points, graph on {g.n}")
    return is_isomorphism(g, g, p.images)


@dataclass(frozen=True)
class AutomorphismSet:
    """The full automorphism group of a graph, listed in the deterministic
    order the search produced (lexicographic by image tuple, so the
    identity comes first).

    ``images`` holds the elements as image tuples; ``firsts`` maps each
    non-empty support mask to the first element found with that support,
    which is the lexicographically smallest one.  :attr:`elements` builds
    the :class:`Permutation` objects on first use; :attr:`order` and the
    support views never need them all.
    """

    images: tuple[tuple[int, ...], ...]
    firsts: dict[int, tuple[int, ...]] = field(compare=False, repr=False)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation, self.images))

    @property
    def order(self) -> int:
        return len(self.images)

    def nontrivial(self) -> tuple[Permutation, ...]:
        return tuple(p for p in self.elements if not p.is_identity)

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """The distinct non-empty support masks, ordered by (support size,
        discovery order)."""
        return tuple(sorted(self.firsts, key=int.bit_count))

    @cached_property
    def distinct_supports(self) -> tuple[tuple[int, Permutation], ...]:
        """Non-identity elements as ``(support mask, element)``, one per
        distinct support, in :attr:`support_masks` order; each support's
        element is its lexicographically smallest.

        The pair predicates depend only on supports, so searching over
        these representatives returns the same first witness as searching
        over all elements, just without the quadratic blow-up on very
        symmetric graphs.  Computed once per group, on first use.
        """
        return tuple(
            (mask, Permutation(self.firsts[mask])) for mask in self.support_masks
        )


def _profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's degree and sorted multiset of neighbour degrees."""
    bits, degrees = g._bits, g.degree_sequence
    return [
        (degrees[v], tuple(sorted(degrees[u] for u in range(g.n) if bits[v] >> u & 1)))
        for v in range(g.n)
    ]


class _Found(Exception):
    """Carries the first leaf out of a search that needs only one."""


def _backtrack(
    g: Graph, h: Graph, budget: float, emit: Callable[[tuple[int, ...]], object]
) -> dict[int, tuple[int, ...]]:
    """The backtracking search for adjacency-preserving bijections g -> h.

    Vertices of ``g`` are mapped in index order, each to an unused vertex
    of ``h`` with the same profile, and candidates are tried in increasing
    order, so ``emit`` receives the leaves (image tuples) in lexicographic
    order; it may raise to end the search.  Returns, per non-empty
    support mask, the first leaf with that support (which means something
    only when ``h`` is ``g``).  Nodes are charged as described in
    :func:`automorphisms`; past ``budget`` it raises
    :class:`SizeLimitExceeded`.
    """
    n = g.n
    if n == 0:
        emit(())
        return {}
    gprof = _profiles(g)
    hprof = gprof if h is g else _profiles(h)
    if sorted(gprof) != sorted(hprof):
        return {}
    bits, hbits = g._bits, h._bits
    cand_mask = [
        sum(1 << w for w in range(n) if hprof[w] == gprof[v]) for v in range(n)
    ]
    # the earlier vertices adjacent, and not adjacent, to each vertex: the
    # image of v must be adjacent to the images of the first and to none
    # of the images of the second
    earlier_adjacent = [
        tuple(u for u in range(v) if bits[v] >> u & 1) for v in range(n)
    ]
    earlier_apart = [
        tuple(u for u in range(v) if not bits[v] >> u & 1) for v in range(n)
    ]
    firsts: dict[int, tuple[int, ...]] = {}
    images = [0] * n
    used = 0
    nodes = 0
    last = n - 1

    def extend(v: int, moved: int) -> None:
        # moved: support mask of the partial map on vertices 0..v-1
        nonlocal used, nodes
        free = cand_mask[v] & ~used
        nodes += free.bit_count()
        if nodes > budget:
            raise SizeLimitExceeded(budget)
        for u in earlier_adjacent[v]:
            free &= hbits[images[u]]
        for u in earlier_apart[v]:
            free &= ~hbits[images[u]]
        if v == last:
            # leaves inline: at most one vertex is still unused
            if free:
                x = free.bit_length() - 1
                images[v] = x
                leaf = tuple(images)
                emit(leaf)
                mask = moved | ((x != v) << v)
                if mask and mask not in firsts:
                    firsts[mask] = leaf
            return
        while free:
            low = free & -free
            x = low.bit_length() - 1
            images[v] = x
            used |= low
            extend(v + 1, moved | ((x != v) << v))
            used ^= low
            free ^= low

    extend(0, 0)
    return firsts


def automorphisms(g: Graph, node_budget: int | None = None) -> AutomorphismSet:
    """Enumerate Aut(g) completely.

    Backtracks over vertices in index order; a vertex may only map to
    vertices with the same degree and the same sorted multiset of
    neighbour degrees, and partial maps must already preserve adjacency.

    One search node is one unused, profile-compatible candidate at a
    level, counted before the adjacency test: at each level the whole
    candidate set is charged at once, then filtered against the images
    of the earlier vertices.  When the running total exceeds
    ``node_budget`` (default :data:`DEFAULT_NODE_BUDGET`)
    :class:`SizeLimitExceeded` is raised, so a caller never gets a
    silently truncated group.  This count is the ``--budget`` contract.
    """
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    found: list[tuple[int, ...]] = []
    firsts = _backtrack(g, g, budget, found.append)
    return AutomorphismSet(images=tuple(found), firsts=firsts)


def are_isomorphic(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """Search for an isomorphism g1 -> g2.

    Returns the witness as an image tuple (``result[i]`` is where vertex
    ``i`` of ``g1`` lands in ``g2``), or ``None``.  The same search as
    :func:`automorphisms`, run from ``g1`` onto ``g2`` without a node
    budget and stopped at its first leaf, so the witness is the
    lexicographically smallest isomorphism and equal inputs always give
    the same one.  Graphs whose orders, edge counts or sorted vertex
    profiles differ are rejected before any search.
    """
    if g2.n != g1.n or g1.edge_count != g2.edge_count:
        return None

    def stop(leaf: tuple[int, ...]) -> None:
        raise _Found(leaf)

    try:
        _backtrack(g1, g2, math.inf, stop)
    except _Found as hit:
        return hit.args[0]
    return None


def twin_transpositions(g: Graph) -> list[Permutation]:
    """Transpositions swapping *twin* vertices, ordered by the vertex
    pair (u, v) with u < v, not by image tuple (the twin shortcut in
    :mod:`qsym.classify` re-sorts them that way).

    Vertices u, v are twins when N(u) - {v} = N(v) - {u}; swapping them
    and fixing everything else is always an automorphism.  The relation
    does not change under complement, so a graph and its complement have
    the same twin swaps.  This is a cheap O(n^2) source of certified
    automorphisms that avoids a full group enumeration on large, highly
    symmetric inputs.
    """
    bits = g._bits
    out = []
    for u, v in combinations(range(g.n), 2):
        if (bits[u] & ~(1 << v)) == (bits[v] & ~(1 << u)):
            images = list(range(g.n))
            images[u], images[v] = v, u
            out.append(Permutation(tuple(images)))
    return out


def _edge_between(g: Graph, mask_a: int, mask_b: int) -> bool:
    m = mask_a
    while m:
        v = (m & -m).bit_length() - 1
        if g._bits[v] & mask_b:
            return True
        m &= m - 1
    return False


def order_pair(
    a: Permutation, b: Permutation
) -> tuple[Permutation, Permutation]:
    """Stable presentation order for a witness pair: smaller support
    first, then smaller least moved point, then lexicographic images."""

    def key(p: Permutation) -> tuple[int, int, tuple[int, ...]]:
        mask = p.support_mask()
        least = (mask & -mask).bit_length() - 1 if mask else -1
        return (mask.bit_count(), least, p.images)

    return (a, b) if key(a) <= key(b) else (b, a)


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
    g: Graph, perms: Sequence[Permutation], masks: Sequence[int], edge_free: bool
) -> tuple[Permutation, Permutation] | None:
    """The first pair :func:`_disjoint_pairs` finds, ``masks[i]`` being the
    support of ``perms[i]``, in presentation order; ``None`` if none."""
    for i, j in _disjoint_pairs(g, masks, edge_free):
        return order_pair(perms[i], perms[j])
    return None


def find_disjoint_pair(
    g: Graph,
    node_budget: int | None = None,
    auts: AutomorphismSet | None = None,
) -> tuple[Permutation, Permutation] | None:
    """First pair of non-trivial automorphisms with disjoint supports.

    Complete search over the enumerated group; elements are considered in
    order of support size, so the returned witness has the smallest
    support available.  ``None`` when no such pair exists.
    """
    if auts is None:
        auts = automorphisms(g, node_budget=node_budget)
    reps = [p for _, p in auts.distinct_supports]
    return _first_pair(g, reps, auts.support_masks, edge_free=False)


def find_edge_free_disjoint_pair(
    g: Graph,
    node_budget: int | None = None,
    auts: AutomorphismSet | None = None,
) -> tuple[Permutation, Permutation] | None:
    """Like :func:`find_disjoint_pair`, but additionally no edge of ``g``
    may join the two supports."""
    if auts is None:
        auts = automorphisms(g, node_budget=node_budget)
    reps = [p for _, p in auts.distinct_supports]
    return _first_pair(g, reps, auts.support_masks, edge_free=True)

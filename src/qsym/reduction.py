"""Zero patterns for the fundamental magic unitary, and the high-degree
stripping reduction.

A *zero pattern* marks entries u_ij of the n x n fundamental
representation that are forced to vanish by combinatorial data alone.
Two rules produce forced zeros:

* the degree rule -- u_ij = 0 whenever deg(i) != deg(j);
* the distance-degree rule -- u_wv = 0 whenever some vertex p at finite
  distance k >= 1 from w has a degree that appears nowhere in the
  distance-k sphere around v (an empty sphere counts: then no degree
  appears at all).  With D_x(k) the set of degrees at distance exactly
  k from x, that is: D_w(k) is not a subset of D_v(k) for some k >= 1.

The degree rule is sphere 0 of the distance-degree rule: D_x(0) is
{deg(x)}, so D_w(0) is not a subset of D_v(0) exactly when the degrees
differ.  The combined pattern is the union of both, symmetrised: the
antipode swaps u_ij with u_ji, so a forced zero at (i, j) forces (j, i)
too.  Classically the pattern is a sound over-approximation of "no
automorphism maps j to i", which is exactly what the soundness tests
check against enumerated automorphism groups.

So cell (w, v) is forced when D_w(k) is not a subset of D_v(k), or
D_v(k) not a subset of D_w(k), for some k >= 0: it is left possible
exactly when w and v have equal sphere-degree sets D(0), D(1), ...
Being left possible is therefore an equivalence, and the blocks of the
pattern are its classes.  One breadth-first walk per vertex on the
neighbour bitmasks packs that vertex's sets into one int
(:func:`_sphere_sets`), without a distance matrix, and
:func:`sphere_blocks` groups the vertices by it; :func:`zero_pattern`
marks the cells whose two ints differ.

Which rule forced which cell (the *provenance*) matters only for display,
so a pattern works it out on first read, per pair of classes of equal
sets: the degree rule compares sphere 0, the distance-degree rule takes
an AND-NOT of the spheres from 1 on, and the antipode tags what is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .graphs import Graph, induced_subgraph
from .graphs import _component_masks, _mask_vertices, _pack_rows

RULE_DEGREE = "degree"
RULE_DISTANCE_DEGREE = "distance-degree"
RULE_ANTIPODE = "antipode"

CellRules = dict[tuple[int, int], tuple[str, ...]]


@dataclass(frozen=True)
class ZeroPattern:
    """Forced-zero cells of the n x n fundamental representation.

    ``forced[i, j]`` is True when entry (i, j) must vanish; the diagonal
    is never forced (the identity always survives).  A pattern from
    :func:`zero_pattern` forces a cell exactly when its two vertices'
    sphere-degree sets differ, so its unforced cells are the pairs
    within one block of :func:`sphere_blocks`.  ``cells`` returns each
    rule's n x n mask, in rule order; only the display reads them, so
    they are built on first read of ``provenance`` (a forced cell's rule
    names) or ``rule_counts`` (the cells per rule name, what the legend
    shows), once for both.
    """

    n: int
    forced: np.ndarray
    cells: Callable[[], list[tuple[str, np.ndarray]]] = field(repr=False, compare=False)

    @cached_property
    def _masks(self) -> list[tuple[str, np.ndarray]]:
        return self.cells()

    @cached_property
    def provenance(self) -> CellRules:
        """Each rule's cells in turn, each in row-major order, a rule met
        again on a cell appended to it."""
        prov: CellRules = {}
        for rule, fired in self._masks:
            for i, j in zip(*np.nonzero(fired)):
                cell = (int(i), int(j))
                prov[cell] = prov.get(cell, ()) + (rule,)
        return prov

    @cached_property
    def rule_counts(self) -> dict[str, int]:
        """The cells per rule that ``provenance`` lists, read off the
        masks' nonzeros; a rule that forces no cell is left out."""
        counts = {rule: int(np.count_nonzero(fired)) for rule, fired in self._masks}
        return {rule: count for rule, count in counts.items() if count}

    @property
    def forced_count(self) -> int:
        return int(self.forced.sum())


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the vertex set into components of the "possibly
    nonzero" relation of a symmetric zero pattern.  The fundamental
    representation is block diagonal along this partition."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _sphere_sets(g: Graph) -> list[int]:
    """The sphere-degree sets D_x(0), D_x(1), ... of each vertex x,
    packed into one int: C bits per sphere, C the number of distinct
    degrees, bit c of sphere k set when the c-th smallest degree is in
    D_x(k).  Every sphere up to x's eccentricity in its component is
    nonempty, so two vertices get the same int exactly when their sets
    are equal.

    One walk per source on the neighbour bitmasks.  ``unseen`` holds the
    vertices no sphere has reached yet; expanding the frontier (sphere k)
    ANDs ``left``, a copy of ``unseen``, with the complement of each
    expanded vertex's neighbourhood, so sphere k + 1 is ``unseen ^ left``.
    Expansion stops as soon as ``left`` is empty: then every unseen
    vertex has a neighbour among the frontier vertices already expanded,
    so the rest of the frontier cannot add one to sphere k + 1 (on a
    dense graph that is after a few vertices).  Sphere k's degree
    classes are the OR of the class bits of the vertices expanded, plus
    one mask test per class on the part left unexpanded."""
    n = g.n
    degrees = g.degree_sequence
    distinct = sorted(set(degrees))
    classes = len(distinct)
    index = {d: c for c, d in enumerate(distinct)}
    class_bit = [1 << index[d] for d in degrees]
    class_masks = [0] * classes
    for v, d in enumerate(degrees):
        class_masks[index[d]] |= 1 << v
    far = [~row for row in g._bits]
    full = (1 << n) - 1
    rows = []
    for s in range(n):
        unseen, frontier = full ^ 1 << s, 1 << s
        packed = shift = 0
        while frontier:
            left, found = unseen, 0
            while frontier and left:
                low = frontier & -frontier
                v = low.bit_length() - 1
                left &= far[v]
                found |= class_bit[v]
                frontier ^= low
            if frontier:
                for c, mask in enumerate(class_masks):
                    if frontier & mask:
                        found |= 1 << c
            packed |= found << shift
            shift += classes
            frontier, unseen = unseen ^ left, left
        rows.append(packed)
    return rows


def sphere_blocks(g: Graph) -> BlockStructure:
    """The blocks of :func:`zero_pattern` ``(g)`` without building it:
    a cell is left unforced exactly when its two vertices have equal
    sphere-degree sets, so the blocks are the classes of equal sets,
    each ascending and listed by least vertex.  Pure Python on the
    neighbour bitmasks; no n x n array is built."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(_sphere_sets(g)):
        classes.setdefault(row, []).append(v)
    return BlockStructure(tuple(map(tuple, classes.values())))


def zero_pattern(g: Graph) -> ZeroPattern:
    """Union of all rules, closed under the antipode symmetry.

    Cell (w, v) is forced when D_w(k) is not a subset of D_v(k) or the
    reverse for some sphere k >= 0, that is exactly when the two
    vertices' sphere-degree sets differ, so ``forced`` compares the
    labels of the classes of equal packed ints of :func:`_sphere_sets`.

    Provenance per cell lists the rules that fired on the cell itself;
    cells forced only because their mirror was forced carry the
    ``antipode`` tag.  It is worked out on first read from the same
    classes.
    """
    labels: dict[int, int] = {}
    label = np.array(
        [labels.setdefault(row, len(labels)) for row in _sphere_sets(g)], dtype=np.intp
    )
    forced = label[:, None] != label[None, :]
    forced.flags.writeable = False
    classes = len(set(g.degree_sequence))
    return ZeroPattern(g.n, forced, partial(_rule_cells, forced, label, list(labels), classes))


def _rule_cells(
    forced: np.ndarray, label: np.ndarray, sets: list[int], classes: int
) -> list[tuple[str, np.ndarray]]:
    """Each rule's cells as n x n masks: the degree rule's, the
    distance-degree rule's and those forced only by their mirror.

    Both rules depend only on the class of equal sets each vertex is in,
    ``sets[c]`` being the packed int of class c and ``label[v]`` the
    class of v, so each is worked out per ordered pair of classes and
    expanded by the labels.  Sphere 0, the low ``classes`` bits, is
    {deg}: the degree rule compares its one bit.  The distance-degree
    rule forces (a, b) when the spheres from 1 on of class a have a bit
    that b's lack: one AND-NOT per 32-bit word, for all pairs of classes
    at once, so each step holds one word per pair.  ``forced`` is the
    union of both rules and its mirror, so the cells it forces that
    neither rule does are the antipode's."""
    low = (1 << classes) - 1
    degree = np.array([(row & low).bit_length() for row in sets], dtype=np.intp)[label]
    tails = [row >> classes for row in sets]
    width = max(1, -(-max((t.bit_length() for t in tails), default=0) // 32))
    words = np.frombuffer(b"".join(t.to_bytes(4 * width, "little") for t in tails), "<u4")
    exceeds = np.zeros((len(sets), len(sets)), dtype=bool)
    for word in words.reshape(len(sets), width).T:
        exceeds |= (word[:, None] & ~word[None, :]) != 0
    degree_cells = degree[:, None] != degree[None, :]
    distance_cells = exceeds[np.ix_(label, label)]
    return [
        (RULE_DEGREE, degree_cells),
        (RULE_DISTANCE_DEGREE, distance_cells),
        (RULE_ANTIPODE, forced & ~(degree_cells | distance_cells)),
    ]


def blocks(pattern: ZeroPattern) -> BlockStructure:
    """Connected components of the complement of ``forced`` (the cells
    that may still be nonzero), ordered by least vertex.  Every vertex
    lands in exactly one block.  This is the general walk, for any
    pattern, symmetric or not; a graph's own blocks are
    :func:`sphere_blocks`."""
    forced = pattern.forced
    rows = _pack_rows(~(forced & forced.T))
    return BlockStructure(blocks=tuple(map(_mask_vertices, _component_masks(rows))))


def render_pattern(g: Graph, pattern: ZeroPattern) -> str:
    """Human-readable dump: an n x n grid ('0' forced, '.' possible),
    followed by a provenance legend and the block partition."""
    lines = []
    for i in range(pattern.n):
        lines.append(
            " ".join("0" if pattern.forced[i, j] else "." for j in range(pattern.n))
        )
    counts = pattern.rule_counts
    legend = [f"forced cells: {pattern.forced_count} of {pattern.n * pattern.n}"]
    for rule in (RULE_DEGREE, RULE_DISTANCE_DEGREE, RULE_ANTIPODE):
        if rule in counts:
            legend.append(f"  {rule}: {counts[rule]} cells")
    part = blocks(pattern)
    named = ["{" + " ".join(g.label_of(v) for v in blk) + "}" for blk in part.blocks]
    legend.append("blocks: " + " ".join(named))
    return "\n".join(lines + legend)


# ---------------------------------------------------------------------------
# high-degree stripping


def _high_degree(bits: tuple[int, ...], alive: int) -> int:
    """The vertices of ``alive`` whose degree in the subgraph it induces
    is m-1 or m-2, m its order, as a bitmask."""
    floor = alive.bit_count() - 2
    out = 0
    for v in _mask_vertices(alive):
        if (bits[v] & alive).bit_count() >= floor:
            out |= 1 << v
    return out


def strip_high_degree_fixpoint(
    g: Graph,
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Remove every vertex of degree m-1 or m-2, m the current order, in
    passes, until no vertex qualifies.

    The passes walk ``g``'s own neighbour bitmasks under a mask of the
    vertices still alive, so the chain records, pass by pass, the
    removed vertices *as indices into the original graph*, and a
    certificate consumer can replay the reduction without tracking
    renumbering.  The remainder is induced once, at the end; when
    nothing strips it is ``g`` itself.
    """
    alive = (1 << g.n) - 1
    chain: list[tuple[int, ...]] = []
    while removed := _high_degree(g._bits, alive):
        chain.append(_mask_vertices(removed))
        alive ^= removed
    if not chain:
        return g, ()
    return induced_subgraph(g, _mask_vertices(alive)), tuple(chain)

"""Sphere-degree blocks of the fundamental magic unitary, and the
high-degree stripping reduction.

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
:func:`sphere_blocks` groups the vertices by it; :mod:`qsym.pattern`
draws the forced cells for display.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _mask_vertices, induced_subgraph


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
    """The blocks of the zero pattern of ``g`` without building it:
    a cell is left unforced exactly when its two vertices have equal
    sphere-degree sets, so the blocks are the classes of equal sets,
    each ascending and listed by least vertex.  Pure Python on the
    neighbour bitmasks; no n x n array is built."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(_sphere_sets(g)):
        classes.setdefault(row, []).append(v)
    return BlockStructure(tuple(map(tuple, classes.values())))


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

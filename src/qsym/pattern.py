"""The forced-zero pattern for display: the cells of the fundamental magic
unitary that the rules of :mod:`qsym.reduction` force to vanish, the rule
that forced each, and the grid ``qsym pattern`` prints.

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

from .graphs import Graph, _component_masks, _mask_vertices, _pack_rows
from .reduction import BlockStructure, _sphere_sets

RULE_DEGREE = "degree"
RULE_DISTANCE_DEGREE = "distance-degree"
RULE_ANTIPODE = "antipode"

CellRules = dict[tuple[int, int], tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class ZeroPattern:
    """Forced-zero cells of the n x n fundamental representation.

    ``forced[i, j]`` is True when entry (i, j) must vanish; the diagonal
    is never forced (the identity always survives).  A pattern from
    :func:`zero_pattern` forces a cell exactly when its two vertices'
    sphere-degree sets differ, so its unforced cells are the pairs
    within one block of :func:`qsym.reduction.sphere_blocks`.  ``cells``
    returns each rule's n x n mask, in rule order; only the display
    reads them, so they are built on first read of ``provenance`` (a
    forced cell's rule names) or ``rule_counts`` (the cells per rule
    name, what the legend shows), once for both.
    """

    n: int
    forced: np.ndarray
    cells: Callable[[], list[tuple[str, np.ndarray]]] = field(repr=False)

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
        """The cells per rule, in rule order, that ``provenance`` lists,
        read off the masks' nonzeros; a rule that forces no cell is left out."""
        counts = {rule: int(np.count_nonzero(fired)) for rule, fired in self._masks}
        return {rule: count for rule, count in counts.items() if count}

    @property
    def forced_count(self) -> int:
        return int(self.forced.sum())


def zero_pattern(g: Graph) -> ZeroPattern:
    """Union of all rules, closed under the antipode symmetry.

    Cell (w, v) is forced when D_w(k) is not a subset of D_v(k) or the
    reverse for some sphere k >= 0, that is exactly when the two
    vertices' sphere-degree sets differ, so ``forced`` compares the
    labels of the classes of equal packed ints of ``_sphere_sets``.

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
    :func:`qsym.reduction.sphere_blocks`."""
    forced = pattern.forced
    rows = _pack_rows(~(forced & forced.T))
    return BlockStructure(blocks=tuple(map(_mask_vertices, _component_masks(rows))))


def render_pattern(g: Graph, pattern: ZeroPattern) -> str:
    """Human-readable dump: an n x n grid ('0' forced, '.' possible), drawn
    a row at a time, followed by a provenance legend and the block partition."""
    lines = [" ".join(np.where(row, "0", ".").tolist()) for row in pattern.forced]
    lines.append(f"forced cells: {pattern.forced_count} of {pattern.n * pattern.n}")
    lines += [f"  {rule}: {count} cells" for rule, count in pattern.rule_counts.items()]
    named = ["{" + " ".join(g.label_of(v) for v in blk) + "}" for blk in blocks(pattern).blocks]
    lines.append("blocks: " + " ".join(named))
    return "\n".join(lines)

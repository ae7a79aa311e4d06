"""
Products and the forced-zero pattern
====================================

Four classical graph products are built from Kronecker-style matrix
formulas; the corona is assembled blockwise.  The second half shows the
combinatorial reduction: which entries of a symmetry matrix are forced
to vanish, and how the surviving cells split into blocks.
"""

import numpy as np

from qsym import blocks, complete, cycle, path, render_pattern, zero_pattern
from qsym.gallery import gallery
from qsym.products import cartesian, corona, corona_counts, direct, strong

k2, c4 = complete(2), cycle(4)

# ---------------------------------------------------------------------
# The cartesian product of K2 with C4 is the cube-with-a-twist; its
# direct product is something else entirely.  Same vertex set, very
# different edge rules.

print("K2 x C4   cartesian:", cartesian(k2, c4).edge_count, "edges")
print("K2 x C4   direct:   ", direct(k2, c4).edge_count, "edges")
print("K2 x C4   strong:   ", strong(k2, c4).edge_count, "edges")

# ---------------------------------------------------------------------
# Corona: plant a private copy of the second graph on every vertex of
# the first.  The vertex/edge counts have closed forms, handy as an
# oracle.

g = corona(cycle(3), path(2))
vertices, edges = corona_counts(cycle(3), path(2))
print(f"\nC3 (.) P3-path: {g.n} vertices ({vertices} predicted), "
      f"{g.edge_count} edges ({edges} predicted)")

# ---------------------------------------------------------------------
# The forced-zero pattern of a graph with an irregular neighborhood
# structure.  '0' cells can never host a nonzero entry of a symmetry
# matrix; the rest partition into blocks that can be analyzed one at a
# time.

g = gallery("fig7")
pattern = zero_pattern(g)
print("\n" + render_pattern(g, pattern))

sizes = sorted(len(b) for b in blocks(pattern).blocks)
forced = int(np.count_nonzero(pattern.forced))
print(f"{forced} forced cells; block sizes {sizes}")

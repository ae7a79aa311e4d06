"""Named example graphs with stable identifiers.

These are the worked examples the test-suite and CLI lean on, plus the
usual parametric families.  Names are compact strings so they can be
typed on a command line: ``k5``, ``c6``, ``p3`` (a path with 3 edges),
``k3_4``, ``star5``, ``prism3``, ``c4pn2``, and the fixed graphs ``sc``,
``fig7``, ``t0``, ``cherry2``.
"""

from __future__ import annotations

import re

from .errors import BadParams, UnknownName
from .graphs import (
    Graph,
    build,
    check_order,
    complete,
    complete_bipartite,
    cycle,
    path,
    star,
)
from .products import cartesian

# Fixed eight-vertex self-complementary graph: a clique on {1,2,3,4} with
# two pendant-like degree-2 vertices attached per clique pair.
_SC_EDGES_1BASED = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),  # the clique
    (1, 8), (4, 7), (2, 5), (3, 6), (8, 4), (1, 7), (3, 5), (2, 6),
]

# Fixed six-vertex graph whose degree spread collapses the fundamental
# representation to tiny blocks.
_FIG7_EDGES_1BASED = [
    (1, 2), (3, 4), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3),
    (6, 4), (6, 5),
]

# An 18-vertex tree with no cherries that still has edge-free disjoint
# automorphisms: a near-binary tree whose four deepest branches carry one
# pendant path each.
_T0_EDGES = [
    (0, 1),
    (0, 2), (0, 3), (1, 4), (1, 5),
    (2, 6), (2, 7), (3, 8), (3, 9), (4, 10), (4, 11), (5, 12), (5, 13),
    (7, 14), (9, 15), (11, 16), (13, 17),
]


def sc_graph() -> Graph:
    return build(
        8,
        [(u - 1, v - 1) for u, v in _SC_EDGES_1BASED],
        labels=[str(i) for i in range(1, 9)],
    )


def fig7_graph() -> Graph:
    return build(
        6,
        [(u - 1, v - 1) for u, v in _FIG7_EDGES_1BASED],
        labels=[str(i) for i in range(1, 7)],
    )


def t0_graph() -> Graph:
    return build(18, _T0_EDGES)


def cherry2_graph() -> Graph:
    """Two cherries: centres 0 and 1 joined by an edge, two leaves each."""
    return build(
        6,
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
        labels=["v", "w", "u1", "u2", "u3", "u4"],
    )


def c4pn_graph(n: int) -> Graph:
    """The quadrangle-with-tails family: a 4-cycle a-1-b-1' with a path of
    ``n - 1`` further edges grown out of each of 1 and 1'.

    Vertex order: a, b, then the pairs (1, 1'), (2, 2'), ..., (n, n').
    """
    if n < 1:
        raise BadParams("need n >= 1")
    check_order(2 * n + 2)  # before the labels are listed
    labels = ["a", "b"]
    for i in range(1, n + 1):
        labels += [str(i), f"{i}'"]
    edges = [(0, 2), (1, 2), (0, 3), (1, 3)]
    for i in range(1, n):
        edges.append((2 * i, 2 * i + 2))  # i -- i+1
        edges.append((2 * i + 1, 2 * i + 3))  # i' -- (i+1)'
    return build(2 * n + 2, edges, labels=labels)


_FIXED = {
    "sc": (sc_graph, "eight-vertex self-complementary example"),
    "fig7": (fig7_graph, "six-vertex block-reduction example"),
    "t0": (t0_graph, "18-vertex cherry-free tree with edge-free pair"),
    "cherry2": (cherry2_graph, "six-vertex tree with exactly two cherries"),
}

_PATTERNS: list[tuple[re.Pattern[str], object, str]] = [
    (re.compile(r"^k(\d+)$"), complete, "k<n>: complete graph"),
    (re.compile(r"^c(\d+)$"), cycle, "c<n>: cycle (n >= 3)"),
    (re.compile(r"^p(\d+)$"), path, "p<k>: path with k edges"),
    (re.compile(r"^k(\d+)[_,](\d+)$"), complete_bipartite, "k<m>_<n>: complete bipartite"),
    (re.compile(r"^star(\d+)$"), star, "star<n>: hub plus n rays"),
    (
        re.compile(r"^prism(\d+)$"),
        lambda n: cartesian(complete(2), complete(n)),
        "prism<n>: two layers of K_n",
    ),
    (re.compile(r"^c4pn(\d+)$"), c4pn_graph, "c4pn<n>: quadrangle with two n-vertex tails"),
]


def gallery(name: str) -> Graph:
    """Look up a gallery graph by its stable identifier.

    Raises :class:`UnknownName` for names outside the registry and
    :class:`BadParams` for out-of-range family parameters.
    """
    key = name.strip().lower()
    if key in _FIXED:
        return _FIXED[key][0]()
    for pattern, fn, _ in _PATTERNS:
        m = pattern.match(key)
        if m:
            return fn(*(int(x) for x in m.groups()))
    raise UnknownName(
        f"no gallery graph named {name!r}; try one of: {', '.join(gallery_names())}"
    )


def gallery_names() -> list[str]:
    """Documented identifiers (families shown schematically)."""
    return sorted(_FIXED) + [doc.split(":")[0] for _, _, doc in _PATTERNS]


def describe_gallery() -> str:
    lines = ["fixed graphs:"]
    for key in sorted(_FIXED):
        lines.append(f"  {key:8s} {_FIXED[key][1]}")
    lines.append("families:")
    for _, _, doc in _PATTERNS:
        lines.append(f"  {doc}")
    return "\n".join(lines)

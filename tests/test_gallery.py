from __future__ import annotations

import pytest

from qsym import (
    are_isomorphic,
    cartesian,
    complement,
    complete,
    complete_bipartite,
    cycle,
    path,
    star,
)
from qsym.automorphisms import find_disjoint_pair, find_edge_free_disjoint_pair
from qsym.errors import BadParams, UnknownName
from qsym.gallery import (
    c4pn_graph,
    cherry2_graph,
    describe_gallery,
    fig7_graph,
    gallery,
    gallery_names,
    sc_graph,
    t0_graph,
)
from qsym.graphs import find_cherries, is_tree


# ---------------------------------------------------------------------------
# the fixed exhibits


def test_sc_is_self_complementary():
    g = sc_graph()
    assert g.n == 8
    assert g.edge_count == 14
    assert are_isomorphic(g, complement(g)) is not None


def test_sc_labels_are_one_based():
    g = sc_graph()
    assert g.labels == tuple(str(i) for i in range(1, 9))


def test_sc_has_edge_free_pair():
    g = sc_graph()
    pair = find_edge_free_disjoint_pair(g)
    assert pair is not None
    sigma, tau = pair
    assert sigma.support_mask() & tau.support_mask() == 0


def test_fig7_degrees():
    g = fig7_graph()
    assert g.n == 6
    assert g.edge_count == 10
    # vertex 4 sees everything except vertex 3; vertex 5 sees everything
    assert g.degree_sequence == (3, 3, 3, 2, 4, 5)


def test_t0_is_a_cherry_free_tree_with_a_pair():
    g = t0_graph()
    assert g.n == 18
    assert is_tree(g)
    assert find_cherries(g) == ()
    assert find_disjoint_pair(g) is not None


def test_cherry2_has_two_cherries_with_distinct_centres():
    g = cherry2_graph()
    assert g.n == 6
    assert is_tree(g)
    cherries = find_cherries(g)
    assert len(cherries) == 2
    assert len({c.w for c in cherries}) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c4pn_shape(n):
    g = c4pn_graph(n)
    assert g.n == 2 * n + 2
    # a and b are the quadrangle's opposite corners, never adjacent
    a, b = 0, 1
    assert not g.adj[a, b]
    assert g.degree(a) == 2 and g.degree(b) == 2
    # the two tail ends are the only degree-1 vertices
    assert sorted(g.degree_sequence).count(1) == 2
    assert g.labels is not None and g.labels[:2] == ("a", "b")


def test_c4pn_needs_a_tail():
    with pytest.raises(BadParams):
        c4pn_graph(0)


# ---------------------------------------------------------------------------
# name parsing


@pytest.mark.parametrize(
    "name,expected",
    [
        ("k4", complete(4)),
        ("K4", complete(4)),
        ("c5", cycle(5)),
        ("p3", path(3)),
        ("k2_3", complete_bipartite(2, 3)),
        ("k2,3", complete_bipartite(2, 3)),
    ],
)
def test_gallery_families(name, expected):
    assert gallery(name) == expected


def test_gallery_star_and_prism():
    assert gallery("star4") == star(4)
    assert gallery("prism3") == cartesian(complete(2), complete(3))


def test_gallery_fixed_names():
    assert gallery("sc") == sc_graph()
    assert gallery(" FIG7 ") == fig7_graph()
    assert gallery("c4pn3") == c4pn_graph(3)


def test_gallery_unknown_name():
    with pytest.raises(UnknownName):
        gallery("petersen")


def test_gallery_bad_params():
    with pytest.raises(BadParams):
        gallery("c2")  # cycles start at 3


def test_gallery_names_and_descriptions():
    names = gallery_names()
    assert "sc" in names and "t0" in names
    text = describe_gallery()
    for fixed in ("sc", "fig7", "cherry2"):
        assert fixed in text

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from qsym import (
    Graph,
    are_isomorphic,
    build,
    cartesian,
    complement,
    complete,
    complete_bipartite,
    corona,
    cycle,
    direct,
    disjoint_union,
    edgeless,
    gallery,
    lexicographic,
    line_graph,
    path,
    star,
    strong,
)
import qsym.graphs
import qsym.products
from qsym.errors import BadParams
from qsym.products import PRODUCT_KINDS, corona_counts, edge_rule_product

from .conftest import graphs, kernel_corpus

FORMULAS = {
    "cartesian": cartesian,
    "direct": direct,
    "strong": strong,
    "lexicographic": lexicographic,
}


# ---------------------------------------------------------------------------
# formula vs definition


@settings(max_examples=40)
@given(graphs(max_n=5), graphs(max_n=5))
def test_matrix_formula_equals_edge_rule(g1, g2):
    for kind in PRODUCT_KINDS:
        assert FORMULAS[kind](g1, g2) == edge_rule_product(kind, g1, g2), kind


@pytest.mark.parametrize(
    "g1, g2",
    [
        (cycle(9), path(8)),
        (complete_bipartite(3, 4), complement(cycle(10))),
        (star(4), gallery("prism7")),
        (gallery("sc"), complete(9)),
        (edgeless(2), complement(path(40))),
    ],
    ids=lambda g: f"n{g.n}m{g.edge_count}",
)
def test_bitmask_rows_equal_the_edge_rule_across_machine_words(g1, g2):
    # more than 64 vertices, so each row spans several machine words
    assert g1.n * g2.n > 64
    for kind in PRODUCT_KINDS:
        assert FORMULAS[kind](g1, g2) == edge_rule_product(kind, g1, g2), kind


def test_edge_rule_rejects_unknown_kind():
    with pytest.raises(BadParams):
        edge_rule_product("zig", complete(2), complete(2))


# ---------------------------------------------------------------------------
# order cap

_E64, _E65 = edgeless(64), edgeless(65)


@pytest.mark.parametrize(
    "make, operands",
    [
        *((fn, (_E65, _E65)) for fn in FORMULAS.values()),
        (lambda g1, g2: edge_rule_product("strong", g1, g2), (_E65, _E65)),
        (corona, (_E64, _E64)),
        (disjoint_union, ([_E65] * 64,)),
    ],
    ids=[*FORMULAS, "edge_rule", "corona", "disjoint_union"],
)
def test_products_refuse_an_order_above_the_cap_before_allocating(
    monkeypatch, make, operands
):
    # 65 * 65 = 4,225, 64 + 64 * 64 = 4,160 and 64 * 65 = 4,160 vertices;
    # any matrix, Kronecker rows or graph built before the check would fail
    def refuse(*args):
        raise AssertionError("built before the order was checked")

    monkeypatch.setattr(qsym.products, "np", None)
    monkeypatch.setattr(qsym.products, "_kron", refuse)
    monkeypatch.setattr(qsym.products, "_init_graph", refuse)
    with pytest.raises(BadParams, match="above the limit"):
        make(*operands)


# ---------------------------------------------------------------------------
# frozen identities


def test_cartesian_square_of_an_edge_is_a_quadrangle():
    assert are_isomorphic(cartesian(complete(2), complete(2)), cycle(4)) is not None


def test_direct_square_of_an_edge_splits():
    expected = disjoint_union([complete(2), complete(2)])
    assert are_isomorphic(direct(complete(2), complete(2)), expected) is not None


def test_strong_square_of_an_edge_is_complete():
    assert are_isomorphic(strong(complete(2), complete(2)), complete(4)) is not None


def test_lexicographic_outer_second_factor():
    # no first-factor edges, complete second factor: everything across
    # adjacent levels gets joined, giving a 4-cycle on 2x2 vertices
    got = lexicographic(edgeless(2), complete(2))
    assert are_isomorphic(got, cycle(4)) is not None
    # complete first factor over an edgeless second factor: one copy of
    # the first factor per level
    got = lexicographic(complete(2), edgeless(2))
    assert are_isomorphic(got, disjoint_union([complete(2), complete(2)])) is not None


def test_lexicographic_with_edgeless_outer_factor_copies():
    g = path(2)
    got = lexicographic(g, edgeless(3))
    assert are_isomorphic(got, disjoint_union([g] * 3)) is not None


def test_products_commute_up_to_isomorphism():
    g1, g2 = path(2), cycle(3)
    for kind in ("cartesian", "direct", "strong"):
        a = FORMULAS[kind](g1, g2)
        b = FORMULAS[kind](g2, g1)
        assert are_isomorphic(a, b) is not None, kind


# ---------------------------------------------------------------------------
# corona


def test_corona_of_edge_with_point_is_a_path():
    got = corona(complete(2), edgeless(1))
    assert are_isomorphic(got, path(3)) is not None


def test_corona_layout():
    g = corona(complete(2), complete(2))
    # bases 0,1; copies {2,3} and {4,5}
    assert g.adj[0, 1]
    assert g.adj[2, 3] and g.adj[4, 5]
    assert g.adj[0, 2] and g.adj[0, 3]
    assert g.adj[1, 4] and g.adj[1, 5]
    assert not g.adj[0, 4] and not g.adj[2, 4]


@settings(max_examples=30)
@given(graphs(min_n=1, max_n=4), graphs(max_n=4))
def test_corona_counts(g1, g2):
    got = corona(g1, g2)
    nv, ne = corona_counts(g1, g2)
    assert got.n == nv
    assert got.edge_count == ne


def test_corona_of_triangle_with_short_path():
    got = corona(cycle(3), path(2))
    assert got.n == 12
    assert got.edge_count == 18


# ---------------------------------------------------------------------------
# unions


def test_disjoint_union_blocks():
    g = disjoint_union([complete(2), cycle(3)])
    assert g.edges() == [(0, 1), (2, 3), (2, 4), (3, 4)]
    assert disjoint_union([]).n == 0


# ---------------------------------------------------------------------------
# corona and disjoint union against the matrix construction they replaced


def reference_corona(g1: Graph, g2: Graph) -> Graph:
    """Base block first, then copy alpha of g2 joined to base vertex alpha."""
    n, m = g1.n, g2.n
    adj = np.zeros((n + n * m, n + n * m), dtype=bool)
    adj[:n, :n] = g1.adj
    for alpha in range(n):
        lo, hi = n + alpha * m, n + (alpha + 1) * m
        adj[lo:hi, lo:hi] = g2.adj
        adj[alpha, lo:hi] = adj[lo:hi, alpha] = True
    return Graph(adj)


def reference_disjoint_union(gs: list[Graph]) -> Graph:
    """The factors' matrices down the diagonal, in input order."""
    total = sum(g.n for g in gs)
    adj = np.zeros((total, total), dtype=bool)
    offset = 0
    for g in gs:
        adj[offset : offset + g.n, offset : offset + g.n] = g.adj
        offset += g.n
    return Graph(adj)


def test_corona_and_disjoint_union_equal_the_matrix_construction():
    corpus = kernel_corpus()
    for g, h in zip(corpus, corpus[1:]):
        assert corona(g, h) == reference_corona(g, h), (g, h)
        assert disjoint_union([g, h, g]) == reference_disjoint_union([g, h, g]), (g, h)
    for k in range(0, len(corpus), 16):  # unions past 64 vertices
        gs = list(corpus[k : k + 16])
        assert disjoint_union(gs) == reference_disjoint_union(gs), k


# ---------------------------------------------------------------------------
# every constructor here writes neighbour bitmasks


def test_constructors_write_bitmasks_and_unpack_no_matrix(monkeypatch):
    # the factors come from build, so none of them holds a matrix either
    unpacked = []
    real = qsym.graphs._unpack_rows
    monkeypatch.setattr(
        qsym.graphs, "_unpack_rows", lambda bits: unpacked.append(bits) or real(bits)
    )
    g1, g2 = cycle(9), path(8)
    made = [fn(g1, g2) for fn in (*FORMULAS.values(), corona)]
    made += [disjoint_union([g1, g2, g1]), line_graph(g1), line_graph(complete(12))]
    assert unpacked == []
    assert all(g._adj is None for g in made)


# ---------------------------------------------------------------------------
# provenance


def test_products_carry_provenance():
    g1, g2 = path(1), cycle(3)
    for kind in PRODUCT_KINDS:
        got = FORMULAS[kind](g1, g2)
        assert got.provenance is not None
        assert got.provenance.kind == kind
        assert got.provenance.factors == (g1, g2)
    assert corona(g1, g2).provenance.kind == "corona"


def test_structural_ops_drop_provenance():
    from qsym import complement, induced_subgraph

    g = cartesian(path(1), path(1))
    assert complement(g).provenance is None
    assert induced_subgraph(g, [0, 1, 2]).provenance is None

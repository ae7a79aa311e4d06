from __future__ import annotations

import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import qsym
from qsym import (
    Graph,
    UNREACHABLE,
    are_isomorphic,
    build,
    complement,
    complete,
    complete_bipartite,
    components,
    contains_quadrangle,
    cycle,
    distance_matrix,
    edgeless,
    find_cherries,
    induced_subgraph,
    is_connected,
    is_forest,
    is_isomorphism,
    is_tree,
    line_graph,
    path,
    star,
    tree_center,
)
from qsym.automorphisms import find_disjoint_pair, find_edge_free_disjoint_pair
from qsym.census import SplitMix64, enumerate_forests, enumerate_trees, random_graph
from qsym.errors import BadParams, IndexOutOfRange, LoopEdge, NotATree
from qsym.gallery import gallery
from qsym.graphs import branch_forms, forest_has_disjoint_pair

from .conftest import (
    SPARSE_GALLERY,
    graphs,
    hypercube,
    kernel_corpus,
    relabelled,
    small_corpus,
    time_limit,
)

# ---------------------------------------------------------------------------
# independent oracles


def quadrangle_oracle(g) -> bool:
    """Brute force: is there an ordered 4-tuple of distinct vertices
    forming a closed walk a-b-c-d-a of edges?"""
    adj = g.adj.tolist()
    for a, b, c, d in itertools.permutations(range(g.n), 4):
        if adj[a][b] and adj[b][c] and adj[c][d] and adj[d][a]:
            return True
    return False


def line_graph_oracle(g):
    """Edge incidence, spelled out: vertices are g.edges() in order,
    adjacency by shared endpoint, computed with raw set intersection."""
    es = g.edges()
    lg_edges = []
    for a in range(len(es)):
        for b in range(a + 1, len(es)):
            if set(es[a]) & set(es[b]):
                lg_edges.append((a, b))
    return build(len(es), lg_edges)


# ---------------------------------------------------------------------------
# construction and validation


def test_build_rejects_loops():
    with pytest.raises(LoopEdge):
        build(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        build(2, [(-1, 0)])


def test_graph_rejects_a_bad_adjacency_matrix():
    with pytest.raises(BadParams):
        Graph(np.zeros((2, 3), dtype=bool))
    with pytest.raises(LoopEdge):
        Graph(np.eye(3, dtype=bool))
    with pytest.raises(BadParams):
        Graph(np.array([[0, 1], [0, 0]], dtype=bool))
    with pytest.raises(BadParams):
        Graph(np.zeros((3, 3), dtype=bool), labels=["a", "b"])


def test_negative_orders_and_vertices_are_rejected():
    with pytest.raises(IndexOutOfRange):
        path(2).degree(3)
    for make in (lambda: build(-1, []), lambda: edgeless(-1), lambda: complete(-1)):
        with pytest.raises(BadParams):
            make()


def test_build_collapses_duplicates():
    g = build(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_build_takes_numpy_endpoints_past_64_bits():
    # numpy shifts wrap at 64 bits, so 1 << np.int64(70) would set no bit
    g = build(100, [(np.int64(0), np.int64(70))])
    assert g.edge_count == 1
    assert g.degree(0) == g.degree(70) == 1
    assert g.edges() == [(0, 70)]


def test_build_equals_the_matrix_construction():
    # each edge given in both orientations, as duplicates collapse
    for g in [*kernel_corpus(), cycle(65), complement(path(69))]:
        edges = list(zip(*np.nonzero(np.triu(g.adj))))
        adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        built = build(g.n, [*edges, *((v, u) for u, v in edges)])
        want = Graph(adj)
        assert built == want
        assert built.degree_sequence == want.degree_sequence
        assert np.array_equal(built.adj, want.adj)


def reference_edges(g):
    """The edge list from the matrix: the upper triangle, row by row."""
    iu = np.triu_indices(g.n, k=1)
    sel = g.adj[iu]
    return [(int(u), int(v)) for u, v in zip(iu[0][sel], iu[1][sel])]


def test_edges_equal_the_upper_triangle_and_unpack_no_matrix(monkeypatch):
    # the 4,000 0x5EED pool graphs, the gallery and graphs past 64 vertices
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(4000)]
    names = ("fig7", "sc", "t0", "cherry2", "c64", "p64", "c4pn30", "k3_12", "prism7")
    big = (path(69), cycle(65), complement(path(69)), complete(70), edgeless(66))
    cases = [*pool, *(gallery(name) for name in names), *big]
    import qsym.graphs

    unpacked = []
    real = qsym.graphs._unpack_rows
    monkeypatch.setattr(
        qsym.graphs, "_unpack_rows", lambda bits: unpacked.append(bits) or real(bits)
    )
    got = [g.edges() for g in cases]
    assert unpacked == []
    for g, edges in zip(cases, got):
        assert edges == reference_edges(g), g
        assert all(type(u) is int and type(v) is int for u, v in edges)


def test_adjacency_is_read_only():
    g = complete(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False


def test_only_the_product_oracle_and_the_graph6_writer_read_the_matrix():
    # every constructor writes neighbour bitmasks; inside qsym, Graph.adj
    # is read only where a matrix is the point
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "adj":
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(qsym.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert readers == {"products.edge_rule_product", "formats._write_graph6"}


def test_inequality_is_the_negation_of_equality():
    g = cycle(4)
    assert not g != build(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels="abcd")
    assert g != path(3)
    assert g != "C4"


def _neighbour_masks_by_loop(g):
    """Reference: bit u of mask v is set for each neighbour u of v."""
    masks = []
    for v in range(g.n):
        mask = 0
        for u in np.flatnonzero(g.adj[v]):
            mask |= 1 << int(u)
        masks.append(mask)
    return masks


@given(graphs(max_n=9))
@settings(max_examples=80, deadline=None)
def test_neighbour_masks_match_the_loop_reference(g):
    assert list(g._bits) == _neighbour_masks_by_loop(g)


@pytest.mark.parametrize(
    "g",
    [edgeless(0), cycle(8), complement(cycle(8)), cycle(65)],
    ids=["n0", "c8", "c8-complement", "c65"],
)
def test_neighbour_masks_across_byte_boundaries(g):
    assert list(g._bits) == _neighbour_masks_by_loop(g)


def test_edges_sorted_canonically():
    g = build(4, [(3, 1), (2, 0), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


#: Orders far above ``MAX_ORDER``: refused by the check, they allocate
#: nothing; were the check missing, the n x n matrix alone could not fit.
_HUGE = 10**9


def _no_edge_is_read():
    raise AssertionError("build read an edge of a graph over the cap")
    yield


def test_build_refuses_a_huge_order_before_allocating(monkeypatch):
    import qsym.graphs

    monkeypatch.setattr(qsym.graphs, "np", None)  # any allocation would fail
    with pytest.raises(BadParams, match="above the limit"):
        build(_HUGE, _no_edge_is_read())


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete(_HUGE),
        lambda: complete_bipartite(_HUGE, 1),
        lambda: complete_bipartite(1, _HUGE),
        lambda: cycle(_HUGE),
        lambda: path(_HUGE),
        lambda: star(_HUGE),
        lambda: gallery(f"k{_HUGE}"),
        lambda: gallery(f"k3_{_HUGE}"),
        lambda: gallery(f"c4pn{_HUGE}"),
        lambda: gallery(f"prism{_HUGE}"),
    ],
    ids=["complete", "kmn", "knm", "cycle", "path", "star", "gk", "gkmn", "c4pn", "prism"],
)
def test_families_refuse_a_huge_order_before_listing_edges(make):
    with time_limit(10), pytest.raises(BadParams, match="above the limit"):
        make()


def test_graph_refuses_a_matrix_above_the_cap_before_reading_it(monkeypatch):
    import qsym.graphs

    cap = qsym.graphs.MAX_ORDER
    assert Graph(np.zeros((cap, cap), bool)).n == cap

    def no_row_is_packed(matrix):
        raise AssertionError("Graph packed the rows of a matrix over the cap")

    monkeypatch.setattr(qsym.graphs, "_pack_rows", no_row_is_packed)
    big = np.zeros((5000, 5000), bool)
    tracemalloc.start()
    try:
        with pytest.raises(BadParams, match="above the limit"):
            Graph(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 25 MB matrix is refused without a copy
    assert peak < 1 << 20, peak
    # a loop at every vertex: the order is refused before the diagonal is read
    with pytest.raises(BadParams, match="above the limit"):
        Graph(np.eye(cap + 1, dtype=bool))


def test_family_parameter_validation():
    with pytest.raises(BadParams):
        cycle(2)
    with pytest.raises(BadParams):
        complete_bipartite(0, 3)
    with pytest.raises(BadParams):
        path(-1)
    with pytest.raises(BadParams):
        star(0)


# ---------------------------------------------------------------------------
# complement


@settings(max_examples=60)
@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_complement_of_c4_is_two_disjoint_edges():
    cc = complement(cycle(4))
    assert cc.edges() == [(0, 2), (1, 3)]


def test_complete_bipartite_is_complement_of_two_cliques():
    from qsym import disjoint_union

    lhs = complement(disjoint_union([complete(3), complete(3)]))
    assert are_isomorphic(lhs, complete_bipartite(3, 3)) is not None


def reference_complement(g):
    """The complement packed afresh from its matrix: ~adj with a zero
    diagonal, labels kept, provenance dropped."""
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(adj, labels=g.labels)


def assert_same_graph(got, want):
    assert got.n == want.n
    assert got.adj.dtype == want.adj.dtype
    assert got.adj.tobytes() == want.adj.tobytes()
    assert got.adj.flags.writeable == want.adj.flags.writeable
    assert got._bits == want._bits
    assert got._degrees == want._degrees
    assert got.labels == want.labels
    assert got.provenance is None and want.provenance is None


def assert_complement_matches_reference(g):
    # read off the bitmasks, with no matrix until one is asked for; it
    # then hashes as its equal built from the matrix, and complementing
    # twice gives g back
    got, want = complement(g), reference_complement(g)
    assert got._adj is None
    assert_same_graph(got, want)
    assert hash(got) == hash(want)
    assert complement(got) == g
    for h in (g, complement(g)):
        rebuilt = Graph(h.adj)
        assert rebuilt.degree_sequence == tuple(int(d) for d in h.adj.sum(axis=1))


def complement_cases():
    """Labelled gallery graphs, graphs past 64 vertices and a product
    carrying provenance."""
    yield from (gallery(name) for name in ("cherry2", "fig7", "sc", "c70", "p64", "star70"))
    yield from (edgeless(65), complete(66), hypercube(3))


def test_complement_equals_the_reference_on_the_pool():
    rng = SplitMix64(0x5EED)
    for _ in range(4000):
        g = random_graph(rng)
        assert_complement_matches_reference(g)
        assert_complement_matches_reference(complement(g))


@pytest.mark.parametrize("g", list(complement_cases()), ids=repr)
def test_complement_equals_the_reference_on_labelled_and_large_graphs(g):
    assert_complement_matches_reference(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9))
def test_complement_equals_the_reference_on_random_graphs(g):
    assert_complement_matches_reference(g)


def test_complement_equals_the_reference_on_forests_and_the_sparse_gallery():
    forests = (f for n in range(1, 10) for f in enumerate_forests(n))
    for g in (*forests, *map(gallery, SPARSE_GALLERY)):
        assert_complement_matches_reference(g)


# ---------------------------------------------------------------------------
# line graphs


def test_line_graph_matches_edge_incidence_oracle():
    for g in small_corpus():
        assert line_graph(g) == line_graph_oracle(g)


@pytest.mark.parametrize(
    "g", [complete(12), complete_bipartite(8, 9), hypercube(5), complement(cycle(14))]
)
def test_line_graph_matches_the_oracle_across_machine_words(g):
    # more than 64 edges, so each row spans several machine words
    got = line_graph(g)
    assert got.n > 64
    assert got == line_graph_oracle(g)
    assert got.labels == tuple(f"{u}-{v}" for u, v in g.edges())


def test_line_graph_at_the_cap_is_quick():
    # K91 has 4,095 edges: the pair loop over edges took over a second
    g = complete(91)
    with time_limit(0.5):
        got = line_graph(g)
    assert got.n == 4095
    assert got.degree_sequence == (178,) * 4095


def test_line_graph_of_star_is_complete():
    # all rays share the hub, so the edges form a clique
    assert are_isomorphic(line_graph(star(4)), complete(4)) is not None


def test_line_graph_refuses_more_edges_than_the_order_cap():
    # K92 has 4,186 edges, so its line graph would have 4,186 vertices
    with time_limit(10), pytest.raises(BadParams, match="4186 is above the limit"):
        line_graph(complete(92))


def test_line_graph_of_triangle_is_triangle():
    assert are_isomorphic(line_graph(cycle(3)), cycle(3)) is not None


def test_line_graph_of_path_shortens_it():
    assert line_graph(path(3)) == path(2)


# ---------------------------------------------------------------------------
# distances


def test_distance_matrix_on_cycle():
    d = distance_matrix(cycle(5))
    assert d[0, 0] == 0
    assert d[0, 1] == 1 and d[0, 4] == 1
    assert d[0, 2] == 2 and d[0, 3] == 2
    assert np.array_equal(d, d.T)


def test_distance_matrix_unreachable_across_components():
    from qsym import disjoint_union

    g = disjoint_union([complete(2), complete(2)])
    d = distance_matrix(g)
    assert d[0, 1] == 1
    assert d[0, 2] == UNREACHABLE and d[1, 3] == UNREACHABLE


# ---------------------------------------------------------------------------
# quadrangles


def test_quadrangle_against_bruteforce_oracle():
    # the small corpus, the 4,000 0x5EED pool graphs and their complements,
    # and the 308 forests with n <= 9
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(4000)]
    cases = [
        *(g for g in small_corpus() if g.n <= 7),
        *pool,
        *map(complement, pool),
        *(f for n in range(1, 10) for f in enumerate_forests(n)),
    ]
    for g in cases:
        assert contains_quadrangle(g) == quadrangle_oracle(g), g


def test_quadrangle_test_on_a_long_path_builds_no_matrix():
    # one bitmask per vertex: a 1,201-vertex int64 matrix alone is 11.5 MB
    g = path(1200)
    tracemalloc.start()
    try:
        assert not contains_quadrangle(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_quadrangle_known_cases():
    assert contains_quadrangle(cycle(4))
    assert contains_quadrangle(complete(4))
    assert contains_quadrangle(complete_bipartite(2, 2))
    assert not contains_quadrangle(cycle(5))
    assert not contains_quadrangle(complete(3))
    assert not contains_quadrangle(star(5))
    assert not contains_quadrangle(path(6))


# ---------------------------------------------------------------------------
# connectivity, forests, trees


def test_components_ordering():
    from qsym import disjoint_union

    g = disjoint_union([complete(2), edgeless(1), cycle(3)])
    assert components(g) == [frozenset({0, 1}), frozenset({2}), frozenset({3, 4, 5})]


def test_connectivity_conventions():
    assert is_connected(edgeless(0))
    assert is_connected(edgeless(1))
    assert not is_connected(edgeless(2))
    assert is_connected(cycle(4))


def test_forest_and_tree_predicates():
    assert is_tree(path(4))
    assert is_tree(star(5))
    assert not is_tree(cycle(4))
    assert is_forest(edgeless(6))
    assert is_forest(path(3))
    assert not is_forest(cycle(3))
    from qsym import disjoint_union

    assert is_forest(disjoint_union([path(2), path(1)]))
    assert not is_tree(disjoint_union([path(2), path(1)]))
    assert not is_tree(edgeless(0))


@given(graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_forest_matches_the_per_component_edge_scan(g):
    # reference: every component with k vertices has exactly k - 1 edges
    expected = all(
        sum(1 for u, v in g.edges() if u in comp) == len(comp) - 1
        for comp in components(g)
    )
    assert is_forest(g) is expected


def test_tree_center_paths():
    assert tree_center(path(4)) == (2,)  # 5 vertices, odd path, middle one
    assert tree_center(path(3)) == (1, 2)  # even path, middle edge
    assert tree_center(star(5)) == (0,)
    assert tree_center(path(0)) == (0,)
    assert tree_center(path(1)) == (0, 1)


def test_tree_center_rejects_non_trees():
    with pytest.raises(NotATree):
        tree_center(cycle(4))
    with pytest.raises(NotATree):
        tree_center(edgeless(2))


def reference_tree_center(g):
    """Iterated leaf removal: strip every leaf until at most two remain."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    while len(remaining) > 2:
        for v in [v for v in remaining if deg[v] <= 1]:
            remaining.discard(v)
            for u in g.neighbors(v):
                deg[u] -= 1
    return tuple(sorted(remaining))


def _trees_and_forests():
    """Every forest class up to n = 9 and every tree class of n = 10, 11."""
    forests = [f for n in range(1, 10) for f in enumerate_forests(n)]
    return forests + [t for n in (10, 11) for t in enumerate_trees(n)]


def test_tree_center_equals_leaf_stripping():
    rng = random.Random(22)
    for g in _trees_and_forests():
        if is_tree(g):
            h, _ = relabelled(g, rng)
            assert tree_center(g) == reference_tree_center(g)
            assert tree_center(h) == reference_tree_center(h)


def test_branch_forms_decide_pairs_as_the_search_does():
    checked = 0
    for g in _trees_and_forests():
        if max(g.degree_sequence) == 10:
            continue  # K1,10: its 10! elements are over the search's budget
        has = forest_has_disjoint_pair(g)
        assert has is (find_disjoint_pair(g) is not None), g.edges()
        assert has is (find_edge_free_disjoint_pair(g) is not None), g.edges()
        checked += 1
    assert checked == 648
    assert forest_has_disjoint_pair(star(10))
    assert forest_has_disjoint_pair(edgeless(11))
    assert not forest_has_disjoint_pair(star(3))
    assert not forest_has_disjoint_pair(path(3000))


def test_branch_forms_are_equal_exactly_on_isomorphic_trees():
    # one table across relabelled copies of every tree of order 9
    rng = random.Random(7)
    table = {}
    trees = list(enumerate_trees(9))
    forms = [branch_forms(t, table)[0][0][1] for t in trees]
    assert len(set(forms)) == len(trees) == 47
    for t, form in zip(trees, forms):
        assert branch_forms(relabelled(t, rng)[0], table)[0][0][1] == form


def test_branch_forms_of_a_forest_list_its_components_and_swap_classes():
    # a path with a flipped central edge, two isomorphic cherries and K1
    g = build(11, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (7, 8), (7, 9)])
    comps, classes = branch_forms(g)
    assert [centre for centre, _ in comps] == [(1, 2), (4,), (7,), (10,)]
    assert comps[1][1] == comps[2][1] != comps[3][1]
    # the halves of 0-1-2-3, the leaves of each cherry, the two cherries
    assert sorted(classes) == [2, 2, 2, 2]
    assert forest_has_disjoint_pair(g)


# ---------------------------------------------------------------------------
# cherries


def test_two_cherry_graph():
    # two degree-3 centres joined by an edge, each carrying two leaves
    g = build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    cherries = find_cherries(g)
    assert len(cherries) == 2
    assert {(c.v1, c.v2, c.w) for c in cherries} == {(2, 3, 0), (4, 5, 1)}


def test_star3_has_three_cherries_sharing_a_center():
    cherries = find_cherries(star(3))
    assert len(cherries) == 3
    assert {c.w for c in cherries} == {0}


def test_paths_and_cycles_have_no_cherries():
    assert find_cherries(path(5)) == ()
    assert find_cherries(cycle(6)) == ()


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphism_witness_is_checkable():
    g1 = cycle(5)
    g2 = build(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])  # relabelled C5
    images = are_isomorphic(g1, g2)
    assert images is not None
    assert is_isomorphism(g1, g2, images)


def test_non_isomorphic_same_degree_sequence():
    # C6 vs 2*C3: both 2-regular on 6 vertices
    from qsym import disjoint_union

    g1 = cycle(6)
    g2 = disjoint_union([cycle(3), cycle(3)])
    assert are_isomorphic(g1, g2) is None


def test_is_isomorphism_rejects_bad_maps():
    assert not is_isomorphism(cycle(4), cycle(4), (0, 1, 2, 2))
    assert not is_isomorphism(cycle(4), cycle(4), (1, 0, 2, 3))
    assert not is_isomorphism(path(2), path(3), (0, 1, 2))


def test_are_isomorphic_is_deterministic():
    g1, g2 = cycle(6), cycle(6)
    assert are_isomorphic(g1, g2) == are_isomorphic(g1, g2)


@settings(max_examples=40)
@given(graphs(max_n=6))
def test_every_graph_isomorphic_to_itself(g):
    images = are_isomorphic(g, g)
    assert images is not None
    assert is_isomorphism(g, g, images)


# ---------------------------------------------------------------------------
# induced subgraphs


def test_induced_subgraph_renumbers():
    g = cycle(5)
    h = induced_subgraph(g, [0, 1, 3])
    assert h.n == 3
    assert h.edges() == [(0, 1)]  # only the 0-1 edge survives


def test_induced_subgraph_keeps_labels():
    g = build(3, [(0, 1)], labels=["a", "b", "c"])
    h = induced_subgraph(g, [0, 2])
    assert h.labels == ("a", "c")


def _induced_by_matrix(g, keep):
    """The induced subgraph cut from the adjacency matrix."""
    keep = sorted(set(keep))
    labels = [g.label_of(v) for v in keep] if g.labels is not None else None
    return Graph(g.adj[np.ix_(keep, keep)], labels=labels)


def test_induced_subgraph_equals_the_matrix_construction():
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(500)]
    labelled = [gallery(name) for name in ("sc", "fig7", "cherry2", "c4pn2", "c4pn30")]
    pick = random.Random(53)
    for g in [*pool, *labelled, cycle(70)]:
        for h in (g, complement(g)):
            for _ in range(3):
                keep = [v for v in range(h.n) if pick.random() < 0.6]
                got, want = induced_subgraph(h, keep), _induced_by_matrix(h, keep)
                assert got == want and got.labels == want.labels
                assert got.degree_sequence == want.degree_sequence
                assert np.array_equal(got.adj, want.adj)


# ---------------------------------------------------------------------------
# the bitmask kernels against the plain code they replaced


def reference_components(g):
    """Connected components by a stack walk over ``g.neighbors``."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(frozenset(comp))
    return out


def reference_is_isomorphism(g1, g2, images):
    """Every vertex pair of ``g1`` against its image pair in ``g2``."""
    n = g1.n
    if g2.n != n or len(images) != n or sorted(images) != list(range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if bool(g1.adj[i, j]) != bool(g2.adj[images[i], images[j]]):
                return False
    return True


def reference_are_isomorphic(g1, g2):
    """Its own backtracker over the vertices of ``g1`` in index order,
    candidates filtered by degree / neighbour-degree profile and tried in
    increasing order; the first complete map is the witness."""
    n = g1.n
    if g2.n != n or g1.edge_count != g2.edge_count:
        return None

    def profile(g):
        return [
            (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))
            for v in range(g.n)
        ]

    inv1, inv2 = profile(g1), profile(g2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates = [[w for w in range(n) if inv2[w] == inv1[v]] for v in range(n)]
    bits1, bits2 = g1._bits, g2._bits
    images = []
    used = 0

    def extend(v):
        nonlocal used
        if v == n:
            return tuple(images)
        nbrs_image = 0
        for u in range(v):
            if bits1[v] >> u & 1:
                nbrs_image |= 1 << images[u]
        for w in candidates[v]:
            if used >> w & 1 or (bits2[w] & used) != nbrs_image:
                continue
            images.append(w)
            used |= 1 << w
            hit = extend(v + 1)
            if hit is not None:
                return hit
            images.pop()
            used &= ~(1 << w)
        return None

    return extend(0)


def test_are_isomorphic_equals_the_reference():
    rng = random.Random(0x5EED)
    corpus = kernel_corpus()
    for prev, g in zip((None, *corpus), corpus):
        h, _ = relabelled(g, rng)
        for other in (h, complement(g), prev):
            if other is None:
                continue
            want = reference_are_isomorphic(g, other)
            assert are_isomorphic(g, other) == want
            if want is not None:
                assert reference_is_isomorphism(g, other, want)
        assert are_isomorphic(g, h) is not None


def test_is_isomorphism_equals_the_reference():
    rng = random.Random(0x5EED + 1)
    corpus = kernel_corpus()
    for prev, g in zip((None, *corpus), corpus):
        h, images = relabelled(g, rng)
        assert is_isomorphism(g, h, images)
        _, other = relabelled(g, rng)
        for g2, imgs in [
            (h, other),
            (g, images),
            (complement(g), images),
            (prev or g, images),
            (g, images[:-1]),
            (g, images[:-1] + images[:1]),
        ]:
            assert is_isomorphism(g, g2, imgs) == reference_is_isomorphism(
                g, g2, imgs
            )


def test_is_isomorphism_takes_numpy_images_past_64_vertices():
    g = cycle(70)
    turn = np.roll(np.arange(70), 1)
    assert is_isomorphism(g, g, turn)
    assert reference_is_isomorphism(g, g, turn)
    swap = np.arange(70)
    swap[[0, 1]] = [1, 0]
    assert not is_isomorphism(g, g, swap)


def test_components_equal_the_reference():
    for g in kernel_corpus():
        want = reference_components(g)
        assert components(g) == want
        assert is_connected(g) == (len(want) <= 1)
        assert is_forest(g) == (g.edge_count == g.n - len(want))

"""Forced-zero patterns and high-degree stripping.

Soundness oracle: a cell (w, v) may be marked forced only if *no*
automorphism of the graph maps v to w.  We check that against the
brute-force automorphism list for the whole small corpus.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

from qsym import (
    RULE_ANTIPODE,
    RULE_DEGREE,
    RULE_DISTANCE_DEGREE,
    UNREACHABLE,
    ZeroPattern,
    automorphisms,
    blocks,
    build,
    classify_with_complement,
    complement,
    complete,
    cycle,
    disjoint_union,
    distance_matrix,
    edgeless,
    gallery,
    induced_subgraph,
    path,
    render_pattern,
    star,
    strip_high_degree_fixpoint,
    verify_certificate,
    zero_pattern,
)
from qsym.census import SplitMix64, random_graph
from qsym.gallery import c4pn_graph, fig7_graph
from qsym.reduction import sphere_blocks

from .conftest import SPARSE_GALLERY, graphs, kernel_corpus, small_corpus, time_limit


# ---------------------------------------------------------------------------
# each rule as its own pattern: oracles for the rule cells, which
# zero_pattern works out per pair of sphere classes


def _freeze(forced):
    forced = forced.copy()
    forced.flags.writeable = False
    return forced


def degree_pattern(g):
    """Forced zeros from the degree rule alone."""
    deg = np.asarray(g.degree_sequence, dtype=np.int64)
    forced = _freeze(deg[:, None] != deg[None, :])
    return ZeroPattern(g.n, forced, lambda: [(RULE_DEGREE, forced)])


def distance_degree_pattern(g):
    """Forced zeros from the distance-degree rule alone.

    With D_x(k) the set of degrees at distance exactly k from x, cell
    (w, v) is forced exactly when D_w(k) is not a subset of D_v(k) for
    some k >= 1.  A 0/1 tensor S[x, k, d] marks degree d in D_x(k) for
    k >= 1 only; flattened to rows, S @ (1 - S).T counts, per cell, the
    (k, d) pairs in D_w(k) and not in D_v(k)."""
    n = g.n
    if n == 0:
        forced = np.zeros((0, 0), dtype=bool)
    else:
        dist = distance_matrix(g)
        _, deg_class = np.unique(g.degree_sequence, return_inverse=True)
        shape = (n, int(dist.max()), int(deg_class.max()) + 1)
        x, q = np.nonzero(dist >= 1)
        spheres = np.zeros(shape, dtype=np.int64)
        spheres[x, dist[x, q] - 1, deg_class[q]] = 1
        flat = spheres.reshape(n, shape[1] * shape[2])
        forced = (flat @ (1 - flat).T) > 0
    forced = _freeze(forced)
    return ZeroPattern(g.n, forced, lambda: [(RULE_DISTANCE_DEGREE, forced)])


def movable(g):
    """movable[w, v] is True when some automorphism sends v to w."""
    out = np.zeros((g.n, g.n), dtype=bool)
    for p in automorphisms(g).elements:
        for v, w in enumerate(p.images):
            out[w, v] = True
    return out


@pytest.mark.parametrize("g", small_corpus(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_pattern_never_kills_a_real_symmetry(g):
    pattern = zero_pattern(g)
    ok = movable(g)
    # forced cells must be disjoint from cells realised by automorphisms
    assert not np.any(pattern.forced & ok)


@pytest.mark.parametrize("g", small_corpus(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_pattern_diagonal_and_symmetry(g):
    pattern = zero_pattern(g)
    assert not np.any(np.diag(pattern.forced))
    assert np.array_equal(pattern.forced, pattern.forced.T)


def test_degree_pattern_on_regular_graph_is_empty():
    pat = degree_pattern(cycle(5))
    assert pat.forced_count == 0


def test_degree_pattern_star():
    # hub degree differs from every ray
    pat = degree_pattern(star(3))
    assert pat.forced[0, 1] and pat.forced[1, 0]
    assert not pat.forced[1, 2]
    assert blocks(pat).sizes == (1, 3)


def test_degree_blocks_fig7():
    # degrees 2,2,2,3,4,5: three low-degree vertices share a block
    pat = degree_pattern(fig7_graph())
    assert sorted(blocks(pat).sizes) == [1, 1, 1, 3]
    assert blocks(pat).blocks[0] == (0, 1, 2)


def test_distance_degree_refines_fig7():
    # Vertex 2 (label "3") sees a degree-2 neighbour at distance 1, while
    # vertices 0 and 1 see only degrees {2, 4, 5} there; the refined
    # pattern therefore splits {0, 1, 2} into {0, 1} and {2}.
    g = fig7_graph()
    pat = zero_pattern(g)
    assert pat.forced[2, 0] and pat.forced[2, 1]
    assert not pat.forced[1, 0]
    assert blocks(pat).blocks == ((0, 1), (2,), (3,), (4,), (5,))


def test_distance_degree_pattern_path():
    # ends of a 3-vertex path cannot land on the middle
    pat = distance_degree_pattern(path(2))
    assert pat.forced[1, 0] and pat.forced[0, 1]
    assert not pat.forced[2, 0]


def test_zero_pattern_cycle_all_possible():
    pat = zero_pattern(cycle(5))
    assert pat.forced_count == 0
    assert blocks(pat).sizes == (5,)


def test_zero_pattern_c4_with_tails():
    # a, b stay together; each tail pair {i, i'} forms its own block
    g = c4pn_graph(2)
    assert g.n == 6
    pat = zero_pattern(g)
    assert blocks(pat).blocks == ((0, 1), (2, 3), (4, 5))


def test_zero_pattern_c4pn3_blocks():
    g = c4pn_graph(3)
    pat = zero_pattern(g)
    assert blocks(pat).blocks == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_provenance_records_first_rule():
    g = star(3)
    pat = zero_pattern(g)
    assert pat.provenance[(1, 0)] in (
        (RULE_DEGREE,),
        (RULE_DEGREE, RULE_DISTANCE_DEGREE),
    )
    assert all(
        rule in (RULE_DEGREE, RULE_DISTANCE_DEGREE, RULE_ANTIPODE)
        for rules in pat.provenance.values()
        for rule in rules
    )


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_union_contains_each_rule(g):
    full = zero_pattern(g).forced
    assert np.all(full >= degree_pattern(g).forced)
    dd = distance_degree_pattern(g).forced
    assert np.all(full >= dd)
    assert np.all(full >= dd.T)  # the mirrored copies are included too


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_blocks_partition_vertices(g):
    bs = blocks(zero_pattern(g))
    seen = sorted(v for blk in bs.blocks for v in blk)
    assert seen == list(range(g.n))


def test_blocks_are_ordered_by_least_vertex():
    bs = blocks(zero_pattern(c4pn_graph(2)))
    firsts = [blk[0] for blk in bs.blocks]
    assert firsts == sorted(firsts)


def test_render_pattern_mentions_rules_and_blocks():
    g = fig7_graph()
    text = render_pattern(g, zero_pattern(g))
    assert RULE_DEGREE in text
    assert "block" in text
    lines = [ln for ln in text.splitlines() if set(ln) <= {"0", ".", " "} and ln.strip()]
    assert len(lines) == g.n


# ---------------------------------------------------------------------------
# reference kernels: a queue BFS and the direct triple loop over witnesses


def reference_distance_matrix(g):
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if dist[s, u] == UNREACHABLE:
                    dist[s, u] = dist[s, v] + 1
                    queue.append(u)
    dist.flags.writeable = False
    return dist


def reference_distance_degree_pattern(g):
    n = g.n
    deg = g.degree_sequence
    dist = reference_distance_matrix(g)
    sphere_degrees = []
    for v in range(n):
        at_k = {}
        for q in range(n):
            k = int(dist[v, q])
            if k >= 1:
                at_k.setdefault(k, set()).add(deg[q])
        sphere_degrees.append(at_k)
    forced = np.zeros((n, n), dtype=bool)
    for w in range(n):
        for v in range(n):
            for p in range(n):
                k = int(dist[w, p])
                if k == UNREACHABLE or k < 1:
                    continue
                if deg[p] not in sphere_degrees[v].get(k, ()):  # empty sphere forces
                    forced[w, v] = True
                    break
    forced.flags.writeable = False
    return ZeroPattern(n=n, forced=forced, cells=lambda: [(RULE_DISTANCE_DEGREE, forced)])


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.writeable == want.flags.writeable
    assert np.array_equal(got, want)


def assert_kernels_match_reference(g):
    assert_same_array(distance_matrix(g), reference_distance_matrix(g))
    got = distance_degree_pattern(g)
    want = reference_distance_degree_pattern(g)
    assert got.n == want.n
    assert_same_array(got.forced, want.forced)
    assert got.provenance == want.provenance
    assert list(got.provenance) == list(want.provenance)
    # the pattern's distance-degree rule forces the same cells
    tagged = [
        cell
        for cell, rules in zero_pattern(g).provenance.items()
        if RULE_DISTANCE_DEGREE in rules
    ]
    assert sorted(tagged) == list(want.provenance)


EDGE_CASES = (
    edgeless(0),
    edgeless(1),
    edgeless(5),
    disjoint_union([cycle(4), path(3)]),
)


@pytest.mark.parametrize(
    "g",
    [
        *small_corpus(),
        *(complement(g) for g in small_corpus()),
        *EDGE_CASES,
        *(complement(g) for g in EDGE_CASES),
    ],
    ids=lambda g: f"n{g.n}e{g.edge_count}",
)
def test_kernels_match_reference_on_corpus(g):
    assert_kernels_match_reference(g)


@pytest.mark.parametrize("name", SPARSE_GALLERY)
def test_kernels_match_reference_on_sparse_gallery(name):
    g = gallery(name)
    assert_kernels_match_reference(g)
    assert_kernels_match_reference(complement(g))


@given(graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_kernels_match_reference_on_random_graphs(g):
    assert_kernels_match_reference(g)


def reference_zero_pattern(g):
    """The union of the two rules as separate patterns: the degree
    rule's cells, then the distance-degree rule's, then the cells forced
    only by their mirror, tagged ``antipode``."""
    degree, distance = degree_pattern(g).forced, distance_degree_pattern(g).forced
    direct = degree | distance
    forced = direct | direct.T
    forced.flags.writeable = False
    rules = [
        (RULE_DEGREE, degree),
        (RULE_DISTANCE_DEGREE, distance),
        (RULE_ANTIPODE, forced & ~direct),
    ]
    return ZeroPattern(n=g.n, forced=forced, cells=lambda: rules)


def assert_zero_pattern_matches_reference(g):
    got, want = zero_pattern(g), reference_zero_pattern(g)
    assert got.n == want.n
    assert_same_array(got.forced, want.forced)
    assert got.forced_count == want.forced_count
    assert got.provenance == want.provenance
    assert list(got.provenance) == list(want.provenance)
    assert got.rule_counts == want.rule_counts
    assert list(got.rule_counts) == list(want.rule_counts)
    # the sphere-set classes are the blocks of the reference pattern
    assert sphere_blocks(g).blocks == reference_blocks(want)


def test_zero_pattern_equals_the_reference_on_the_kernel_corpus():
    for g in kernel_corpus():
        assert_zero_pattern_matches_reference(g)
        assert_zero_pattern_matches_reference(complement(g))


@pytest.mark.parametrize("name", SPARSE_GALLERY)
def test_zero_pattern_equals_the_reference_on_sparse_gallery(name):
    g = gallery(name)
    assert_zero_pattern_matches_reference(g)
    assert_zero_pattern_matches_reference(complement(g))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_zero_pattern_equals_the_reference_on_edgeless_graphs(n):
    assert_zero_pattern_matches_reference(edgeless(n))


@given(graphs(max_n=10))
@settings(max_examples=200, deadline=None)
def test_zero_pattern_equals_the_reference_on_random_graphs(g):
    assert_zero_pattern_matches_reference(g)


@pytest.mark.parametrize("name", ["fig7", "c4pn20", "p48"])
def test_verdicts_work_out_no_provenance(monkeypatch, name):
    # the rule cells only explain a pattern for display; deciding and
    # re-checking a verdict reads the sphere-set classes alone
    module = importlib.import_module("qsym.pattern")
    calls = []
    real = module._rule_cells
    monkeypatch.setattr(
        module, "_rule_cells", lambda *args: calls.append(args) or real(*args)
    )
    g = gallery(name)
    report = classify_with_complement(g)
    for verdict, h in (
        (report.bic, g), (report.ban, g), (report.bic_complement, complement(g))
    ):
        assert verify_certificate(h, verdict)
    assert calls == []
    # the display builds the masks once per pattern, for both views
    for h in (g, complement(g)):
        pattern = zero_pattern(h)
        pattern.rule_counts
        pattern.provenance
        pattern.rule_counts
    assert len(calls) == 2


def test_the_legend_counts_cells_without_the_provenance():
    # the legend's cells per rule are the masks' nonzeros, so rendering
    # builds no per-cell dict; they equal the provenance's counts
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(200)]
    cases += [gallery(name) for name in ("fig7", "c4pn20", "p48", "star20")]
    cases += [complement(g) for g in cases[-4:]] + [edgeless(0), edgeless(3)]
    for g in cases:
        pattern = zero_pattern(g)
        render_pattern(g, pattern)
        assert "provenance" not in vars(pattern), g
        counts = {}
        for rules in pattern.provenance.values():
            for rule in rules:
                counts[rule] = counts.get(rule, 0) + 1
        assert pattern.rule_counts == counts, g


def test_pattern_takes_no_product_and_provenance_one_per_rule(monkeypatch):
    # the rules are read off the sphere classes: neither the display nor
    # the walk it reads takes a matrix product or names a float type
    for name in ("qsym.pattern", "qsym.reduction"):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), name
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"dot", "matmul", "einsum", "float32", "float64"}, name
    module = importlib.import_module("qsym.pattern")
    # the masks come one per rule, in rule order, built once
    masks = []
    real = module._rule_cells
    monkeypatch.setattr(
        module, "_rule_cells", lambda *args: masks.append(real(*args)) or masks[-1]
    )
    g = fig7_graph()
    pattern = zero_pattern(g)
    assert masks == []
    pattern.provenance
    pattern.provenance
    assert len(masks) == 1
    assert [rule for rule, _ in masks[0]] == [
        RULE_DEGREE, RULE_DISTANCE_DEGREE, RULE_ANTIPODE,
    ]
    assert all(mask.shape == (g.n, g.n) for _, mask in masks[0])


@pytest.mark.parametrize(
    "g", [edgeless(0), edgeless(1), fig7_graph()], ids=["n0", "n1", "fig7"]
)
def test_patterns_compare_by_identity_and_hash(g):
    # the forced arrays have no single truth value, so a pattern is
    # equal only to itself
    p, q = zero_pattern(g), zero_pattern(g)
    assert p == p
    assert p != q
    assert hash(p) == hash(p)
    assert len({p, q}) == 2


def test_reduction_holds_only_what_the_checker_runs():
    # the checker loads reduction, so the display and numpy stay out of it
    tree = ast.parse(inspect.getsource(importlib.import_module("qsym.reduction")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "qsym")
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert "numpy" not in {name.split(".")[0] for name in imported}
    assert "qsym.pattern" not in imported
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not any(isinstance(node, (ast.Assign, ast.AnnAssign)) for node in tree.body)
    assert defined == {
        "BlockStructure",
        "_sphere_sets",
        "sphere_blocks",
        "_high_degree",
        "strip_high_degree_fixpoint",
    }


# ---------------------------------------------------------------------------
# the sphere walk against the sets read off the distance matrix


def reference_sphere_sets(g):
    """The sets D_x(0), D_x(1), ... of each vertex x read off the full
    distance matrix, packed as the walk packs them: C bits per sphere,
    C the number of distinct degrees, bit k * C + c set when a vertex of
    the c-th smallest degree is at distance k from x."""
    dist = distance_matrix(g)
    degrees = g.degree_sequence
    deg_class = {d: c for c, d in enumerate(sorted(set(degrees)))}
    rows = []
    for x in range(g.n):
        packed = 0
        for q in range(g.n):
            k = int(dist[x, q])
            if k != UNREACHABLE:
                packed |= 1 << (k * len(deg_class) + deg_class[degrees[q]])
        rows.append(packed)
    return rows


def assert_sphere_sets_match_reference(g):
    module = importlib.import_module("qsym.reduction")
    assert module._sphere_sets(g) == reference_sphere_sets(g)


PAST_64 = (
    path(69),
    cycle(65),
    complement(path(69)),
    complement(cycle(65)),
    disjoint_union([cycle(40), path(30)]),
    complement(disjoint_union([cycle(40), path(30)])),
    c4pn_graph(40),
    complement(c4pn_graph(40)),
    star(70),
    complete(66),
)


def test_spheres_match_the_distance_matrix_tensor_on_the_kernel_corpus():
    for g in kernel_corpus():
        assert_sphere_sets_match_reference(g)
        assert_sphere_sets_match_reference(complement(g))


@pytest.mark.parametrize("name", SPARSE_GALLERY)
def test_spheres_match_the_distance_matrix_tensor_on_sparse_gallery(name):
    g = gallery(name)
    assert_sphere_sets_match_reference(g)
    assert_sphere_sets_match_reference(complement(g))


@pytest.mark.parametrize(
    "g", [*EDGE_CASES, *map(complement, EDGE_CASES), *PAST_64],
    ids=lambda g: f"n{g.n}e{g.edge_count}",
)
def test_spheres_match_the_distance_matrix_tensor_on_edge_cases(g):
    assert_sphere_sets_match_reference(g)


@pytest.mark.parametrize(
    "g", [*EDGE_CASES, *map(complement, EDGE_CASES), *PAST_64],
    ids=lambda g: f"n{g.n}e{g.edge_count}",
)
def test_zero_pattern_equals_the_reference_on_edge_cases(g):
    assert_zero_pattern_matches_reference(g)


@given(graphs(max_n=10))
@settings(max_examples=200, deadline=None)
def test_spheres_match_the_distance_matrix_tensor_on_random_graphs(g):
    assert_sphere_sets_match_reference(g)
    assert_sphere_sets_match_reference(complement(g))


def test_zero_pattern_of_a_long_path_complement_is_quick():
    # diameter 3 on 3,001 vertices: each walk stops after a few frontier
    # vertices, where a full distance matrix took seconds
    g = complement(path(3000))
    with time_limit(1.5):
        pattern = zero_pattern(g)
    # the ends differ from the rest by degree, and their path neighbours
    # by the end they have at distance 2; the reflection pairs each up
    assert blocks(pattern).blocks == ((0, 3000), (1, 2999), tuple(range(2, 2999)))
    assert pattern.forced_count == 8 * (g.n - 3)


def test_reduction_reads_no_distance_matrix():
    module = importlib.import_module("qsym.reduction")
    assert not hasattr(module, "distance_matrix")


def reference_blocks(pattern):
    """Blocks by a stack walk over all n candidates per vertex: u joins
    v's block when either (v, u) or (u, v) is not forced."""
    n = pattern.n
    possible = ~pattern.forced
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(n):
                if not seen[u] and (possible[v, u] or possible[u, v]):
                    seen[u] = True
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def test_blocks_equal_the_reference():
    asymmetric = 0
    for g in kernel_corpus():
        for pattern in (zero_pattern(g), distance_degree_pattern(g)):
            assert blocks(pattern).blocks == reference_blocks(pattern)
        asymmetric += not np.array_equal(pattern.forced, pattern.forced.T)
    # the distance-degree pattern alone need not be symmetric, so the
    # walk must join u and v on either cell
    assert asymmetric > 0


# ---------------------------------------------------------------------------
# stripping


def test_strip_removes_dominating_and_near_dominating():
    g = fig7_graph()
    stripped, chain = strip_high_degree_fixpoint(g)
    assert chain == ((4, 5),)
    assert stripped.n == 4
    assert stripped.edges() == [(0, 1), (2, 3)]


def test_strip_complete_graph_to_nothing():
    g, chain = strip_high_degree_fixpoint(complete(4))
    assert chain == ((0, 1, 2, 3),)
    assert g.n == 0


def test_strip_c4_everything_goes():
    # every vertex of the 4-cycle has degree n-2
    g, chain = strip_high_degree_fixpoint(cycle(4))
    assert chain == ((0, 1, 2, 3),)
    assert g.n == 0


def test_strip_leaves_low_degrees_alone():
    g = path(4)  # degrees 1,2,2,2,1 on 5 vertices: nothing reaches n-2
    stripped, chain = strip_high_degree_fixpoint(g)
    assert chain == ()
    assert stripped is g
    # the hub of a star goes, and its leaves, of degree 0 < 4 - 2, stay
    stripped, chain = strip_high_degree_fixpoint(star(4))
    assert chain == ((0,),)
    assert stripped == edgeless(4)


def test_strip_fixpoint_reports_original_ids():
    # cone over fig7: the apex dominates, then the old high-degree pair goes
    base = fig7_graph()
    edges = base.edges() + [(i, 6) for i in range(6)]
    g = build(7, edges)
    terminal, chain = strip_high_degree_fixpoint(g)
    assert chain[0] == (6,) or 6 in chain[0]
    flat = [v for step in chain for v in step]
    assert len(flat) == len(set(flat))
    assert terminal.n == 7 - len(flat)
    # every removed id refers to the original numbering
    assert all(0 <= v < 7 for v in flat)


def _strip_reference(g):
    """The renumbering fixpoint the bitmask walk replaced: strip every
    vertex of degree n-1 or n-2, renumber the remainder, repeat, and map
    each pass's removed vertices back to ``g``'s indices."""
    chain = []
    current = g
    original_ids = list(range(g.n))
    while True:
        n = current.n
        removed = [v for v in range(n) if current.degree(v) in (n - 1, n - 2)]
        if not removed:
            return current, tuple(chain)
        chain.append(tuple(original_ids[v] for v in removed))
        keep = [v for v in range(n) if v not in removed]
        original_ids = [original_ids[v] for v in keep]
        current = induced_subgraph(current, keep)


def _assert_strips_like_the_reference(g):
    terminal, chain = strip_high_degree_fixpoint(g)
    want_terminal, want_chain = _strip_reference(g)
    assert chain == want_chain
    assert terminal == want_terminal
    assert terminal.labels == want_terminal.labels
    assert (terminal is g) == (want_terminal is g) == (not chain)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=9))
def test_strip_walk_matches_the_renumbering_reference(g):
    _assert_strips_like_the_reference(g)
    _assert_strips_like_the_reference(complement(g))


@pytest.mark.parametrize(
    "g",
    [complement(path(k)) for k in (0, 1, 2, 3, 4, 5, 8, 13, 31, 47, 63)]
    + [gallery(name) for name in ("sc", "c4pn2", "fig7", "cherry2")]
    + [complement(gallery(name)) for name in ("sc", "c4pn2", "fig7", "cherry2")],
)
def test_strip_walk_matches_the_reference_on_path_complements_and_labels(g):
    _assert_strips_like_the_reference(g)


def test_strip_unpacks_no_matrix(monkeypatch):
    # the remainder is induced from the neighbour bitmasks, so stripping
    # a complement, whose matrix is never built, unpacks none
    graphs_module = importlib.import_module("qsym.graphs")
    unpacked = []
    real = graphs_module._unpack_rows
    monkeypatch.setattr(
        graphs_module, "_unpack_rows", lambda bits: unpacked.append(bits) or real(bits)
    )
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(300)]
    stripped = 0
    for g in [*pool, gallery("c4pn20"), gallery("c4pn30")]:
        for h in (g, complement(g)):
            stripped += bool(strip_high_degree_fixpoint(h)[1])
    assert stripped > 100
    assert unpacked == []


def test_strip_fixpoint_terminates_on_fixed_graph():
    g = path(4)
    terminal, chain = strip_high_degree_fixpoint(g)
    assert chain == ()
    assert terminal is g


def test_strip_edgeless_all_dominating_complement():
    # in the 1-vertex graph the sole vertex has degree 0 == n-1
    g, chain = strip_high_degree_fixpoint(edgeless(1))
    assert chain == ((0,),)
    assert g.n == 0

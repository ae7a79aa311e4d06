from __future__ import annotations

import importlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym import (
    Permutation,
    are_isomorphic,
    automorphisms,
    build,
    cartesian,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edgeless,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
    gallery,
    is_automorphism,
    is_isomorphism,
    path,
    star,
)
from qsym.automorphisms import twin_transpositions
from qsym.census import SplitMix64, enumerate_forests, random_graph
from qsym.errors import LengthMismatch, OutOfRange, SizeLimitExceeded

from .conftest import (
    SPARSE_GALLERY,
    graphs,
    hypercube,
    kernel_corpus,
    relabelled,
    small_corpus,
    time_limit,
)

# the package re-exports automorphisms(), which hides the module
_module = importlib.import_module("qsym.automorphisms")

# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_aut(g) -> set[tuple[int, ...]]:
    """All of Aut(g) by trying every permutation.  Only sane for n <= 7."""
    out = set()
    for images in itertools.permutations(range(g.n)):
        if all(
            bool(g.adj[i, j]) == bool(g.adj[images[i], images[j]])
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            out.add(images)
    return out


def reference_listing(g):
    """Aut(g) by exhaustive backtracking, with one ``Permutation`` per
    element in lexicographic order, and the distinct supports taken from
    the full list as ``(mask, element)``: every non-identity element
    sorted stably by support size, keeping the first element per support
    mask.  No node budget."""
    n = g.n
    if n == 0:
        return (Permutation(()),), ()
    bits = g._bits
    degrees = g.degree_sequence
    profile = [
        (degrees[v], tuple(sorted(degrees[u] for u in range(n) if bits[v] >> u & 1)))
        for v in range(n)
    ]
    cand_mask = [
        sum(1 << w for w in range(n) if profile[w] == profile[v]) for v in range(n)
    ]
    earlier_adjacent = [
        tuple(u for u in range(v) if bits[v] >> u & 1) for v in range(n)
    ]
    earlier_apart = [
        tuple(u for u in range(v) if not bits[v] >> u & 1) for v in range(n)
    ]
    found = []
    images = [0] * n
    used = 0

    def extend(v):
        nonlocal used
        if v == n:
            found.append(Permutation(tuple(images)))
            return
        free = cand_mask[v] & ~used
        for u in earlier_adjacent[v]:
            free &= bits[images[u]]
        for u in earlier_apart[v]:
            free &= ~bits[images[u]]
        while free:
            low = free & -free
            images[v] = low.bit_length() - 1
            used |= low
            extend(v + 1)
            used ^= low
            free ^= low

    extend(0)
    ranked = sorted(
        ((p.support_mask(), p) for p in found if not p.is_identity),
        key=lambda item: item[0].bit_count(),
    )
    seen = set()
    supports = []
    for mask, p in ranked:
        if mask not in seen:
            seen.add(mask)
            supports.append((mask, p))
    return tuple(found), tuple(supports)


def _k33c4():
    return cartesian(complete_bipartite(3, 3), cycle(4))


def _rebuilt(g):
    """``g`` from its adjacency alone, without provenance."""
    return build(g.n, [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                       if g.adj[u, v]])


class AdjacencySearch:
    """The first-leaf search before distance classes: each vertex goes to
    an unused vertex of the same profile, adjacent to the images of its
    earlier neighbours and to none of the images of its earlier
    non-neighbours."""

    def __init__(self, g, h):
        gprof, hprof = _module._profiles(g), _module._profiles(h)
        self.possible = sorted(gprof) == sorted(hprof)
        self.cand_mask = [
            sum(1 << w for w, q in enumerate(hprof) if q == p) for p in gprof
        ]
        self.hbits = h._bits
        self.earlier_adjacent = [
            [u for u in range(v) if g._bits[v] >> u & 1] for v in range(g.n)
        ]
        self.earlier_apart = [
            [u for u in range(v) if not g._bits[v] >> u & 1] for v in range(g.n)
        ]

    def first_leaf(self, prefix):
        n, hbits = len(self.cand_mask), self.hbits
        images = [*prefix, *[0] * (n - len(prefix))]
        used = sum(1 << x for x in prefix)

        def extend(v):
            nonlocal used
            if v == n:
                return True
            free = self.cand_mask[v] & ~used
            for u in self.earlier_adjacent[v]:
                free &= hbits[images[u]]
            for u in self.earlier_apart[v]:
                free &= ~hbits[images[u]]
            while free:
                low = free & -free
                images[v] = low.bit_length() - 1
                used |= low
                if extend(v + 1):
                    return True
                used ^= low
                free ^= low
            return False

        return tuple(images) if extend(len(prefix)) else None


def four_distance_classes(g):
    """Per vertex w, the other vertices split four ways as bitmasks: the
    neighbours u with N[u] | N[w] = V, the other neighbours, the vertices
    two steps away, and the rest."""
    bits = g._bits
    full = (1 << g.n) - 1
    out = []
    for w, nbrs in enumerate(bits):
        outside = full & ~nbrs & ~(1 << w)
        spanning = reach = 0
        for u in range(g.n):
            if nbrs >> u & 1:
                reach |= bits[u]
                if not outside & ~bits[u]:
                    spanning |= 1 << u
        out.append((spanning, nbrs & ~spanning, reach & outside, outside & ~reach))
    return out


class FourClassSearch:
    """The first-leaf search that files every earlier vertex under one of
    the four distance classes and tests each candidate against all of
    them.  ``counts`` holds no count, so the chain's level filter runs
    the four class tests alone on it."""

    def __init__(self, g, h, budget):
        gprof, hprof = _module._profiles(g), _module._profiles(h)
        self.possible = sorted(gprof) == sorted(hprof)
        self.budget = budget
        self.nodes = 0
        self.cand_mask = [
            sum(1 << w for w, q in enumerate(hprof) if q == p) for p in gprof
        ]
        self.counts = [None] * g.n
        self.near = None
        tables = list(zip(*four_distance_classes(h)))
        self.earlier = [
            [
                ([u for u in range(v) if mask >> u & 1], table)
                for mask, table in zip(masks, tables)
                if mask & ((1 << v) - 1)
            ]
            for v, masks in enumerate(four_distance_classes(g))
        ]

    def first_leaf(self, prefix):
        n = len(self.cand_mask)
        images = [*prefix, *[0] * (n - len(prefix))]
        used = sum(1 << x for x in prefix)
        start = v = len(prefix)
        rest = [0] * n
        while v < n:
            free = self.cand_mask[v] & ~used
            self.nodes += free.bit_count()
            if self.nodes > self.budget:
                raise SizeLimitExceeded(self.budget)
            for group, table in self.earlier[v]:
                for u in group:
                    free &= table[images[u]]
            while not free:
                v -= 1
                if v < start:
                    return None
                used ^= 1 << images[v]
                free = rest[v]
            low = free & -free
            rest[v] = free ^ low
            images[v] = low.bit_length() - 1
            used |= low
            v += 1
        return tuple(images)


def reference_isomorphism(g1, g2):
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    search = AdjacencySearch(g1, g2)
    return search.first_leaf(()) if search.possible else None


def reference_first_pair(g, supports, edge_free):
    """The first pair of disjoint masks over the whole support table, as
    the images of the two elements in presentation order."""
    masks = list(supports)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            joined = any(g._bits[u] & b for u in range(g.n) if a >> u & 1)
            if a & b or (edge_free and joined):
                continue
            first, second = sorted((a, b), key=lambda m: (m.bit_count(), m & -m))
            return supports[first], supports[second]
    return None


def _symmetric_set():
    k2 = complete(2)
    q3 = cartesian(cartesian(k2, k2), k2)
    q4 = cartesian(q3, k2)
    return [
        q3,
        q4,
        cartesian(q4, k2),
        cartesian(complete(4), complete(4)),
        _k33c4(),
        build(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)],
        ),
        gallery("prism7"),
    ]


def _listing_corpus():
    """The kernel corpus and the complements of the first 1,000 0x5EED
    draws; the symmetric set, the sparse gallery (without star20 and
    k3_12, whose groups are too large to list one by one) and graphs with
    n > 64, whose support masks span more than one 64-bit word, each with
    its complement; each distinct adjacency matrix once (the random pool
    repeats K8 and its complement)."""
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(1000)]
    sparse = [
        gallery(name)
        for name in (
            "c4", "c16", "c32", "c48", "c64", "p48", "p64", "t0",
            "c4pn20", "c4pn30", "sc", "fig7",
        )
    ]
    wide = [
        cycle(65),
        path(70),
        disjoint_union([cycle(40), cycle(30)]),
        cartesian(cycle(11), cycle(6)),
        disjoint_union([star(3), path(63)]),
    ]
    extra = [*_symmetric_set(), *sparse, *wide]
    seen = set()
    for g in [
        *kernel_corpus(),
        *map(complement, pool),
        *extra,
        *map(complement, extra),
    ]:
        key = (g.n, g.adj.tobytes())
        if key not in seen:
            seen.add(key)
            yield g


def test_listing_equals_the_reference():
    checked = wide = 0
    for g in _listing_corpus():
        auts = automorphisms(g)
        elements, supports = reference_listing(g)
        assert auts.order == len(elements), g
        assert list(map(tuple, auts.table.tolist())) == [p.images for p in elements], g
        assert list(auts.supports.items()) == [
            (mask, p.images) for mask, p in supports
        ], g
        checked += 1
        wide += g.n > 64
    assert (checked, wide) == (1783, 12)


def test_each_support_keeps_its_lexicographically_smallest_element():
    for g in small_corpus() + [edgeless(6), star(5), _symmetric_set()[1]]:
        auts = automorphisms(g)
        for mask, images in auts.supports.items():
            assert images == min(
                q.images for q in auts.elements if q.support_mask() == mask
            )


def test_nontrivial_lists_every_element_but_the_identity():
    checked = 0
    forests = [f for n in range(1, 8) for f in enumerate_forests(n)]
    for g in [*small_corpus(), *forests]:
        auts = automorphisms(g)
        assert auts.nontrivial() == auts.elements[1:], g
        assert {p.support_mask() for p in auts.nontrivial()} == set(auts.supports)
        checked += 1
    assert checked > 100


def _count_permutations(monkeypatch) -> list[None]:
    """A list that grows by one for every ``Permutation`` built from now on."""
    built = []
    check = Permutation.__post_init__

    def counting(self):
        built.append(None)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    return built


def test_supports_and_order_build_no_permutation(monkeypatch):
    built = _count_permutations(monkeypatch)
    auts = automorphisms(edgeless(8))
    assert auts.order == 40_320
    assert len(auts.supports) == 2**8 - 8 - 1
    assert not built
    assert auts.elements[1].images == (0, 1, 2, 3, 4, 5, 7, 6)
    assert len(built) == 40_320


def test_pair_scans_build_permutations_for_the_witnesses_only(monkeypatch):
    q4, q5, e8 = hypercube(4), hypercube(5), edgeless(8)
    groups = [automorphisms(g) for g in (q4, q5, e8)]
    assert [len(auts.supports) for auts in groups] == [49, 257, 247]
    built = _count_permutations(monkeypatch)
    for g, auts in zip((q5, e8), groups[1:]):
        del built[:]
        assert find_disjoint_pair(g, auts=auts) is not None
        assert len(built) == 2
    del built[:]
    assert find_edge_free_disjoint_pair(q4, auts=groups[0]) is None
    assert not built


def test_enumeration_matches_bruteforce_on_corpus():
    for g in small_corpus():
        if g.n > 7:
            continue
        got = {p.images for p in automorphisms(g).elements}
        assert got == brute_force_aut(g), g


def test_known_group_orders():
    assert automorphisms(cycle(4)).order == 8
    assert automorphisms(cycle(5)).order == 10
    assert automorphisms(complete(4)).order == 24
    assert automorphisms(path(2)).order == 2
    assert automorphisms(star(3)).order == 6
    assert automorphisms(disjoint_union([complete(2), complete(2)])).order == 8
    assert automorphisms(edgeless(0)).order == 1
    assert automorphisms(edgeless(1)).order == 1


def test_elements_are_sorted_and_start_with_identity():
    auts = automorphisms(cycle(4))
    assert auts.elements[0].is_identity
    images = [p.images for p in auts.elements]
    assert images == sorted(images)


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(OutOfRange):
        Permutation((0, 0, 1))
    with pytest.raises(OutOfRange):
        Permutation((0, 3, 1))


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    assert p(0) == 1
    assert p.cycles() == "(0 1 2)"
    assert Permutation((0, 1)).cycles() == "id"


def test_automorphism_matrix_commutation():
    # p is an automorphism exactly when its permutation matrix commutes
    # with the adjacency matrix
    g = cycle(5)
    for p in automorphisms(g).elements:
        m = np.zeros((5, 5), dtype=int)
        for j, i in enumerate(p.images):
            m[i, j] = 1
        assert np.array_equal(m @ g.adj, g.adj.astype(int) @ m)
    q = Permutation((1, 0, 2, 3, 4))  # not an automorphism of C5
    m = np.zeros((5, 5), dtype=int)
    for j, i in enumerate(q.images):
        m[i, j] = 1
    assert not is_automorphism(g, q)
    assert not np.array_equal(m @ g.adj, g.adj.astype(int) @ m)


def reference_is_automorphism(g, p):
    im = p.images
    return all(
        bool(g.adj[i, j]) == bool(g.adj[im[i], im[j]])
        for i in range(g.n)
        for j in range(i + 1, g.n)
    )


@settings(max_examples=100)
@given(graphs(max_n=8), st.data())
def test_is_automorphism_matches_the_pairwise_check(g, data):
    perms = [Permutation(tuple(data.draw(st.permutations(range(g.n)))))]
    perms.extend(automorphisms(g).elements[:5])
    perms.extend(twin_transpositions(g))
    for p in perms:
        assert is_automorphism(g, p) == reference_is_automorphism(g, p)


def test_is_automorphism_checks_length():
    with pytest.raises(LengthMismatch):
        is_automorphism(cycle(4), Permutation((0, 1, 2)))


# ---------------------------------------------------------------------------
# budget


def test_budget_raises_instead_of_truncating():
    with pytest.raises(SizeLimitExceeded):
        automorphisms(edgeless(9), node_budget=100)


def test_a_group_beyond_the_budget_is_refused_unlisted():
    # 12! elements exceed the default budget; the listing is charged as
    # soon as the chain gives the order, before any element is built
    with time_limit(10):
        with pytest.raises(SizeLimitExceeded):
            automorphisms(edgeless(12))


def test_a_listing_beyond_the_budget_is_refused_unlisted(monkeypatch):
    # |Aut| = 20^4 * 4! * 2 = 7,680,000 is under the default budget, but
    # its listing has 100 entries per element: it is charged per entry,
    # so the group is refused before the table is composed
    g = disjoint_union([cycle(10)] * 4 + [path(59)])
    assert g.n == 100

    def compose(*args):
        raise AssertionError("the listing was composed")

    monkeypatch.setattr(_module, "_first_rows", compose)
    with time_limit(10):
        with pytest.raises(SizeLimitExceeded):
            automorphisms(g)


def test_the_empty_graph_costs_no_node():
    # its one element, the empty permutation, has no entries
    assert automorphisms(edgeless(0), node_budget=0).order == 1
    with pytest.raises(SizeLimitExceeded):
        automorphisms(edgeless(1), node_budget=0)


def test_budget_error_carries_budget():
    try:
        automorphisms(edgeless(9), node_budget=50)
    except SizeLimitExceeded as err:
        assert err.budget == 50


def test_twin_classes_make_a_subgroup():
    # the twin classes' symmetric groups are a subgroup, so their order
    # divides |Aut| and refusing a listing on it alone refuses none that
    # the order charge would let through
    for g in kernel_corpus():
        assert automorphisms(g).order % _module._twin_order(g) == 0


@pytest.mark.parametrize(
    "g, nodes",
    [
        pytest.param(hypercube(4), 6_526, id="Q4"),
        # a complement's profiles follow from the graph's: same search tree
        pytest.param(complement(hypercube(4)), 6_526, id="Q4c"),
        pytest.param(cartesian(complete(4), complete(4)), 18_947, id="K4xK4"),
        pytest.param(edgeless(7), 35_336, id="edgeless7"),
        pytest.param(cycle(12), 409, id="C12"),
        # 189,364 with adjacency alone: the distance classes prune the
        # searches for images outside the orbit
        pytest.param(_rebuilt(_k33c4()), 22_611, id="K33xC4"),
        pytest.param(complement(_k33c4()), 22_611, id="K33xC4c"),
    ],
)
def test_node_accounting_is_pinned(g, nodes):
    # one node is one unused, profile-compatible candidate at a level of a
    # first-leaf search, counted before the distance-class test, plus one
    # per entry of the listing (order times n); these totals are the
    # --budget contract, so a faster search must reproduce them exactly
    assert automorphisms(g, node_budget=nodes).order > 1
    with pytest.raises(SizeLimitExceeded):
        automorphisms(g, node_budget=nodes - 1)


def _class_test_corpus():
    """The kernel corpus, its complements and the symmetric set."""
    kernel = kernel_corpus()
    return [*kernel, *map(complement, kernel), *_symmetric_set()]


def _chain_calls(g, make=None):
    """Each prefix the chain of Aut(g) searches, with the leaf it got and
    the nodes that call spent, and the nodes the chain spent, with the
    search ``make`` builds (by default the engine's)."""
    search = (make or _module._Search)(g, g, math.inf)
    calls = []
    search_leaf = search.first_leaf

    def recording(prefix):
        before = search.nodes
        leaf = search_leaf(prefix)
        calls.append((prefix, leaf, search.nodes - before))
        return leaf

    search.first_leaf = recording
    _module._chain(g, search)
    return calls, search.nodes


def test_chain_prefixes_have_the_adjacency_search_leaves():
    # the distance classes only drop candidates no isomorphism can use,
    # so each prefix's first leaf is the one adjacency alone finds
    prefixes = 0
    for g in _class_test_corpus():
        calls, _ = _chain_calls(g)
        reference = AdjacencySearch(g, g)
        for prefix, leaf, _ in calls:
            assert reference.first_leaf(prefix) == leaf, (g, prefix)
        prefixes += len(calls)
    assert prefixes > 5_000


def test_isomorphism_witnesses_match_the_adjacency_search():
    rng = random.Random(15)
    last = {}
    found = 0
    for g in _class_test_corpus():
        h, _ = relabelled(g, rng)
        witness = are_isomorphic(g, h)
        assert witness is not None and witness == reference_isomorphism(g, h), g
        # and against the last graph with the same order and edge count,
        # isomorphic or not
        other = last.get((g.n, g.edge_count), g)
        witness = are_isomorphic(g, other)
        assert witness == reference_isomorphism(g, other), (g, other)
        found += witness is not None
        last[g.n, g.edge_count] = g
    assert found > 1_000


def _four_class_corpus():
    """The kernel corpus, its complements, the symmetric set and the
    sparse gallery, each of the last two with its complement."""
    kernel = kernel_corpus()
    extra = [*_symmetric_set(), *map(gallery, SPARSE_GALLERY)]
    return [*kernel, *map(complement, kernel), *extra, *map(complement, extra)]


def test_chain_prefixes_match_the_four_class_search():
    # the count stands in for the far class's tests exactly: the chain
    # tries the same prefixes, each with the same first leaf and nodes
    prefixes = 0
    for g in _four_class_corpus():
        calls, nodes = _chain_calls(g)
        assert (calls, nodes) == _chain_calls(g, FourClassSearch), g
        prefixes += len(calls)
    assert prefixes > 5_000


def _leaf_and_nodes(make, g, h):
    search = make(g, h, math.inf)
    return (search.first_leaf(()), search.nodes) if search.possible else None


def test_isomorphism_witnesses_match_the_four_class_search():
    rng = random.Random(27)
    last = {}
    found = 0
    for g in _four_class_corpus():
        h, _ = relabelled(g, rng)
        other = last.get((g.n, g.edge_count), g)
        for target in (h, other):
            want = _leaf_and_nodes(FourClassSearch, g, target)
            assert _leaf_and_nodes(_module._Search, g, target) == want, (g, target)
            assert are_isomorphic(g, target) == (want and want[0]), (g, target)
            found += bool(want and want[0])
        last[g.n, g.edge_count] = g
    assert found > 5_000


@pytest.mark.parametrize("g", [path(1200), cycle(600)], ids=["p1200", "c600"])
def test_the_search_files_only_near_earlier_vertices(g):
    # the four-class search filed every earlier vertex, n(n-1)/2 in all;
    # here each vertex keeps those adjacent or two steps away, at most 4
    search = _module._Search(g, g, math.inf)
    filed = [sum(len(group) for group, _ in groups) for groups in search.earlier]
    assert max(filed) <= 4
    assert search.counts[g.n - 1] == filed[-1]


def test_isomorphism_search_runs_deeper_than_the_recursion_limit():
    # 1,501 vertices, one search level each
    g = path(1500)
    h, images = relabelled(g, random.Random(22))
    witness = are_isomorphic(g, h)
    assert witness is not None and is_isomorphism(g, h, witness)
    assert witness in (images, tuple(images[g.n - 1 - v] for v in range(g.n)))


def test_a_complement_costs_the_same_nodes():
    # the four distance classes of a complement are the graph's, with the
    # labels swapped; adjacency, two steps and the rest alone would not be
    for g in [*kernel_corpus(), _rebuilt(_k33c4())]:
        assert _chain_calls(g)[1] == _chain_calls(complement(g))[1], g


def test_pair_scans_match_the_full_support_scan():
    for g in _class_test_corpus():
        auts = automorphisms(g)
        assert set(auts.minimal) <= set(auts.supports)
        for edge_free, find in (
            (False, find_disjoint_pair),
            (True, find_edge_free_disjoint_pair),
        ):
            pair = find(g, auts=auts)
            expected = reference_first_pair(g, auts.supports, edge_free)
            assert (pair and tuple(p.images for p in pair)) == expected, g


def test_minimal_supports_are_the_inclusion_minimal_ones_in_table_order():
    for g in [hypercube(4), edgeless(6), star(5), cycle(6)]:
        auts = automorphisms(g)
        masks = list(auts.supports)
        expected = [
            m for m in masks if not any(k != m and k & ~m == 0 for k in masks)
        ]
        assert list(auts.minimal.items()) == [(m, auts.supports[m]) for m in expected]
    # the transpositions of edgeless(6), the 15 pairs of points
    assert len(automorphisms(edgeless(6)).minimal) == 15


def _packed_supports(table: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The support table by packed bytes and ``np.unique``, for every
    width: the reference for :func:`qsym.automorphisms._supports`."""
    count, n = table.shape
    moved = np.packbits(table != np.arange(n), axis=1, bitorder="little")
    width = -(-moved.shape[1] // 8)
    words = np.zeros((count, 8 * width), dtype=np.uint8)
    words[:, : moved.shape[1]] = moved
    keys = words.view(np.uint64)
    if width == 1:
        _, index = np.unique(keys.ravel(), return_index=True)
    else:
        _, index = np.unique(keys, axis=0, return_index=True)
    rows = []
    for j in np.sort(index).tolist():
        mask = int.from_bytes(moved[j].tobytes(), "little")
        if mask:
            rows.append((mask, tuple(table[j].tolist())))
    return dict(sorted(rows, key=lambda row: row[0].bit_count()))


def test_support_table_matches_the_packed_reference():
    # the same masks, images and order as the packed-byte version, and
    # the transitive flag says whether the listing moves 0 everywhere;
    # p64 (n = 65) takes the wide branch.  star20 and k3_12 are left out:
    # their groups (20! and 12! 3! elements) are refused at any budget
    # that fits a test
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(4000)]
    cases += [f for n in range(1, 10) for f in enumerate_forests(n)]
    cases += [gallery(name) for name in SPARSE_GALLERY if name not in ("star20", "k3_12")]
    cases.append(hypercube(6))
    seen = set()
    for g in cases:
        auts = automorphisms(g)
        want = _packed_supports(auts.table)
        assert list(auts.supports.items()) == list(want.items()), g
        assert auts.transitive == (len(set(auts.table[:, 0].tolist())) == g.n), g
        seen.add((g.n > 64, auts.transitive))
    assert seen >= {(False, False), (False, True), (True, False)}


def test_listing_and_support_table_are_the_same_across_row_blocks(monkeypatch):
    # blocks of three rows: every table of four rows or more is keyed in
    # several blocks, and every level with two prefixes or more is
    # composed in several, so these graphs cross blocks where the real
    # block (4,096 rows) holds all but edgeless(7)'s 5,040 rows whole.
    # The listing must be the very table and support table of the real
    # block, and the support table the packed reference's; p64 (n = 65)
    # composes in blocks and keys wide
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(300)]
    cases += [f for n in range(1, 8) for f in enumerate_forests(n)]
    cases += [hypercube(3), hypercube(4), hypercube(5), gallery("p64")]
    whole = [automorphisms(g) for g in cases]
    # every group through numpy, which is what is cut into blocks
    monkeypatch.setattr(_module, "_SMALL", 0)
    monkeypatch.setattr(_module, "_BLOCK", 3)
    crossed = 0
    for g, want in zip(cases, whole):
        auts = automorphisms(g)
        assert auts.table.dtype == want.table.dtype, g
        assert auts.table.shape == want.table.shape, g
        assert auts.table.tobytes() == want.table.tobytes(), g
        assert list(auts.supports.items()) == list(want.supports.items()), g
        assert list(auts.supports.items()) == list(_packed_supports(auts.table).items()), g
        assert auts.transitive == want.transitive, g
        crossed += auts.order > 3
    assert (len(cases), crossed) == (383, 243)


def test_listing_edgeless_9_peaks_below_twice_its_table():
    # the support table is read off 3,378 merged rows, and the 362,880 x 9
    # listing (3.1 MiB) is not composed until it is read, so the whole
    # call stays under 1 MiB
    tracemalloc.start()
    try:
        auts = automorphisms(edgeless(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert auts.order == 362_880
    assert len(auts.supports) == 2**9 - 9 - 1
    assert peak < 2**20, peak
    assert peak < 2 * auts.table.nbytes, (peak, auts.table.nbytes)


def _merges(monkeypatch) -> list[tuple[int, int]]:
    """A list that gets the rows in and out of every merge from now on."""
    merges = []
    merge = _module._merge

    def recording(table, i):
        out = merge(table, i)
        merges.append((len(table), len(out)))
        return out

    monkeypatch.setattr(_module, "_merge", recording)
    return merges


def test_merged_rows_give_the_support_table_of_the_full_listing(monkeypatch):
    # at three-row blocks every level from the second on outgrows a
    # block, so these groups merge rows before nearly every level; the
    # support table, minimal masks, order and transitive flag must be
    # those of the full listing, which the table still composes whole
    cases = [f for n in range(1, 8) for f in enumerate_forests(n)]
    cases += [edgeless(7), star(6), complete_bipartite(4, 5)]
    whole = [automorphisms(g) for g in cases]
    merges = _merges(monkeypatch)
    # every group through numpy, which is what merges rows
    monkeypatch.setattr(_module, "_SMALL", 0)
    monkeypatch.setattr(_module, "_BLOCK", 3)
    for g, want in zip(cases, whole):
        auts = automorphisms(g)
        reference = _packed_supports(want.table)
        assert list(auts.supports.items()) == list(reference.items()), g
        assert list(auts.minimal.items()) == list(want.minimal.items()), g
        assert (auts.order, auts.transitive) == (want.order, want.transitive), g
        assert auts.table.tobytes() == want.table.tobytes(), g
    assert (len(merges), sum(rows - kept for rows, kept in merges)) == (91, 1_887)


def test_the_gate_tries_no_merge_where_every_transversal_element_moves_late_points(
    monkeypatch,
):
    # every non-identity transversal element of these chains moves a point
    # at or past the last non-trivial level, so no merge is tried, even at
    # three-row blocks, and the support table is the full listing's
    cases = [
        gallery("prism7"),
        hypercube(5),
        hypercube(6),
        cartesian(complete(4), complete(4)),
    ]
    whole = [automorphisms(g) for g in cases]
    merges = _merges(monkeypatch)
    monkeypatch.setattr(_module, "_SMALL", 0)
    monkeypatch.setattr(_module, "_BLOCK", 3)
    for g, want in zip(cases, whole):
        auts = automorphisms(g)
        assert list(auts.supports.items()) == list(_packed_supports(want.table).items()), g
    assert merges == []


def _both_tables(monkeypatch, g):
    """Aut(g)'s support table through numpy, then through plain Python
    (see :func:`qsym.automorphisms._small_supports`), for any group the
    second can list in a test."""
    monkeypatch.setattr(_module, "_SMALL", 0)
    numpy_table = automorphisms(g).supports
    monkeypatch.setattr(_module, "_SMALL", 10_000)
    return numpy_table, automorphisms(g).supports


def test_the_python_and_numpy_support_tables_agree(monkeypatch):
    # item for item: the same masks, first elements and order.  Groups of
    # order past 10,000 (edgeless(8) and (9) among the forests) go
    # through numpy both times
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(1000)]
    cases += [complement(g) for g in cases[:300]]
    cases += [f for n in range(1, 10) for f in enumerate_forests(n)]
    cases += [gallery(name) for name in SPARSE_GALLERY if name not in ("star20", "k3_12")]
    cases += [gallery("prism7"), hypercube(3), hypercube(4)]
    threshold = _module._SMALL
    orders = []
    for g in cases:
        numpy_table, python_table = _both_tables(monkeypatch, g)
        assert list(python_table.items()) == list(numpy_table.items()), g
        orders.append(math.prod(map(len, automorphisms(g).chain)))
    # well past the real threshold, into merged levels of the numpy path
    past = [o for o in orders if threshold < o <= 10_000]
    assert (len(past), max(past)) == (363, 5_040)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8))
def test_the_python_and_numpy_support_tables_agree_on_any_graph(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        numpy_table, python_table = _both_tables(monkeypatch, g)
    assert list(python_table.items()) == list(numpy_table.items()), g


def test_a_small_group_composes_nothing_in_numpy(monkeypatch):
    # up to the threshold the support table is read in plain Python
    cases = [cycle(6), path(5), star(3), complete_bipartite(2, 3)]
    wants = [_packed_supports(automorphisms(g).table) for g in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy composed the table")

    monkeypatch.setattr(_module, "_first_rows", refuse)
    monkeypatch.setattr(_module, "_supports", refuse)
    for g, want in zip(cases, wants):
        auts = automorphisms(g)
        assert 1 < auts.order <= _module._SMALL, g
        assert list(auts.supports.items()) == list(want.items()), g


def _profile_distinct_pool() -> list:
    """The draws of 0x5EED among the first 300 on whose vertices the
    degree profiles are all distinct."""
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(300)]
    return [g for g in pool if len(set(_module._profiles(g))) == g.n]


def test_distinct_profiles_give_the_identity_without_a_search(monkeypatch):
    # only the identity maps every vertex to one with its own profile; it
    # builds no search and no distance classes, and is still charged its
    # n entries of the listing
    cases = _profile_distinct_pool() + [edgeless(1)]
    chains = [_module._chain(g, _module._Search(g, g, math.inf)) for g in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a search was set up")

    monkeypatch.setattr(_module, "_Search", refuse)
    monkeypatch.setattr(_module, "_distance_classes", refuse)
    for g, chain in zip(cases, chains):
        auts = automorphisms(g, node_budget=g.n)
        assert (auts.order, auts.supports, auts.chain) == (1, {}, chain), g
        assert auts.table.tolist() == [list(range(g.n))], g
        with pytest.raises(SizeLimitExceeded):
            automorphisms(g, node_budget=g.n - 1)
    assert len(cases) > 10


def test_wide_support_table_is_keyed_in_row_blocks(monkeypatch):
    # edgeless(6) + C60 (n = 66, 86,400 rows, a 5.4 MiB table): keying it
    # in row blocks peaks below the table itself, where keying it whole
    # peaked at 6.2 MiB
    table = automorphisms(disjoint_union([edgeless(6), cycle(60)])).table
    tracemalloc.start()
    try:
        supports = _module._supports(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (86_400, 66)
    assert peak < table.nbytes, (peak, table.nbytes)
    assert list(supports.items()) == list(_packed_supports(table).items())
    # and across blocks of three rows, on every graph with n > 64 listed here
    wide = [g for g in _listing_corpus() if g.n > 64] + [gallery("p64")]
    tables = [automorphisms(g).table for g in wide]
    monkeypatch.setattr(_module, "_BLOCK", 3)
    for g, table in zip(wide, tables):
        want = _packed_supports(table)
        assert list(_module._supports(table).items()) == list(want.items()), g
    assert len(wide) == 13


def test_enumeration_is_the_lexicographic_oracle_list():
    # the census oracle corpus: every graph of order <= 6 among the first
    # 200 draws of seed 0x5EED, against all n! permutations in order
    rng = SplitMix64(0x5EED)
    checked = 0
    for _ in range(200):
        g = random_graph(rng)
        if g.n > 6:
            continue
        expected = [
            p
            for p in map(Permutation, itertools.permutations(range(g.n)))
            if is_automorphism(g, p)
        ]
        assert automorphisms(g).elements == tuple(expected), g
        checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# disjoint pair searches


def test_complete_graph_has_disjoint_pair_but_not_edge_free():
    g = complete(4)
    pair = find_disjoint_pair(g)
    assert pair is not None
    a, b = pair
    assert not a.is_identity and not b.is_identity
    assert is_automorphism(g, a) and is_automorphism(g, b)
    assert a.support() & b.support() == frozenset()
    assert find_edge_free_disjoint_pair(g) is None


def test_c4_has_disjoint_pair_but_not_edge_free():
    g = cycle(4)
    pair = find_disjoint_pair(g)
    assert pair is not None
    a, b = pair
    assert a.support() & b.support() == frozenset()
    # the two antipodal transpositions
    assert {a.support(), b.support()} == {frozenset({0, 2}), frozenset({1, 3})}
    assert find_edge_free_disjoint_pair(g) is None


def test_complements_gain_edge_freeness():
    for g in (complete(4), cycle(4)):
        gc = complement(g)
        pair = find_edge_free_disjoint_pair(gc)
        assert pair is not None
        a, b = pair
        assert is_automorphism(gc, a) and is_automorphism(gc, b)
        sa, sb = a.support(), b.support()
        assert sa & sb == frozenset()
        assert not any(gc.adj[u, v] for u in sa for v in sb)


def test_small_groups_have_no_pair():
    assert find_disjoint_pair(complete(3)) is None
    assert find_disjoint_pair(cycle(5)) is None
    assert find_disjoint_pair(path(3)) is None
    assert find_edge_free_disjoint_pair(complete(3)) is None


def test_star_pairs_need_four_rays():
    assert find_disjoint_pair(star(3)) is None
    pair = find_disjoint_pair(star(4))
    assert pair is not None
    a, b = pair
    assert len(a.support()) == 2 and len(b.support()) == 2


def test_pair_searches_are_deterministic():
    g = complete(5)
    assert find_disjoint_pair(g) == find_disjoint_pair(g)
    gc = edgeless(5)
    assert find_edge_free_disjoint_pair(gc) == find_edge_free_disjoint_pair(gc)


def test_witness_has_smallest_support_available():
    g = edgeless(6)
    pair = find_disjoint_pair(g)
    assert pair is not None
    assert len(pair[0].support()) == 2 and len(pair[1].support()) == 2


# ---------------------------------------------------------------------------
# twins


def test_twin_transpositions_examples():
    assert {p.support() for p in twin_transpositions(cycle(4))} == {
        frozenset({0, 2}),
        frozenset({1, 3}),
    }
    assert len(twin_transpositions(complete(4))) == 6
    assert {p.support() for p in twin_transpositions(path(2))} == {frozenset({0, 2})}
    assert twin_transpositions(cycle(5)) == []


def reference_twin_pairs(g):
    """The twin pairs by testing every vertex pair."""
    bits = g._bits
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if bits[u] & ~(1 << v) == bits[v] & ~(1 << u)
    ]


def test_twin_pairs_match_the_pair_scan():
    # graphs past 64 vertices too, whose rows span more than one word
    wide = [
        star(70),
        complete_bipartite(3, 66),
        edgeless(70),
        disjoint_union([path(1)] * 20 + [cycle(4)] * 10),
        cartesian(cycle(11), cycle(6)),
    ]
    extra = [*map(gallery, SPARSE_GALLERY), *wide]
    twinned = 0
    for g in [*kernel_corpus(), *extra, *map(complement, extra)]:
        # the one twin-swap table: every pair's swap, by image tuple
        pairs = reference_twin_pairs(g)
        swaps = sorted((_module._swap_images(g.n, u, v), 1 << u | 1 << v) for u, v in pairs)
        assert list(_module._twin_swaps(g).items()) == [(m, p) for p, m in swaps], g
        twinned += bool(pairs)
    assert twinned > 500


@settings(max_examples=50)
@given(graphs(max_n=6))
def test_twin_transpositions_are_automorphisms(g):
    for p in twin_transpositions(g):
        assert is_automorphism(g, p)


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=6))
def test_every_enumerated_element_preserves_adjacency(g):
    for p in automorphisms(g).elements:
        assert is_automorphism(g, p)

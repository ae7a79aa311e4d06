from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from qsym import (
    Permutation,
    automorphisms,
    build,
    cartesian,
    complement,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
    is_automorphism,
    path,
    star,
    support,
)
from qsym.automorphisms import twin_transpositions
from qsym.census import SplitMix64, random_graph
from qsym.errors import LengthMismatch, OutOfRange, SizeLimitExceeded

from .conftest import graphs, hypercube, small_corpus

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
    assert p.inverse().images == (2, 0, 1)
    assert p.compose(p.inverse()).is_identity
    assert support(p) == frozenset({0, 1, 2})
    assert p.cycles() == "(0 1 2)"
    assert Permutation((0, 1)).cycles() == "id"


def test_compose_checks_length():
    with pytest.raises(LengthMismatch):
        Permutation((0, 1)).compose(Permutation((0,)))


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


def test_is_automorphism_checks_length():
    with pytest.raises(LengthMismatch):
        is_automorphism(cycle(4), Permutation((0, 1, 2)))


# ---------------------------------------------------------------------------
# budget


def test_budget_raises_instead_of_truncating():
    with pytest.raises(SizeLimitExceeded):
        automorphisms(edgeless(9), node_budget=100)


def test_budget_error_carries_budget():
    try:
        automorphisms(edgeless(9), node_budget=50)
    except SizeLimitExceeded as err:
        assert err.budget == 50


@pytest.mark.parametrize(
    "g, nodes",
    [
        pytest.param(hypercube(4), 31_296, id="Q4"),
        # a complement's profiles follow from the graph's: same search tree
        pytest.param(complement(hypercube(4)), 31_296, id="Q4c"),
        pytest.param(cartesian(complete(4), complete(4)), 60_544, id="K4xK4"),
        pytest.param(edgeless(7), 13_699, id="edgeless7"),
        pytest.param(cycle(12), 1_464, id="C12"),
    ],
)
def test_node_accounting_is_pinned(g, nodes):
    # one node is one unused, profile-compatible candidate at a level,
    # counted before the adjacency test; these totals are the --budget
    # contract, so a faster search must reproduce them exactly
    assert automorphisms(g, node_budget=nodes).order > 1
    with pytest.raises(SizeLimitExceeded):
        automorphisms(g, node_budget=nodes - 1)


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
    assert support(a) & support(b) == frozenset()
    assert find_edge_free_disjoint_pair(g) is None


def test_c4_has_disjoint_pair_but_not_edge_free():
    g = cycle(4)
    pair = find_disjoint_pair(g)
    assert pair is not None
    a, b = pair
    assert support(a) & support(b) == frozenset()
    # the two antipodal transpositions
    assert {support(a), support(b)} == {frozenset({0, 2}), frozenset({1, 3})}
    assert find_edge_free_disjoint_pair(g) is None


def test_complements_gain_edge_freeness():
    for g in (complete(4), cycle(4)):
        gc = complement(g)
        pair = find_edge_free_disjoint_pair(gc)
        assert pair is not None
        a, b = pair
        assert is_automorphism(gc, a) and is_automorphism(gc, b)
        sa, sb = support(a), support(b)
        assert sa & sb == frozenset()
        assert not any(gc.has_edge(u, v) for u in sa for v in sb)


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
    assert len(support(a)) == 2 and len(support(b)) == 2


def test_pair_searches_are_deterministic():
    g = complete(5)
    assert find_disjoint_pair(g) == find_disjoint_pair(g)
    gc = edgeless(5)
    assert find_edge_free_disjoint_pair(gc) == find_edge_free_disjoint_pair(gc)


def test_witness_has_smallest_support_available():
    g = edgeless(6)
    pair = find_disjoint_pair(g)
    assert pair is not None
    assert len(support(pair[0])) == 2 and len(support(pair[1])) == 2


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

from __future__ import annotations

import dataclasses
import io
import itertools
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

import qsym.census
from qsym import build, complete_bipartite, disjoint_union, path
from qsym.automorphisms import (
    _disjoint_pairs,
    automorphisms,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
)
from qsym.census import (
    CensusResult,
    CensusRow,
    SplitMix64,
    _pair_counts,
    _pattern_soundness,
    check_forest_dichotomy,
    cherry_census,
    enumerate_forests,
    enumerate_trees,
    oracle_crosschecks,
    random_graph,
    write_csv,
)
from qsym.errors import NonPositiveCount, OutOfRange
from qsym.graphs import _edge_between, find_cherries, is_forest, is_tree

# ---------------------------------------------------------------------------
# independent oracles, local to this file on purpose


def decode_sequence(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Standard decoding of a length n-2 sequence over 0..n-1 into a
    labelled tree: repeatedly join the smallest current leaf to the next
    sequence entry."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (x for x in range(n) if degree[x] == 1)
    edges.append((u, v))
    return edges


def canonical_form(edges: list[tuple[int, int]], n: int) -> str:
    """Minimum over all rootings of the nested-parentheses form.  Written
    from scratch here so the enumeration's own canonicalisation is not
    trusted by the tests that check it."""
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def form(v: int, parent: int) -> str:
        return "(" + "".join(sorted(form(u, v) for u in adj[v] if u != parent)) + ")"

    return min(form(r, -1) for r in range(n))


def counting_recurrence(n_max: int) -> list[int]:
    """Unlabelled tree counts from the classical rooted-tree recurrence
    plus the rooted-to-unrooted correction.  Pure arithmetic: shares no
    code at all with the enumerator."""
    rooted = [0] * (n_max + 1)
    rooted[1] = 1
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, n):
            weighted = sum(d * rooted[d] for d in range(1, k + 1) if k % d == 0)
            total += weighted * rooted[n - k]
        rooted[n] = total // (n - 1)
    free = [0] * (n_max + 1)
    free[1] = 1
    for n in range(2, n_max + 1):
        s = sum(rooted[i] * rooted[n - i] for i in range(1, n))
        if n % 2 == 0:
            free[n] = rooted[n] - (s - rooted[n // 2]) // 2
        else:
            free[n] = rooted[n] - s // 2
    return free


# ---------------------------------------------------------------------------
# tree enumeration


def test_tree_counts_match_counting_recurrence():
    expected = counting_recurrence(11)
    for n in range(1, 12):
        assert sum(1 for _ in enumerate_trees(n)) == expected[n]


@pytest.mark.parametrize("n", range(2, 8))
def test_tree_classes_match_sequence_decoding(n):
    from itertools import product as iproduct

    ours = {canonical_form(t.edges(), n) for t in enumerate_trees(n)}
    theirs = {
        canonical_form(decode_sequence(seq, n), n)
        for seq in iproduct(range(n), repeat=n - 2)
    }
    assert ours == theirs


def test_enumerated_trees_are_trees_and_distinct():
    for n in range(1, 9):
        ts = list(enumerate_trees(n))
        assert all(t.n == n and is_tree(t) for t in ts)
        forms = [canonical_form(t.edges(), n) for t in ts]
        assert len(set(forms)) == len(forms)


def test_tree_enumeration_is_deterministic():
    first = [t.edges() for t in enumerate_trees(7)]
    second = [t.edges() for t in enumerate_trees(7)]
    assert first == second


@pytest.mark.parametrize("n", [0, -2, 12])
def test_enumerate_trees_range(n):
    with pytest.raises(OutOfRange):
        list(enumerate_trees(n))


# ---------------------------------------------------------------------------
# forest enumeration


def test_forest_counts():
    # multisets of tree classes: sum over partitions of multiset choices
    from math import comb

    tree_counts = counting_recurrence(9)

    def partitions(n, cap):
        if n == 0:
            yield ()
            return
        for k in range(min(n, cap), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    for n in range(1, 10):
        expected = 0
        for part in partitions(n, n):
            ways = 1
            for size in set(part):
                mult = part.count(size)
                ways *= comb(tree_counts[size] + mult - 1, mult)
            expected += ways
        assert sum(1 for _ in enumerate_forests(n)) == expected


def test_small_forest_classes():
    two = list(enumerate_forests(2))
    assert len(two) == 2
    assert {g.edge_count for g in two} == {0, 1}
    assert sum(1 for _ in enumerate_forests(3)) == 3
    assert sum(1 for _ in enumerate_forests(4)) == 6


def test_forests_are_forests_and_distinct():
    seen = set()
    for f in enumerate_forests(6):
        assert is_forest(f)
        key = canonical_forest_key(f)
        assert key not in seen
        seen.add(key)


def canonical_forest_key(f) -> tuple[str, ...]:
    comps = []
    from qsym.graphs import components

    for comp in components(f):
        idx = sorted(comp)
        sub_edges = [
            (idx.index(u), idx.index(v))
            for u, v in f.edges()
            if u in comp and v in comp
        ]
        comps.append(canonical_form(sub_edges, len(idx)))
    return tuple(sorted(comps))


def test_enumerate_forests_range():
    with pytest.raises(OutOfRange):
        list(enumerate_forests(10))


# ---------------------------------------------------------------------------
# the forest dichotomy


def test_dichotomy_holds_up_to_six():
    result = check_forest_dichotomy(6)
    assert result.ok
    assert result.violations == ()


def test_dichotomy_counts_agree_when_clean():
    # existence of a disjoint pair must coincide with existence of an
    # edge-free one, so the two per-order counts are equal
    result = check_forest_dichotomy(6)
    for row in result.rows:
        assert row.with_disjoint_pair == row.with_edge_free_pair


def test_dichotomy_row_shape():
    result = check_forest_dichotomy(4)
    assert result.n_min == 1 and result.n_max == 4
    assert [r.forests for r in result.rows] == [1, 2, 3, 6]
    assert [r.trees for r in result.rows] == [1, 1, 1, 2]


def test_single_paths_have_no_pair():
    # a path's symmetry group has at most two elements, never two
    # non-trivial ones with disjoint supports
    for k in range(1, 6):
        assert find_disjoint_pair(path(k)) is None


def test_two_k2_pair_is_edge_free():
    f = disjoint_union([path(1), path(1)])
    pair = find_edge_free_disjoint_pair(f)
    assert pair is not None
    sigma, tau = pair
    assert {sigma.cycles(), tau.cycles()} == {"(0 1)", "(2 3)"}


def test_pair_counts_match_the_pair_scan():
    # the pair scan with an edge test per disjoint pair is the reference;
    # on forests the crossing count is always 0, so the pool graphs, most
    # of them not forests, are where crossing pairs show
    rng = SplitMix64(0x5EED)
    crossed = mixed = 0
    for _ in range(400):
        g = random_graph(rng)
        masks = list(automorphisms(g).supports)
        disjoint = crossing = 0
        for i, j in _disjoint_pairs(g, masks, edge_free=False):
            disjoint += 1
            crossing += _edge_between(g, masks[i], masks[j])
        assert _pair_counts(g, masks) == (disjoint, crossing), g
        crossed += crossing > 0
        mixed += 0 < crossing < disjoint
    # 111 graphs have a crossing pair, 3 of them an edge-free one as well
    assert (crossed, mixed) == (111, 3)


def test_dichotomy_range():
    with pytest.raises(OutOfRange):
        check_forest_dichotomy(10)


# ---------------------------------------------------------------------------
# cherries


def test_cherry_counts_at_small_orders():
    result = cherry_census(7)
    assert result.fraction_two_cherries(3) == 0.0
    assert result.fraction_two_cherries(4) == 0.5
    assert result.row(6).with_two_cherries == 1
    assert result.row(7).with_two_cherries == 1


def test_star_with_three_rays_has_three_cherries():
    assert len(find_cherries(complete_bipartite(1, 3))) == 3


def test_wide_stars_have_none():
    # the middle of a four-ray star has degree four, so no cherry
    assert find_cherries(complete_bipartite(1, 4)) == ()


def test_two_cherry_exhibit_is_counted():
    from qsym.gallery import cherry2_graph

    g = cherry2_graph()
    assert len(find_cherries(g)) == 2
    result = cherry_census(6)
    assert result.row(6).with_two_cherries == 1  # and this graph is it


def test_cherry_fraction_trend_on_the_tail():
    result = cherry_census(11)
    f = result.fraction_two_cherries
    assert f(9) < f(10) < f(11)


def test_cherry_census_range():
    with pytest.raises(OutOfRange):
        cherry_census(12)


# ---------------------------------------------------------------------------
# the seeded corpus


def test_splitmix_known_answers():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_corpus_is_reproducible():
    rng1, rng2 = SplitMix64(1234), SplitMix64(1234)
    first = [random_graph(rng1) for _ in range(10)]
    second = [random_graph(rng2) for _ in range(10)]
    assert first == second
    assert any(g != h for g, h in zip(first, [random_graph(SplitMix64(4321)) for _ in range(10)]))


def test_corpus_orders_in_range():
    rng = SplitMix64(7)
    for _ in range(50):
        assert 3 <= random_graph(rng).n <= 8


def test_oracle_crosschecks_clean_on_default_corpus():
    result = oracle_crosschecks()
    assert result.ok, result.violations


def test_pattern_soundness_fails_exactly_on_the_cells_automorphisms_realise():
    # the orbits come from the chain's transversal elements; the listing,
    # every element's images, is the reference
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(100)]
    cases += [f for n in range(1, 8) for f in enumerate_forests(n)]
    for g in cases:
        auts = automorphisms(g)
        realised = np.zeros((g.n, g.n), dtype=bool)
        realised[np.arange(g.n), auts.table] = True
        for v, w in itertools.product(range(g.n), repeat=2):
            forced = np.zeros((g.n, g.n), dtype=bool)
            forced[v, w] = True
            pattern = SimpleNamespace(forced=forced)
            assert _pattern_soundness(g, pattern, auts) is not bool(realised[v, w]), g


def _flip_first_pattern_cell(monkeypatch):
    """Make the survey's zero pattern forbid cell (0, 0) on its first
    graph, where the identity maps vertex 0 to itself."""
    real = qsym.census.zero_pattern
    calls = []

    def faulty(g):
        pattern = real(g)
        calls.append(g)
        if len(calls) == 1:
            forced = np.array(pattern.forced)
            forced[0, 0] = True
            pattern = dataclasses.replace(pattern, forced=forced)
        return pattern

    monkeypatch.setattr(qsym.census, "zero_pattern", faulty)


def test_oracle_crosschecks_detect_injected_fault(monkeypatch):
    _flip_first_pattern_cell(monkeypatch)
    result = oracle_crosschecks(count=3)
    assert not result.ok
    assert len(result.violations) == 1
    assert "zero pattern" in result.violations[0]


@pytest.mark.parametrize("count", [0, -3])
def test_oracle_crosschecks_reject_an_empty_survey(count):
    with pytest.raises(NonPositiveCount):
        oracle_crosschecks(count=count)


def test_oracle_rows_count_sampled_graphs():
    result = oracle_crosschecks(count=40)
    assert result.n_min == 3 and result.n_max == 8
    for row in result.rows:
        assert row.with_edge_free_pair <= row.with_disjoint_pair


# ---------------------------------------------------------------------------
# CSV


def test_csv_shape_and_violation_column(monkeypatch):
    result = cherry_census(5)
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("n,trees,forests,")
    assert len(lines) == 6
    assert lines[4].split(",")[:2] == ["4", "2"]

    _flip_first_pattern_cell(monkeypatch)
    faulty = oracle_crosschecks(count=3)
    buf = io.StringIO()
    write_csv(faulty, buf)
    rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
    assert sum(int(r[-1]) for r in rows) == 1


def test_census_result_row_lookup():
    result = cherry_census(4)
    assert result.row(4).trees == 2
    with pytest.raises(OutOfRange):
        result.row(9)

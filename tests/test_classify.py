"""Rule engine verdicts, certificates, and their re-verification.

Frozen expectations come from hand-checked small graphs; the property
tests assert the structural guarantees the engine promises: sound
certificates, no inconsistent verdict pairs, and agreement of the two
targets on quadrangle-free inputs.
"""

import collections
import dataclasses
import functools
import gc
import importlib
import json
import random
import weakref
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings

from qsym.automorphisms import (
    AutomorphismSet,
    Permutation,
    _swap_images,
    automorphisms,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
    twin_transpositions,
)
from qsym.check import (
    TARGET_BAN,
    TARGET_BIC,
    TARGET_BIC_COMPLEMENT,
    Certificate,
    DisjointPair,
    EdgeFreePair,
    ForestNoDisjointPair,
    QuadrangleFreeComplement,
    QuadrangleFreeSelf,
    SmallBlocks,
    SmallOrder,
    Status,
    StripToCommutative,
    verify_certificate,
)
from qsym.classify import (
    _PIPELINES,
    CITATIONS,
    R_BAN_1,
    R_BIC_1,
    Report,
    Verdict,
    _complete_bipartite_parts,
    _Ctx,
    _kmn,
    _run,
    _Shared,
    _transfer,
    classify,
    classify_with_complement,
)
from qsym.census import (
    SplitMix64,
    check_forest_dichotomy,
    enumerate_forests,
    enumerate_trees,
    oracle_crosschecks,
    random_graph,
)
from qsym.cli import report_schema
from qsym.errors import QsymError, SizeLimitExceeded
from qsym.gallery import (
    c4pn_graph,
    cherry2_graph,
    fig7_graph,
    gallery,
    sc_graph,
    t0_graph,
)
from qsym.graphs import (
    Graph,
    build,
    complement,
    complete,
    complete_bipartite,
    contains_quadrangle,
    cycle,
    edgeless,
    find_cherries,
    is_connected,
    is_forest,
    line_graph,
    path,
    star,
)
from qsym.products import PRODUCT_KINDS, cartesian, corona, direct, lexicographic, strong
from qsym.pattern import blocks as pattern_blocks
from qsym.pattern import zero_pattern

from .conftest import (
    SPARSE_GALLERY,
    graphs,
    hypercube,
    kernel_corpus,
    relabelled,
    small_corpus,
    time_limit,
)
from .test_automorphisms import reference_twin_pairs

C = Status.COMMUTATIVE
NC = Status.NONCOMMUTATIVE
U = Status.UNKNOWN


def both(rep):
    return rep.bic.status, rep.ban.status


# ---------------------------------------------------------------------------
# frozen verdicts on the worked examples


def test_tiny_graphs_are_commutative():
    for g in (edgeless(0), edgeless(1), complete(2), complete(3), path(2)):
        rep = classify(g)
        assert both(rep) == (C, C)
        assert isinstance(rep.bic.certificate, SmallOrder)


def test_c4_splits_the_two_targets():
    rep = classify(cycle(4))
    assert rep.bic.status is C
    assert isinstance(rep.bic.certificate, QuadrangleFreeComplement)
    assert rep.ban.status is NC
    cert = rep.ban.certificate
    assert isinstance(cert, DisjointPair)
    assert cert.sigma.cycles() == "(0 2)"
    assert cert.tau.cycles() == "(1 3)"


def test_c5_fully_commutative_via_transfer():
    rep = classify(cycle(5))
    assert both(rep) == (C, C)
    assert isinstance(rep.ban.certificate, QuadrangleFreeSelf)
    assert isinstance(rep.ban.certificate.companion, QuadrangleFreeComplement)


def test_c6_stays_unknown():
    rep = classify(cycle(6))
    assert both(rep) == (U, U)
    assert rep.bic.certificate is None


def test_k4_coarse_noncommutative_only():
    rep = classify(complete(4))
    assert both(rep) == (C, NC)


def test_complete_bipartite_wide_side():
    rep = classify(complete_bipartite(4, 2))
    assert both(rep) == (NC, NC)
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    assert cert.sigma.cycles() == "(0 1)"
    assert cert.tau.cycles() == "(2 3)"


def test_complete_bipartite_narrow_sides():
    for m, n in ((2, 2), (2, 3), (3, 3), (1, 3)):
        rep = classify(complete_bipartite(m, n))
        assert rep.bic.status is C, (m, n)


def test_complete_bipartite_rule_misses_narrow_sides_on_its_own():
    # R-QFC settles these first; alone, R-KMN must miss rather than reach
    # for a fourth vertex on a side of three
    for m, n in ((2, 3), (3, 3), (1, 1)):
        g = complete_bipartite(m, n)
        miss = _kmn(_Ctx(g, _Shared(g, None)), TARGET_BIC)
        assert miss == "no side of four vertices", (m, n)


def test_star_four_rays_noncommutative():
    rep = classify(star(4))
    assert both(rep) == (NC, NC)


def test_fig7_small_blocks_both_targets():
    rep = classify(fig7_graph())
    assert both(rep) == (C, C)
    for v in (rep.bic, rep.ban):
        assert isinstance(v.certificate, SmallBlocks)
        assert v.certificate.blocks == ((0, 1), (2,), (3,), (4,), (5,))


def test_self_complementary_example_pair():
    rep = classify(sc_graph())
    assert both(rep) == (NC, NC)
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    # the graph's labels are 1-based, so this is (5 6),(7 8) in print form
    assert cert.sigma.cycles() == "(4 5)"
    assert cert.tau.cycles() == "(6 7)"


def test_cherry_free_tree_still_noncommutative():
    rep = classify(t0_graph())
    assert both(rep) == (NC, NC)
    assert isinstance(rep.bic.certificate, EdgeFreePair)


def test_two_cherries_tree():
    rep = classify(cherry2_graph())
    assert both(rep) == (NC, NC)
    cert = rep.bic.certificate
    assert cert.sigma.cycles() == "(2 3)"
    assert cert.tau.cycles() == "(4 5)"


def test_quadrangle_with_tails_family():
    for n in (2, 3, 4):
        rep = classify(c4pn_graph(n))
        assert rep.ban.status is NC, n
        cert = rep.ban.certificate
        assert isinstance(cert, DisjointPair)
        assert cert.sigma.cycles() == "(0 1)"  # the (a b) swap
        # the companion is the simultaneous mirror of all the tail pairs
        assert cert.tau.support() == frozenset(range(2, 2 * n + 2))
        assert rep.bic.status is U, n


def test_paths_are_rigid_forests():
    rep = classify(path(4))
    assert both(rep) == (C, C)
    assert isinstance(rep.bic.certificate, ForestNoDisjointPair)
    assert rep.bic.certificate.edge_free_only is True
    assert rep.ban.certificate.edge_free_only is False


def test_two_disjoint_edges():
    rep = classify(build(4, [(0, 1), (2, 3)]))
    assert both(rep) == (NC, NC)
    cert = rep.bic.certificate
    assert cert.sigma.cycles() == "(0 1)"
    assert cert.tau.cycles() == "(2 3)"


def test_edgeless_graphs():
    assert both(classify(edgeless(3))) == (C, C)
    assert both(classify(edgeless(4))) == (NC, NC)
    assert both(classify(edgeless(6))) == (NC, NC)


# ---------------------------------------------------------------------------
# provenance-gated rules, which certify pairs on the graph itself


def _verifies_without_provenance(g, verdict) -> bool:
    """``verdict`` verifies on ``g`` and on ``g`` rebuilt from its edges."""
    return verify_certificate(g, verdict) and verify_certificate(
        build(g.n, g.edges()), verdict
    )


def test_product_lift_fires_when_search_is_capped():
    # listing Aut of the product costs 1,176 nodes, of the factor only 252:
    # a budget of 1000 forces the engine to fall back to the provenance
    # rule, which lifts the factor's pair (σ, τ) to σ × id and τ × id
    t0 = t0_graph()
    g = cartesian(t0, complete(2))
    rep = classify(g, node_budget=1000)
    assert rep.bic.status is NC
    assert "bic R-PROD: fired (factor 0 of cartesian product)" in rep.trace
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    inner = classify(t0).bic.certificate
    for lifted, p in ((cert.sigma, inner.sigma), (cert.tau, inner.tau)):
        assert lifted.images == tuple(2 * p(i) + a for i in range(t0.n) for a in (0, 1))
    assert _verifies_without_provenance(g, rep.bic)
    assert any("abandoned" in note for note in rep.notes)


def test_corona_rule_fires_when_search_is_capped():
    # a 4-vertex path attachment leaves no twins anywhere, and the corona
    # has 2^18 automorphisms, so direct search cannot finish in budget; the
    # path's reversal acts on the copies at base vertices 0 and 1
    n = t0_graph().n
    g = corona(t0_graph(), path(3))
    rep = classify(g, node_budget=1000)
    assert rep.bic.status is NC
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    assert cert.sigma.cycles() == f"({n} {n + 3})({n + 1} {n + 2})"
    assert cert.tau.cycles() == f"({n + 4} {n + 7})({n + 5} {n + 6})"
    assert _verifies_without_provenance(g, rep.bic)


#: Factors for the product and corona sweep: trees without twins, a
#: cycle, a star and two small paths.
_LIFT_FACTORS = (t0_graph(), path(3), cycle(5), star(4), path(2), complete(2))


def test_lowered_product_and_corona_pairs_hold_on_the_bare_graph():
    # R-PROD and R-CORONA fire where the listing of Aut(G) is cut short.
    # Over every product and corona of two factors above at two budgets,
    # each pair they lower holds on the graph rebuilt from its edges and
    # passes the 2x2 oracle, and every lift is exercised: each factor of
    # each product, and factor 0 of a lexicographic product whose second
    # factor has an edge
    fired = set()
    for op in (cartesian, direct, strong, lexicographic, corona):
        for g1 in _LIFT_FACTORS:
            for g2 in _LIFT_FACTORS:
                g = op(g1, g2)
                for budget in (50, 1000):
                    rep = classify(g, node_budget=budget)
                    if rep.bic.citation is None or rep.bic.citation.rule not in (
                        "R-PROD", "R-CORONA"
                    ):
                        continue
                    cert = rep.bic.certificate
                    assert isinstance(cert, EdgeFreePair)
                    assert _verifies_without_provenance(g, rep.bic)
                    _pair_oracle(g, cert.sigma, cert.tau, fine=True)
                    line = next(line for line in rep.trace if ": fired" in line)
                    factor = line.split("factor ")[-1][:1] if "R-PROD" in line else ""
                    fired.add((op.__name__, factor, g2.edge_count > 0))
    lifts = {(kind, factor) for kind, factor, _ in fired}
    assert lifts >= {(kind, f) for kind in PRODUCT_KINDS for f in "01"}
    assert ("corona", "") in lifts
    assert ("lexicographic", "0", True) in fired


@pytest.mark.parametrize(
    "inner",
    [cartesian(t0_graph(), complete(2)), corona(t0_graph(), path(3))],
    ids=["product", "corona"],
)
def test_a_lift_of_a_lift_holds_on_the_bare_graph(inner):
    # the factor's own verdict comes from R-PROD or R-CORONA, and its
    # lowered pair is lifted once more
    g = cartesian(path(2), inner)
    rep = classify(g, node_budget=1000)
    assert "bic R-PROD: fired (factor 1 of cartesian product)" in rep.trace
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    assert _verifies_without_provenance(g, rep.bic)
    _pair_oracle(g, cert.sigma, cert.tau, fine=True)


def test_products_without_provenance_fall_back():
    # same adjacency as the capped cartesian case, but built from scratch
    g = cartesian(t0_graph(), complete(2))
    bare = build(g.n, g.edges())
    rep = classify(bare, node_budget=1000)
    assert rep.bic.status is U


#: The products whose search, not just the order charge, runs through the
#: default budget of ten million nodes (2-6 s each): their listing is
#: abandoned, so no shortcut can act on them; the budgets 50 and 1000
#: still sweep them.  None has a twin, so none is refused up front.
_SEARCH_EXHAUSTS_DEFAULT = {
    ("direct", 0, 0), ("direct", 2, 0), ("strong", 0, 0), ("strong", 2, 0),
}


@pytest.mark.parametrize("i", [0, 2], ids=["t0", "c5"])
def test_twin_classes_refuse_a_hopeless_listing_at_once(i):
    # K1,4's leaves make false-twin classes of four in the direct product:
    # they alone force 6.3e26 (t0) and 2.0e8 (C5) listing entries against
    # the default budget of 1e7, which the search used to spend 2-6 s on
    g = direct(_LIFT_FACTORS[i], star(4))
    with time_limit(0.1), pytest.raises(SizeLimitExceeded):
        automorphisms(g)


#: Attachments with no symmetry, on which R-CORONA misses after its own
#: search: K1, a tree on 7 vertices and a graph on 6.
_RIGID = (
    complete(1),
    build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]),
    build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)]),
)


def _shortcut_cases():
    """(graph, budget) for the shortcut oracle: at budgets None, 50 and
    1000, every product and corona of two lift factors and every corona
    of a lift factor with a rigid attachment; then the eight graphs of the
    symmetric benchmark and the first 500 0x5EED pool graphs."""
    for budget in (None, 50, 1000):
        for op in (cartesian, direct, strong, lexicographic, corona):
            for i, g1 in enumerate(_LIFT_FACTORS):
                for j, g2 in enumerate(_LIFT_FACTORS):
                    if budget is None and (op.__name__, i, j) in _SEARCH_EXHAUSTS_DEFAULT:
                        continue
                    yield op(g1, g2), budget
        for g1 in _LIFT_FACTORS:
            for g2 in _RIGID:
                yield corona(g1, g2), budget
    k33c4 = cartesian(complete_bipartite(3, 3), cycle(4))
    for g in (
        hypercube(3), hypercube(4), hypercube(5), cartesian(complete(4), complete(4)),
        k33c4, Graph(k33c4.adj), _petersen(), gallery("prism7"),
    ):
        yield g, None
    rng = SplitMix64(0x5EED)
    for _ in range(500):
        yield random_graph(rng), None


def _memoise(monkeypatch, name: str) -> None:
    """Replace ``qsym.classify.<name>``, a function of a graph, by one that
    computes each graph's value (or exception) once and replays it."""
    module = importlib.import_module("qsym.classify")
    real, seen = getattr(module, name), {}

    def memoised(g, *args, **kwargs):
        key = (g._bits, args, tuple(kwargs.items()))
        if key not in seen:
            try:
                seen[key] = real(g, *args, **kwargs)
            except SizeLimitExceeded as exc:
                seen[key] = exc
        if isinstance(seen[key], SizeLimitExceeded):
            raise seen[key]
        return seen[key]

    monkeypatch.setattr(module, name, memoised)


def test_listing_shortcuts_change_no_report(monkeypatch):
    # With a completed listing R-PROD and R-CORONA give their miss reason
    # at once, and R-BLOCKS reads a transitive listing's one block.  Off
    # (no rule sees a listing) and on, every classify and
    # classify_with_complement payload is the same.  Listings and sphere
    # blocks are memoised per graph, so both passes share them.
    for name in ("automorphisms", "sphere_blocks"):
        _memoise(monkeypatch, name)

    def payloads():
        out = []
        for g, budget in _shortcut_cases():
            for fn in (classify, classify_with_complement):
                payload = fn(g, node_budget=budget).payload()
                del payload["elapsed_ms"]
                out.append(payload)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(_Shared, "listed", property(lambda shared: None))
        off = payloads()
    transitive = []
    real_blocks = _Ctx.blocks.func

    def spying(ctx):
        part = real_blocks(ctx)
        if ctx.shared.listed is not None and ctx.shared.listed.transitive:
            transitive.append((ctx.g, ctx.g is ctx.shared.g, part))
        return part

    monkeypatch.setattr(_Ctx, "blocks", property(spying))
    assert payloads() == off
    # the shortcut block is the pattern's own, on G and on Gc
    assert {h.n for h, _, _ in transitive} >= {8, 10, 14, 16, 24, 32}
    assert {own for _, own, _ in transitive} == {True, False}
    for h, _, part in transitive:
        assert part == pattern_blocks(zero_pattern(h))


# ---------------------------------------------------------------------------
# transfers, complement handling, line graphs


def test_complement_settles_coarse_algebra():
    g = complement(path(4))
    rep = classify_with_complement(g)
    assert rep.bic.status is C
    assert rep.ban.status is C
    assert isinstance(rep.ban.certificate, QuadrangleFreeComplement)
    assert rep.bic_complement is not None
    assert rep.bic_complement.status is C
    # the coarse verdict carries the complement's fine certificate
    assert rep.ban.certificate.companion == rep.bic_complement.certificate
    assert _verifies_without_provenance(g, rep.ban)
    assert any("no quantum symmetry" in note for note in rep.notes)


def test_complement_report_on_self_complementary():
    rep = classify_with_complement(sc_graph())
    assert rep.bic.status is NC
    assert rep.bic_complement.status is NC


def _petersen():
    return build(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


def _counting(monkeypatch, name: str, module: str = "qsym.classify") -> list:
    """Replace ``<module>.<name>`` with a wrapper recording each call."""
    module = importlib.import_module(module)  # the package re-exports classify()
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_complement_pass_reuses_the_automorphism_group(monkeypatch):
    # Aut(G) = Aut(Gc): Q4's group is listed once, not again for Q4c
    # (built bare, so that R-PROD does not classify the factors too)
    q4 = hypercube(4)
    calls = _counting(monkeypatch, "automorphisms")
    rep = classify_with_complement(build(q4.n, q4.edges()))
    assert len(calls) == 1
    assert any(line.startswith("complement ban R-BAN-1: fired") for line in rep.trace)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(hypercube(3), id="Q3"),
        pytest.param(hypercube(4), id="Q4"),
        pytest.param(_petersen(), id="petersen"),
        # the fixed exhibits, then one member of each family
        *(
            pytest.param(gallery(name), id=name)
            for name in (
                "cherry2", "fig7", "sc", "t0",
                "k5", "c6", "p5", "k3_3", "star5", "prism4", "c4pn3",
            )
        ),
    ],
)
def test_reused_group_gives_the_complement_its_own_verdict(g):
    rep = classify_with_complement(g)
    own = classify(complement(g))
    assert rep.bic_complement.payload() == {
        **own.bic.payload(),
        "target": "bic_complement",
    }


def test_twin_decided_graphs_unpack_no_matrix(monkeypatch):
    # the pool graphs whose pair rules fire on twin swaps, with no
    # listing: Gc is made from G's bitmasks and no rule that runs reads
    # a matrix, so none is unpacked
    graphs_module = importlib.import_module("qsym.graphs")
    unpacked = []
    real = graphs_module._unpack_rows
    monkeypatch.setattr(
        graphs_module, "_unpack_rows", lambda bits: unpacked.append(bits) or real(bits)
    )
    listings = _counting(monkeypatch, "automorphisms")
    rng = SplitMix64(0x5EED)
    decided = 0
    for _ in range(300):
        g = random_graph(rng)
        listed, seen = len(listings), len(unpacked)
        rep = classify_with_complement(g)
        if len(listings) == listed and any(not isinstance(e, str) for e in rep.events):
            decided += 1
            assert len(unpacked) == seen
    assert decided > 100


def test_complement_pass_does_not_repeat_a_failed_search(monkeypatch):
    # Q4's listing needs 6,526 nodes and runs out at 1,000; Q4c's would
    # spend the same nodes, so it is abandoned without searching, with the
    # same note
    calls = _counting(monkeypatch, "automorphisms")
    rep = classify_with_complement(hypercube(4), node_budget=1000)
    assert sum(args[0].n == 16 for args in calls) == 1
    note = (
        "automorphism enumeration abandoned after 1000 search nodes; "
        "some rules were skipped"
    )
    assert rep.notes.count(note) == 2


_FACTS = {
    "contains_quadrangle": "quadrangle_free",
    "is_forest": "forest",
    "is_connected": "connected",
}


@pytest.mark.parametrize("name", ["fig7", "c64", "t0", "sc", "p48"])
def test_payload_works_out_each_graph_fact_once(monkeypatch, name):
    # the summary works out each of its graph facts on the first payload
    # only
    g = gallery(name)
    rep = classify_with_complement(g)
    calls = {fn: _counting(monkeypatch, fn) for fn in _FACTS}
    summary = rep.payload()["graph"]
    assert rep.payload()["graph"] == summary
    assert {fn: len(seen) for fn, seen in calls.items()} == {fn: 1 for fn in _FACTS}
    monkeypatch.undo()
    assert summary == {
        "n": g.n,
        "edges": g.edge_count,
        "degree_sequence": sorted(g.degree_sequence),
        "connected": is_connected(g),
        "quadrangle_free": not contains_quadrangle(g),
        "forest": is_forest(g),
    }


@pytest.mark.parametrize("name", ["fig7", "c64", "t0", "sc", "p48"])
def test_an_unread_report_works_out_no_summary_fact(monkeypatch, name):
    # the verdict rules use the forest test but never ask about
    # connectivity; the report adds no graph walk of its own
    calls = _counting(monkeypatch, "is_connected")
    classify(gallery(name))
    classify_with_complement(gallery(name))
    assert calls == []


def test_q6_coarse_algebra_is_decided_within_the_default_budget():
    # |Aut(Q6)| = 46,080: the listing fits the default budget, so the
    # disjoint-pair rule decides the coarse algebra
    g = hypercube(6)
    with time_limit(30):
        rep = classify_with_complement(g)
    assert rep.ban.status is NC
    assert isinstance(rep.ban.certificate, DisjointPair)
    assert verify_certificate(g, rep.ban)
    assert not any("abandoned" in note for note in rep.notes)


def test_one_zero_pattern_per_graph(monkeypatch):
    # both R-BLOCKS checks run on fig7, whose group is not transitive, and
    # share one walk of the spheres
    calls = _counting(monkeypatch, "_sphere_sets", "qsym.reduction")
    rep = classify(gallery("fig7"))
    assert calls == [(gallery("fig7"),)]
    assert sum("R-BLOCKS" in line for line in rep.trace) == 2


def test_a_transitive_listing_builds_no_zero_pattern(monkeypatch):
    # Aut(C16) is transitive, so no cell is forced: both R-BLOCKS checks
    # read the one block 0..15 and log what the pattern would give
    calls = _counting(monkeypatch, "_sphere_sets", "qsym.reduction")
    rep = classify(cycle(16))
    assert calls == []
    assert [line for line in rep.trace if "R-BLOCKS" in line] == [
        "bic R-BLOCKS: blocks too coarse (sizes [16])",
        "ban R-BLOCKS: blocks too coarse (sizes [16])",
    ]


@pytest.mark.parametrize("name", ["fig7", "sc", "t0", "c16", "p48", "c4pn20"])
def test_graph_pair_facts_are_worked_out_once(monkeypatch, name):
    # G and Gc share their twins; each graph's complement, quadrangle
    # test and forest test are computed once, whichever rule asks first
    counted = ("_twin_swaps", "complement", "contains_quadrangle", "is_forest")
    calls = {fn: _counting(monkeypatch, fn) for fn in counted}
    g = gallery(name)
    classify_with_complement(g)
    for fn, seen in calls.items():
        graphs_seen = collections.Counter(args[0] for args in seen)
        assert max(graphs_seen.values(), default=0) <= 1, fn
    twinned = {args[0] for args in calls["_twin_swaps"]}
    assert not any(complement(h) in twinned for h in twinned)


def test_twin_table_is_the_swaps_sorted_by_image_tuple():
    # one twin-swap table: twin_transpositions gives the images of
    # _Shared.twins, in its order, which is that of the image tuples
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(500)]
    extra = [complete(6), edgeless(6), star(5), complete_bipartite(3, 4), cycle(4)]
    extra += [gallery(name) for name in SPARSE_GALLERY]
    twinned = 0
    for g in (*kernel_corpus(), *pool, *extra, *map(complement, extra)):
        swaps = twin_transpositions(g)
        twins = _Shared(g, None).twins
        assert [p.images for p in swaps] == list(twins.values()), g
        assert [p.support_mask() for p in swaps] == list(twins), g
        assert swaps == sorted(swaps, key=lambda p: p.images), g
        twinned += bool(swaps)
    assert twinned > 300


def test_twin_table_equals_the_one_from_the_sorted_pair_list():
    # built from the twin classes, the table equals the one the (u, v)
    # pair list re-sorted by (-u, v) gave, entries and order, on the 4,000
    # 0x5EED pool graphs, their complements and the gallery
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(4000)]
    names = ("fig7", "sc", "t0", "cherry2", "c64", "p64", "c4pn30", "k3_12", "star20")
    extra = [gallery(name) for name in names]
    extra += [complete(70), edgeless(66), star(70)]
    for g in (*pool, *map(complement, pool), *extra, *map(complement, extra)):
        pairs = sorted(reference_twin_pairs(g), key=lambda uv: (-uv[0], uv[1]))
        want = [(1 << u | 1 << v, _swap_images(g.n, u, v)) for u, v in pairs]
        assert list(_Shared(g, None).twins.items()) == want, g


def test_fine_witness_comes_from_the_twin_swaps_before_the_listing():
    # 0..3 are twins and so are 4 and 5; the swap (4 5) meets every other
    # twin swap along an edge, so the twin scan gives (0 1), (2 3), where
    # the scan of the listing's minimal supports pairs (4 5) with C5's
    # reflection on 6..10
    g = build(11, [(a, b) for a in (4, 5) for b in range(4)] + [
        (6 + i, 6 + (i + 1) % 5) for i in range(5)
    ])
    rep = classify(g)
    cert = rep.bic.certificate
    assert rep.bic.citation.rule == R_BIC_1
    assert (cert.sigma.cycles(), cert.tau.cycles()) == ("(0 1)", "(2 3)")
    sigma, tau = find_edge_free_disjoint_pair(g)
    assert (sigma.cycles(), tau.cycles()) == ("(4 5)", "(7 10)(8 9)")


def test_coarse_witness_is_the_listing_scan_pair():
    # twin classes partition V, so a twin scan that finds a disjoint pair
    # finds the one the listing's minimal supports give
    rng = SplitMix64(0x5EED)
    pool = [random_graph(rng) for _ in range(500)]
    forests = (f for n in range(1, 10) for f in enumerate_forests(n))
    for g in (*pool, *map(complement, pool), *forests):
        ban = classify(g).ban
        if ban.citation is not None and ban.citation.rule == R_BAN_1:
            sigma, tau = find_disjoint_pair(g)
            assert (ban.certificate.sigma, ban.certificate.tau) == (sigma, tau), g


def test_the_graph_pair_keeps_no_group_alive(monkeypatch):
    # the two contexts refer to each other; with the cycle collector off,
    # the listing must still be freed when the call returns
    module = importlib.import_module("qsym.classify")
    real, listed = module.automorphisms, []

    def keep_weakly(*args, **kwargs):
        auts = real(*args, **kwargs)
        listed.append(weakref.ref(auts))
        return auts

    monkeypatch.setattr(module, "automorphisms", keep_weakly)
    gc.disable()
    try:
        classify_with_complement(cycle(9))
        classify(cycle(8))
    finally:
        gc.enable()
    assert len(listed) == 2
    assert all(ref() is None for ref in listed)


@pytest.mark.parametrize(
    "g, budget, line, rule, note, cert_type",
    [
        pytest.param(
            corona(path(1), cycle(5)), 100,
            "ban R-CHAIN: non-commutative via the fine algebra", "R-CHAIN",
            "transferred from the fine algebra", DisjointPair,
            id="chain-noncommutative",
        ),
        pytest.param(
            cycle(5), None,
            "ban R-QF: commutative via the fine algebra", "R-QF",
            "the algebras coincide on quadrangle-free graphs",
            QuadrangleFreeSelf,
            id="qf-commutative",
        ),
    ],
)
def test_transfer_steps_that_fire(g, budget, line, rule, note, cert_type):
    rep = classify(g, node_budget=budget)
    assert rep.trace[-1] == line
    assert rep.ban.citation.rule == rule
    assert rep.ban.note == note
    assert isinstance(rep.ban.certificate, cert_type)
    assert verify_certificate(g, rep.ban)


def _transferred(g, bic, ban):
    """``_transfer`` on ``g``'s own context with hand-built verdicts, and
    the trace it logs."""
    ctx = _Ctx(g, _Shared(g, None))
    return (*_transfer(ctx, bic, ban), ctx.trace)


def test_transfer_lifts_a_coarse_commutative_verdict_to_the_fine_algebra():
    g = fig7_graph()
    cert = SmallBlocks(((0, 1), (2,), (3,), (4,), (5,)))
    ban = Verdict("ban", C, cert, CITATIONS["R-BLOCKS"])
    bic, kept, trace = _transferred(g, Verdict("bic", U), ban)
    assert kept is ban
    assert (bic.target, bic.status, bic.certificate) == ("bic", C, cert)
    assert bic.citation.rule == "R-CHAIN"
    assert trace == ["bic R-CHAIN: commutative via the coarse algebra"]
    assert verify_certificate(g, bic)


def test_transfer_leaves_a_coarse_pair_to_the_fine_rules():
    # on a quadrangle-free graph R-BIC-1 has already found any pair that
    # R-BAN-1 finds (see the sweep below), so a hand-built coarse pair
    # carries nothing over: the fine verdict stays open
    g = star(4)
    ban = Verdict("ban", NC, DisjointPair(*find_disjoint_pair(g)))
    bic, _, trace = _transferred(g, Verdict("bic", U), ban)
    assert bic.status is U and trace == []
    # so does a graph with a quadrangle
    square = cycle(4)
    ban = Verdict("ban", NC, DisjointPair(*find_disjoint_pair(square)))
    bic, _, trace = _transferred(square, Verdict("bic", U), ban)
    assert bic.status is U and trace == []


def test_transfer_rewrites_an_edge_free_pair_for_the_coarse_algebra():
    g = star(4)
    sigma, tau = find_edge_free_disjoint_pair(g)
    bic = Verdict("bic", NC, EdgeFreePair(sigma, tau))
    kept, ban, trace = _transferred(g, bic, Verdict("ban", U))
    assert kept is bic
    assert ban.status is NC and ban.citation.rule == "R-CHAIN"
    assert ban.certificate == DisjointPair(sigma, tau)
    assert trace == ["ban R-CHAIN: non-commutative via the fine algebra"]
    assert verify_certificate(g, ban)


def test_transfer_refuses_inconsistent_verdicts():
    g = star(4)
    bic = Verdict("bic", NC, EdgeFreePair(*find_edge_free_disjoint_pair(g)))
    ban = Verdict("ban", C, SmallBlocks(((0,), (1, 2, 3, 4))))
    with pytest.raises(QsymError, match="inconsistent verdicts"):
        _transferred(g, bic, ban)


def test_corona_witness_is_read_from_the_listing(monkeypatch):
    # C5 has no twins, so R-CORONA lists Aut(C5); its witness is the
    # listing's second image tuple, with no element list built, and only
    # the two lifted swaps become Permutations
    built = []
    post_init = Permutation.__post_init__

    def counting(self):
        built.append(self.images)
        post_init(self)

    def no_elements(self):
        raise AssertionError("AutomorphismSet.elements read on the classify path")

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    monkeypatch.setattr(AutomorphismSet, "elements", property(no_elements))
    rep = classify(corona(path(1), cycle(5)), node_budget=100)
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    assert built == [cert.sigma.images, cert.tau.images]
    # base vertices 0 and 1, then the copies of C5 at 2..6 and 7..11
    assert cert.sigma.images[2:7] == tuple(2 + v for v in (0, 4, 3, 2, 1))
    assert cert.tau.images[7:] == tuple(7 + v for v in (0, 4, 3, 2, 1))


def test_no_classify_or_census_path_composes_the_full_listing(monkeypatch):
    # the rules read the support table, the order and the transitive flag,
    # and the census reads the supports and the chain's orbits: none of
    # them needs the listing itself, which is composed only when read
    def compose(self):
        raise AssertionError("the full listing was composed")

    monkeypatch.setattr(AutomorphismSet, "table", property(compose))
    k33c4 = cartesian(complete_bipartite(3, 3), cycle(4))
    cases = [
        hypercube(3), hypercube(4), hypercube(5), cartesian(complete(4), complete(4)),
        k33c4, Graph(k33c4.adj), _petersen(), gallery("prism7"),
        cartesian(t0_graph(), complete(2)), corona(t0_graph(), path(3)),
    ]
    for op in (cartesian, direct, strong, lexicographic, corona):
        cases += [op(g1, g2) for g1 in _LIFT_FACTORS[1:] for g2 in _LIFT_FACTORS[1:]]
    cases += [corona(g1, g2) for g1 in _LIFT_FACTORS[1:] for g2 in _RIGID]
    rules = set()
    for g in cases:
        rep = classify_with_complement(g)
        for verdict in (rep.bic, rep.ban, rep.bic_complement):
            if verdict.citation is not None:
                rules.add(verdict.citation.rule)
    assert {"R-CORONA", "R-PROD", "R-BIC-1", "R-BAN-1"} <= rules, rules
    result = check_forest_dichotomy(9)
    assert result.ok and result.row(9).forests == 153
    assert oracle_crosschecks(count=50).ok


def test_line_graph_cherry_shortcut():
    rep = classify(line_graph(cherry2_graph()))
    assert both(rep) == (NC, NC)
    cert = rep.bic.certificate
    assert isinstance(cert, EdgeFreePair)
    assert verify_certificate(rep.graph, rep.bic)
    assert rep.graph.n == cherry2_graph().edge_count


def test_two_cherry_centres_decide_the_line_graph_by_the_pair_rules():
    # cherries (v1, v2) at w and (v1', v2') at w' != w: the edges v1w and
    # v2w are twins in L(T), and so are v1'w' and v2'w', so the twin scan
    # finds two swaps with disjoint supports and no edge between them
    trees = [
        t
        for n in range(1, 12)
        for t in enumerate_trees(n)
        if len({c.w for c in find_cherries(t)}) >= 2
    ]
    assert len(trees) == 41
    for t in trees:
        rep = classify(line_graph(t))
        assert both(rep) == (NC, NC)
        assert (rep.bic.citation.rule, rep.ban.citation.rule) == (R_BIC_1, R_BAN_1)
        assert verify_certificate(rep.graph, rep.bic)
        assert verify_certificate(rep.graph, rep.ban)


def test_line_graph_single_center_not_shortcut():
    # three cherries, all centred at the hub: their twin swaps overlap
    rep = classify(line_graph(star(3)))
    assert rep.graph.n == 3  # the triangle
    assert both(rep) == (C, C)
    assert isinstance(rep.bic.certificate, SmallOrder)


def test_line_graph_of_quiet_tree():
    rep = classify(line_graph(path(4)))
    assert both(rep) == (C, C)


# ---------------------------------------------------------------------------
# budget degradation


def test_budget_collapse_to_unknown():
    rep = classify(c4pn_graph(2), node_budget=2)
    assert both(rep) == (U, U)
    assert any("abandoned" in note for note in rep.notes)
    assert any("skipped" in line for line in rep.trace)


def _twinned_attachments():
    """Attachments with a twin pair: the forests with n <= 5 and the
    first 0x5EED pool graphs that have one."""
    rng = SplitMix64(0x5EED)
    pool = (random_graph(rng) for _ in range(40))
    candidates = [*(f for n in range(2, 6) for f in enumerate_forests(n)), *pool]
    return [h for h in candidates if twin_transpositions(h)]


def test_corona_rule_is_never_reached_with_a_twinned_attachment():
    # a twin pair of the attachment has copies at base vertices 0 and 1
    # that are twin pairs of G, disjoint and joined by no edge, so the
    # pair rule's twin scan, which charges no budget, fires first
    attachments = _twinned_attachments()
    assert len(attachments) >= 20
    for base in (complete(2), path(2), cycle(5), t0_graph()):
        for h in attachments:
            g = corona(base, h)
            for budget in (0, 50, None):
                rep = classify(g, node_budget=budget)
                assert rep.bic.status is NC
                assert rep.bic.citation.rule in ("R-KMN", R_BIC_1)
                assert not any("R-CORONA" in line for line in rep.trace)


def test_zero_budget_also_caps_the_corona_search():
    # C5 has no twins, so the corona rule must search for its witness,
    # and a budget of 0 allows no search at all
    rep = classify(corona(path(1), cycle(5)), node_budget=0)
    assert "attachment symmetry search abandoned (budget)" in rep.notes
    assert rep.bic.status is U
    assert not any("R-CORONA: fired" in line for line in rep.trace)


# ---------------------------------------------------------------------------
# verdict construction rules


def test_unknown_verdict_rejects_certificate():
    with pytest.raises(QsymError):
        Verdict("bic", Status.UNKNOWN, SmallOrder(2))


def test_determined_verdict_requires_certificate():
    with pytest.raises(QsymError):
        Verdict("bic", Status.COMMUTATIVE)


def test_report_payload_shape():
    rep = classify_with_complement(cycle(4))
    doc = rep.payload()
    assert set(doc["verdicts"]) == {"bic", "ban", "bic_complement"}
    assert doc["graph"]["n"] == 4
    assert doc["verdicts"]["ban"]["certificate"]["kind"] == "disjoint-pair"
    assert "statement" in doc["verdicts"]["bic"]["citation"]
    assert isinstance(doc["trace"], list) and doc["trace"]


# ---------------------------------------------------------------------------
# certificate re-verification


@pytest.mark.parametrize("g", small_corpus(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_certificates_reverify_on_corpus(g):
    rep = classify(g)
    for v in (rep.bic, rep.ban):
        assert verify_certificate(g, v), (v.target, v.status, v.certificate)


def test_wrong_certificates_are_rejected():
    g = cycle(4)
    swap01 = classify(build(4, [(0, 1), (2, 3)])).bic.certificate
    # (0 1) is not an automorphism of C4
    assert not verify_certificate(g, Verdict("bic", NC, swap01))
    assert not verify_certificate(g, Verdict("bic", C, SmallOrder(4)))
    assert not verify_certificate(g, Verdict("bic", C, QuadrangleFreeSelf()))
    assert not verify_certificate(
        g, Verdict("bic", C, SmallBlocks(((0,), (1,), (2,), (3,))))
    )


def test_strip_certificate_verifies_chain():
    rep = classify(build(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]))
    # wheel-ish graph: apex 0 dominates; behaviour depends on the chain
    if isinstance(rep.bic.certificate, StripToCommutative):
        assert verify_certificate(rep.graph, rep.bic)


# ---------------------------------------------------------------------------
# certificate kinds and their serialised form


def _schema_kinds() -> set[str]:
    """Every certificate ``kind`` the report schema admits."""
    defs = report_schema()["$defs"]
    kinds = set()
    for ref in defs["certificate"]["oneOf"]:
        kind = defs[ref["$ref"].rsplit("/", 1)[1]]["properties"]["kind"]
        kinds.update(kind["enum"] if "enum" in kind else [kind["const"]])
    return kinds


def _certificate_classes(cls=Certificate):
    for sub in cls.__subclasses__():
        yield sub
        yield from _certificate_classes(sub)


#: One graph per certificate kind, classified with its complement, at the
#: given node budget.
_PRODUCER_CASES = [
    (cycle(4), None),  # disjoint-pair, edge-free-pair, quadrangle-free-complement
    (cycle(5), None),  # quadrangle-free
    (path(4), None),  # forest-no-disjoint-pair
    (complete(3), None),  # small-order
    (build(4, [(0, 1), (0, 3), (1, 3)]), None),  # small-blocks
    (build(6, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 5), (3, 5), (4, 5)]), None),  # strip
    (cartesian(t0_graph(), complete(2)), 1000),  # R-PROD's edge-free-pair
    (corona(t0_graph(), path(3)), 1000),  # R-CORONA's edge-free-pair
]


def test_every_schema_kind_has_a_producer():
    produced = set()
    for g, budget in _PRODUCER_CASES:
        rep = classify_with_complement(g, node_budget=budget)
        for v in (rep.bic, rep.ban, rep.bic_complement):
            if v.certificate is not None:
                produced.add(v.certificate.kind)
    assert produced == _schema_kinds()


def test_every_certificate_class_has_a_schema_kind():
    kinds = {
        f.default
        for cls in _certificate_classes()
        for f in dataclasses.fields(cls)
        if f.name == "kind"
    }
    assert kinds == _schema_kinds()


_S01 = Permutation((1, 0, 2, 3))
_S23 = Permutation((0, 1, 3, 2))
_S01_TEXT = '{"images": [1, 0, 2, 3], "cycles": "(0 1)"}'
_S23_TEXT = '{"images": [0, 1, 3, 2], "cycles": "(2 3)"}'


#: One certificate per kind and its exact JSON text: ``kind`` first, then
#: the fields in declaration order; a None ``companion`` is left out, a
#: false ``edge_free_only`` kept, and nested certificates inlined.
_PAYLOAD_CASES = [
    (
        DisjointPair(_S01, _S23),
        f'{{"kind": "disjoint-pair", "sigma": {_S01_TEXT}, "tau": {_S23_TEXT}}}',
    ),
    (
        EdgeFreePair(_S23, _S01),
        f'{{"kind": "edge-free-pair", "sigma": {_S23_TEXT}, "tau": {_S01_TEXT}}}',
    ),
    (SmallOrder(3), '{"kind": "small-order", "n": 3}'),
    (QuadrangleFreeComplement(), '{"kind": "quadrangle-free-complement"}'),
    (QuadrangleFreeSelf(), '{"kind": "quadrangle-free"}'),
    (
        QuadrangleFreeSelf(companion=SmallOrder(2)),
        '{"kind": "quadrangle-free", "companion": {"kind": "small-order", "n": 2}}',
    ),
    (
        ForestNoDisjointPair(edge_free_only=False),
        '{"kind": "forest-no-disjoint-pair", "edge_free_only": false}',
    ),
    (
        StripToCommutative(((0,), (4, 5)), SmallOrder(3)),
        '{"kind": "strip", "chain": [[0], [4, 5]], '
        '"terminal": {"kind": "small-order", "n": 3}}',
    ),
    (
        SmallBlocks(((0,), (1, 2, 3))),
        '{"kind": "small-blocks", "blocks": [[0], [1, 2, 3]]}',
    ),
]


@pytest.mark.parametrize(
    "cert, text", _PAYLOAD_CASES, ids=[cert.kind for cert, _ in _PAYLOAD_CASES]
)
def test_certificate_payload_bytes(cert, text):
    assert json.dumps(cert.payload()) == text
    assert cert.payload() == json.loads(text)  # tuples become lists


def test_report_cycles_use_labels_only_on_a_permutation_of_every_point():
    # the labels name C5's five points: the wrapped pair acts on all five
    # and prints them, the strip's nested pair acts on four points and
    # keeps its indices, as do the image arrays everywhere
    g = build(5, cycle(5).edges(), labels="abcde")
    flip = Permutation((0, 4, 3, 2, 1))
    nested = StripToCommutative(((4,),), DisjointPair(_S01, _S23))
    rep = Report(
        graph=g,
        bic=Verdict("bic", NC, QuadrangleFreeSelf(companion=EdgeFreePair(flip, flip))),
        ban=Verdict("ban", C, nested),
        bic_complement=None,
        events=(),
        notes=(),
        elapsed_ms=0.0,
    )
    doc = rep.payload()["verdicts"]
    pair = doc["bic"]["certificate"]["companion"]
    assert pair["sigma"] == {"images": [0, 4, 3, 2, 1], "cycles": "(b e)(c d)"}
    assert doc["ban"]["certificate"] == nested.payload()
    assert doc["ban"]["certificate"]["terminal"]["sigma"]["cycles"] == "(0 1)"


def test_quadrangle_free_complement_payload_inlines_its_companion():
    cert = QuadrangleFreeComplement(companion=SmallOrder(3))
    text = (
        '{"kind": "quadrangle-free-complement", '
        '"companion": {"kind": "small-order", "n": 3}}'
    )
    assert json.dumps(cert.payload()) == text


def test_a_bare_quadrangle_free_complement_does_not_settle_the_coarse_algebra():
    # K4's complement is a perfect matching, which is quadrangle-free, so
    # K4's fine algebra is commutative; its coarse algebra is C(S4+),
    # which is not, and the bare certificate must not claim it is
    k4 = complete(4)
    bare = QuadrangleFreeComplement()
    assert verify_certificate(k4, Verdict("bic", C, bare))
    assert not verify_certificate(k4, Verdict("ban", C, bare))
    # carrying the complement's fine certificate, it settles the coarse
    # algebra; a companion that does not hold on the complement, or
    # that shows no commutative fine algebra, does not
    g = complement(path(4))
    companion = classify(complement(g)).bic.certificate
    assert verify_certificate(
        g, Verdict("ban", C, QuadrangleFreeComplement(companion=companion))
    )
    assert not verify_certificate(
        g, Verdict("ban", C, QuadrangleFreeComplement(companion=SmallOrder(3)))
    )
    assert not verify_certificate(
        g, Verdict("ban", C, QuadrangleFreeComplement(companion=DisjointPair(_S01, _S23)))
    )


def test_reports_with_lowered_pairs_or_companions_match_the_schema():
    # the producers' lowered pairs, and every coarse verdict in the sweep
    # that carries the complement's fine certificate
    schema, checked = report_schema(), 0
    for g, rep in _sweep_reports():
        cert = rep.ban.certificate
        if isinstance(cert, QuadrangleFreeComplement) or rep.graph.provenance:
            doc = {"version": "0.0.0", "input": {"source": "sweep"}, **rep.payload()}
            jsonschema.validate(json.loads(json.dumps(doc)), schema)
            checked += cert is not None and "companion" in cert.payload()
    assert checked >= 3


def test_edge_free_pair_rejects_supports_joined_by_an_edge():
    # C4's swaps (0 2) and (1 3) are disjoint, but every edge joins them
    g = cycle(4)
    sigma, tau = Permutation((2, 1, 0, 3)), Permutation((0, 3, 2, 1))
    assert verify_certificate(g, Verdict("ban", NC, DisjointPair(sigma, tau)))
    assert not verify_certificate(g, Verdict("bic", NC, EdgeFreePair(sigma, tau)))


def test_a_certificate_must_support_the_verdicts_status():
    # C4's coarse verdict rests on a disjoint pair: that shows the coarse
    # algebra non-commutative, but neither a commutative algebra nor,
    # with an edge joining the supports, a non-commutative fine one
    g = cycle(4)
    ban = classify(g).ban
    assert (ban.status, ban.certificate.kind) == (NC, "disjoint-pair")
    assert verify_certificate(g, ban)
    assert not verify_certificate(g, dataclasses.replace(ban, status=C))
    assert not verify_certificate(g, Verdict("bic", NC, ban.certificate))
    # under a quadrangle-free wrapper the companion's status is what counts
    c5 = cycle(5)
    small = QuadrangleFreeSelf(companion=SmallBlocks(((0,), (1,), (2,), (3,), (4,))))
    assert not verify_certificate(c5, Verdict("ban", NC, small))
    # no edge-free disjoint pair in a forest settles only the fine algebra
    k2 = path(1)
    no_edge_free = ForestNoDisjointPair(edge_free_only=True)
    assert verify_certificate(k2, Verdict("bic", C, no_edge_free))
    assert not verify_certificate(k2, Verdict("ban", C, no_edge_free))
    # stripping preserves the fine algebra only
    h = build(6, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 5), (3, 5), (4, 5)])
    strip = classify(h).bic
    assert isinstance(strip.certificate, StripToCommutative)
    assert verify_certificate(h, strip)
    assert not verify_certificate(h, dataclasses.replace(strip, target="ban"))


def _sweep_cases() -> list:
    """(graph, budget): the first 500 0x5EED pool graphs, the 308 forests
    with n <= 9 and the sparse gallery at the default budget, then the
    certificate producers."""
    rng = SplitMix64(0x5EED)
    cases = [(random_graph(rng), None) for _ in range(500)]
    cases += [(f, None) for n in range(1, 10) for f in enumerate_forests(n)]
    cases += [(gallery(name), None) for name in SPARSE_GALLERY]
    return cases + _PRODUCER_CASES


_RULES = sorted({rule for pipeline in _PIPELINES.values() for rule, _ in pipeline})


@pytest.mark.parametrize(
    "removed", [(rule,) for rule in _RULES] + [(R_BIC_1, R_BAN_1)], ids="+".join
)
def test_every_rule_stands_alone(monkeypatch, removed):
    # with any rule taken out, or both pair rules, the others raise nothing
    # and every verdict they decide has a certificate that verifies: no
    # rule leans on an earlier rule's miss
    pipelines = {
        t: tuple((rule, find) for rule, find in pipeline if rule not in removed)
        for t, pipeline in _PIPELINES.items()
    }
    monkeypatch.setattr(importlib.import_module("qsym.classify"), "_PIPELINES", pipelines)
    rng = SplitMix64(0x5EED)
    cases = [random_graph(rng) for _ in range(200)]
    cases += [f for n in range(1, 10) for f in enumerate_forests(n)]
    decided = 0
    for g in cases:
        rep = classify_with_complement(g)
        for h, verdict in ((g, rep.bic), (g, rep.ban), (complement(g), rep.bic_complement)):
            if verdict.status is not U:
                assert verify_certificate(h, verdict), (removed, g.edges(), verdict)
                decided += 1
    assert decided > 800


@functools.cache
def _sweep_reports() -> tuple:
    """(graph, report) for ``classify_with_complement`` on the sweep."""
    return tuple(
        (g, classify_with_complement(g, node_budget=budget))
        for g, budget in _sweep_cases()
    )


def test_on_quadrangle_free_graphs_the_fine_pair_rule_fires_with_the_coarse_one():
    # why _transfer carries no coarse pair over to the fine algebra: on a
    # quadrangle-free G or Gc of the sweep, at any budget, wherever
    # R-BAN-1 fires the fine pipeline decides NonCommutative too, and
    # R-BIC-1's witnesses are R-BAN-1's
    same = 0
    for g, _ in _sweep_cases():
        for budget in (0, 3, 20, 100, None):
            ctx = _Ctx(g, _Shared(g, budget))
            for c in (ctx, ctx.complement):
                if not c.quadrangle_free:
                    continue
                bic, ban = _run(c, TARGET_BIC), _run(c, TARGET_BAN)
                if ban.status is not NC:
                    continue
                assert bic.status is NC, (g, budget, c.trace)
                if bic.citation.rule == R_BIC_1:
                    fine, coarse = bic.certificate, ban.certificate
                    assert (fine.sigma, fine.tau) == (coarse.sigma, coarse.tau)
                    same += 1
    assert same > 2000


def _status_sweep():
    """(graph, verdict) for every decided verdict of the sweep's reports;
    ``bic_complement`` goes with the complement."""
    for g, rep in _sweep_reports():
        for verdict, h in (
            (rep.bic, g), (rep.ban, g), (rep.bic_complement, complement(g))
        ):
            if verdict.status is not U:
                yield h, verdict


def test_flipping_a_decided_status_is_rejected():
    flip = {C: NC, NC: C}
    kinds = set()
    for h, verdict in _status_sweep():
        assert verify_certificate(h, verdict), verdict
        flipped = dataclasses.replace(verdict, status=flip[verdict.status])
        assert not verify_certificate(h, flipped), flipped
        kinds.add(verdict.certificate.kind)
    assert kinds == {kind.kind for kind in _KINDS}


def _settled(fine: Status, coarse: Status) -> dict[str, Status]:
    """The statuses that decided fine and coarse verdicts settle, closed
    under the quotient map: a non-commutative fine algebra makes the
    coarse one non-commutative, and a commutative coarse algebra makes
    the fine one commutative."""
    if fine is NC and coarse is U:
        coarse = NC
    if coarse is C and fine is U:
        fine = C
    return {TARGET_BIC: fine, TARGET_BIC_COMPLEMENT: fine, TARGET_BAN: coarse}


def test_no_certificate_verifies_a_claim_that_contradicts_a_verdict():
    # every certificate produced for G or Gc is tried on every (target,
    # status) claim about either graph: none may verify a claim against a
    # decided verdict, and each verifies alike on the graph rebuilt from
    # its edges, with no labels and no provenance
    flip = {C: NC, NC: C}
    claims = [(t, s) for t in _settled(U, U) for s in (C, NC)]
    accepted = 0
    for g, rep in _sweep_reports():
        verdicts = (rep.bic, rep.ban, rep.bic_complement)
        certs = [v.certificate for v in verdicts if v.certificate is not None]
        for h, fine in ((g, rep.bic.status), (complement(g), rep.bic_complement.status)):
            settled = _settled(fine, rep.ban.status)  # ban(Gc) = ban(G)
            bare = build(h.n, h.edges())
            for cert in certs:
                for target, status in claims:
                    claim = Verdict(target, status, cert)
                    ok = verify_certificate(h, claim)
                    assert verify_certificate(bare, claim) is ok, (claim, h)
                    assert not (ok and settled[target] is flip[status]), (claim, h)
                    accepted += ok
    assert accepted > 3000


#: Every certificate kind.
_KINDS = (
    DisjointPair, EdgeFreePair, SmallOrder, QuadrangleFreeComplement,
    QuadrangleFreeSelf, ForestNoDisjointPair, StripToCommutative, SmallBlocks,
)

#: The claim each kind stood behind before the kinds stated their own:
#: the checker's table and its type cascade, kept as the reference.
_REF_STATUS = {
    "disjoint-pair": NC,
    "edge-free-pair": NC,
    "small-order": C,
    "quadrangle-free-complement": C,
    "forest-no-disjoint-pair": C,
    "strip": C,
    "small-blocks": C,
}


def _ref_entails(cert, target, status) -> bool:
    if target not in (TARGET_BIC, TARGET_BAN, TARGET_BIC_COMPLEMENT):
        return False
    if isinstance(cert, QuadrangleFreeSelf):
        return any(_ref_entails(cert.companion, t, status) for t in (TARGET_BIC, TARGET_BAN))
    if _REF_STATUS.get(getattr(cert, "kind", None)) is not status:
        return False
    fine = target != TARGET_BAN
    if isinstance(cert, DisjointPair):
        return not fine
    if isinstance(cert, ForestNoDisjointPair):
        return fine or not cert.edge_free_only
    if isinstance(cert, QuadrangleFreeComplement):
        return fine or _ref_entails(cert.companion, TARGET_BIC, status)
    if isinstance(cert, StripToCommutative):
        return fine and _ref_entails(cert.terminal, TARGET_BIC, status)
    return True


def _claim_cases():
    """(graph, certificate): every decided certificate of the sweep on its
    graph; then, on a few graphs of order 4 or 5, each bare kind, and
    each kind and None under each of the three wrappers (the strip's
    chain is that of the star, whose core is three isolated points)."""
    for h, verdict in _status_sweep():
        yield h, verdict.certificate
    bare = (
        DisjointPair(_S01, _S23), EdgeFreePair(_S01, _S23), SmallOrder(4),
        QuadrangleFreeComplement(), QuadrangleFreeSelf(),
        ForestNoDisjointPair(), ForestNoDisjointPair(edge_free_only=True),
        StripToCommutative(((0,),), SmallOrder(3)), SmallBlocks(((0,), (1,), (2,), (3,))),
    )
    star3 = build(4, [(0, 1), (0, 2), (0, 3)])
    for h in (complete(4), build(4, [(0, 1), (2, 3)]), cycle(4), star3, path(3), cycle(5)):
        for member in (*bare, None):
            if member is not None:
                yield h, member
            yield h, QuadrangleFreeComplement(companion=member)
            yield h, QuadrangleFreeSelf(companion=member)
            yield h, StripToCommutative(((0,),), member)


def test_each_kind_states_the_claim_the_reference_gives_it():
    # every certificate, on every target (two of them none of the three)
    # and with every status, is accepted exactly when the reference
    # entails the claim and the certificate holds
    targets = (TARGET_BIC, TARGET_BAN, TARGET_BIC_COMPLEMENT, "BAN", "")
    outcomes = collections.Counter()
    for h, cert in _claim_cases():
        for target in targets:
            for status in (C, NC, U):
                claim = SimpleNamespace(target=target, status=status, certificate=cert)
                expected = _ref_entails(cert, target, status) and cert.holds(h)
                assert verify_certificate(h, claim) is expected, (claim, h)
                outcomes[expected] += 1
    assert outcomes[True] > 3000 and outcomes[False] > 30000, outcomes


_TWO = 2 * np.eye(2, dtype=np.int64)
_TWO_P = np.array([[2, 0], [0, 0]])  # 2p, p the projection onto (1, 0)
_TWO_Q = np.array([[1, 1], [1, 1]])  # 2q, q the projection onto (1, 1)


def _pair_oracle(g, sigma, tau, fine: bool) -> None:
    """Check a pair by an exact representation on 2x2 matrices.

    u_{i,σ(i)} = p and u_ii = 1 - p on supp σ, q and 1 - q the same way
    on supp τ, and 1 on the diagonal elsewhere.  u must be a magic
    unitary (each entry a projection, each row and column summing to 1)
    with uA = Au; with ``fine`` it must also satisfy Bichon's relations
    u_ij u_kl = u_kl u_ij for i ~ k and j ~ l.  As pq != qp, the algebra
    then has a non-commutative representation.  The arrays hold 2u, so
    they are integers, and E = 2e is twice a projection when E² = 2E."""
    n, adj = g.n, g.adj.astype(np.int64)
    u = np.zeros((n, n, 2, 2), dtype=np.int64)
    u[range(n), range(n)] = _TWO
    moved = []
    for perm, e in ((sigma, _TWO_P), (tau, _TWO_Q)):
        for i in perm.support():
            u[i, perm(i)], u[i, i] = e, _TWO - e
            moved += [(i, perm(i)), (i, i)]
    assert (u == u.transpose(0, 1, 3, 2)).all()
    assert (u @ u == 2 * u).all()
    assert (u.sum(axis=0) == _TWO).all() and (u.sum(axis=1) == _TWO).all()
    # uA = Au as four n x n products, one per matrix entry; float64 holds
    # these small integer sums exactly and multiplies them fast
    entrywise, fadj = u.transpose(2, 3, 0, 1).astype(float), g.adj.astype(float)
    assert (entrywise @ fadj == fadj @ entrywise).all()
    s, t = min(sigma.support()), min(tau.support())
    x, y = u[s, sigma(s)], u[t, tau(t)]
    assert (x @ y != y @ x).any()
    if fine:
        # every other entry is 0 or 1, which commutes with everything
        rows, cols = np.array(moved).T
        left, right = np.nonzero(adj[np.ix_(rows, rows)] & adj[np.ix_(cols, cols)])
        x, y = u[rows[left], cols[left]], u[rows[right], cols[right]]
        assert (x @ y == y @ x).all()


def test_pair_verdicts_pass_the_2x2_oracle():
    # every pair the sweep certifies, bare or under a quadrangle-free
    # wrapper, on the algebra its verdict names
    checked = 0
    for h, verdict in _status_sweep():
        cert = verdict.certificate
        if isinstance(cert, QuadrangleFreeSelf):
            cert = cert.companion
        if isinstance(cert, (DisjointPair, EdgeFreePair)):
            _pair_oracle(h, cert.sigma, cert.tau, fine=verdict.target != TARGET_BAN)
            checked += 1
    assert checked > 500


def test_the_oracle_refuses_a_pair_joined_by_an_edge():
    # C4's (0 2) and (1 3) are disjoint but every edge joins them: the
    # coarse relations hold, Bichon's do not
    g = cycle(4)
    sigma, tau = Permutation((2, 1, 0, 3)), Permutation((0, 3, 2, 1))
    _pair_oracle(g, sigma, tau, fine=False)
    with pytest.raises(AssertionError):
        _pair_oracle(g, sigma, tau, fine=True)


# ---------------------------------------------------------------------------
# engine-wide properties


@given(graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_never_inconsistent_and_always_verifiable(g):
    rep = classify(g)
    assert not (rep.bic.status is NC and rep.ban.status is C)
    for v in (rep.bic, rep.ban):
        assert verify_certificate(g, v)


@given(graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_quadrangle_free_targets_agree(g):
    if contains_quadrangle(g):
        return
    rep = classify(g)
    if U not in both(rep):
        assert rep.bic.status is rep.ban.status


@given(graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_forests_always_resolve(g):
    from qsym.graphs import is_forest

    if not is_forest(g):
        return
    rep = classify(g)
    assert U not in both(rep)


# ---------------------------------------------------------------------------
# the direct K_{m,n} check against the 2-colouring it replaced


def reference_complete_bipartite_parts(g):
    """2-colour from vertex 0 by graph search; accept a connected
    bipartite graph with both sides non-empty and every cross pair an
    edge."""
    n = g.n
    if n < 2:
        return None
    color = [-1] * n
    color[0] = 0
    queue = [0]
    seen = 1
    while queue:
        v = queue.pop()
        for u in g.neighbors(v):
            if color[u] == -1:
                color[u] = 1 - color[v]
                seen += 1
                queue.append(u)
            elif color[u] == color[v]:
                return None
    if seen != n:
        return None
    side_a = tuple(v for v in range(n) if color[v] == 0)
    side_b = tuple(v for v in range(n) if color[v] == 1)
    if not side_a or not side_b or g.edge_count != len(side_a) * len(side_b):
        return None
    return side_a, side_b


def test_complete_bipartite_parts_equal_the_reference():
    rng = random.Random(0x5EED)
    found = 0
    for g in kernel_corpus():
        for h in (g, relabelled(g, rng)[0]):
            want = reference_complete_bipartite_parts(h)
            assert _complete_bipartite_parts(h) == want
            found += want is not None
    assert found >= 50

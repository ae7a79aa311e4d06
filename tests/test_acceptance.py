"""The release gate.

Eleven end-to-end criteria, each with a hard wall-clock limit.  Every
test prints exactly one ``[PASS]``/``[FAIL]`` line so a log scrape shows
the whole gate at a glance.  None of these may be weakened: a criterion
that cannot be met honestly stays red.
"""

from __future__ import annotations

import json
import time

import jsonschema

from qsym import (
    Status,
    build,
    classify,
    classify_with_complement,
    complement,
    complete,
    complete_bipartite,
    cycle,
    path,
)
from qsym.automorphisms import (
    Permutation,
    automorphisms,
    find_edge_free_disjoint_pair,
    is_automorphism,
)
from qsym.census import (
    SplitMix64,
    check_forest_dichotomy,
    oracle_crosschecks,
)
from qsym.cli import report_schema
from qsym.construct import build_free, build_wreath, replay
from qsym.formats import parse_graph, write_graph
from qsym.gallery import gallery
from qsym import are_isomorphic
from qsym.graphs import Graph, contains_quadrangle
from qsym.products import (
    PRODUCT_KINDS,
    cartesian,
    corona,
    corona_counts,
    direct,
    edge_rule_product,
    lexicographic,
    strong,
)
from qsym.pattern import zero_pattern
from qsym.reduction import strip_high_degree_fixpoint

from .conftest import small_corpus

_FORMULA = {
    "cartesian": cartesian,
    "direct": direct,
    "strong": strong,
    "lexicographic": lexicographic,
}


def _gate(label: str, limit_s: float, body) -> None:
    """Run one criterion, print its verdict line, enforce the limit."""
    t0 = time.perf_counter()
    try:
        body()
    except Exception as exc:
        elapsed = time.perf_counter() - t0
        print(f"[FAIL] {label} ({elapsed:.2f}s): {exc}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert ok, f"{label}: {elapsed:.2f}s exceeded the {limit_s:g}s limit"


def test_01_complete_bipartite_grid():
    def body():
        for m in range(1, 7):
            for n in range(m, 7):
                verdict = classify(complete_bipartite(m, n)).bic
                assert verdict.status is not Status.UNKNOWN, f"K_{m},{n} undetermined"
                expect = Status.NONCOMMUTATIVE if n >= 4 else Status.COMMUTATIVE
                assert verdict.status is expect, (
                    f"K_{m},{n}: got {verdict.status.value}, expected {expect.value}"
                )

    _gate("1. complete-bipartite verdict grid, both sides to 6", 10.0, body)


def test_02_pair_search_on_squares_and_complements():
    def body():
        for g in (complete(4), cycle(4)):
            assert find_edge_free_disjoint_pair(g) is None
        for g in (complement(complete(4)), complement(cycle(4))):
            pair = find_edge_free_disjoint_pair(g)
            assert pair is not None
            sigma, tau = pair
            assert is_automorphism(g, sigma) and is_automorphism(g, tau)
            assert not sigma.is_identity and not tau.is_identity
            assert not (sigma.support() & tau.support())
            assert not any(
                g.adj[u, v] for u in sigma.support() for v in tau.support()
            )

    _gate("2. pair search present/absent on 4-vertex families", 1.0, body)


def test_03_forest_dichotomy_sweep():
    def body():
        result = check_forest_dichotomy(9)
        assert result.ok, result.violations[:3]
        assert result.rows[-1].forests == 153

    _gate("3. forest dichotomy, all forests to 9 vertices", 300.0, body)


def test_04_product_formula_oracle():
    def body():
        rng = SplitMix64(0xACCE5)

        def draw() -> Graph:
            n = 2 + rng.below(6)  # 2..7
            density = rng.unit()
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.unit() < density
            ]
            return build(n, edges)

        for _ in range(200):
            g1, g2 = draw(), draw()
            for kind in PRODUCT_KINDS:
                assert _FORMULA[kind](g1, g2) == edge_rule_product(kind, g1, g2)
            built = corona(g1, g2)
            n, m = g1.n, g2.n
            vertices, edges = corona_counts(g1, g2)
            assert built.n == vertices == n * (1 + m)
            assert built.edge_count == edges
            assert edges == g1.edge_count + n * g2.edge_count + n * m

    _gate("4. product formulas vs edge rules, 200 seeded pairs", 30.0, body)


def test_05_forced_zero_soundness():
    def body():
        checked = 0
        for g in small_corpus():
            if g.n > 8:
                continue
            forced = zero_pattern(g).forced
            for p in automorphisms(g).elements:
                for j in range(g.n):
                    assert not forced[p(j), j], (
                        f"n={g.n}: cell ({p(j)},{j}) forced against {p.cycles()}"
                    )
            checked += 1
        assert checked >= 25

    _gate("5. forced-zero soundness against enumerated symmetries", 120.0, body)


def test_06_block_reduction_worked_example():
    def body():
        g = gallery("fig7")
        verdict = classify(g).bic
        assert verdict.status is Status.COMMUTATIVE
        assert verdict.certificate.kind in ("small-blocks", "strip")
        stripped, chain = strip_high_degree_fixpoint(g)
        two_k2 = build(4, [(0, 1), (2, 3)])
        assert are_isomorphic(stripped, two_k2)
        assert [len(removed) for removed in chain] == [2]

    _gate("6. block-reduction worked example", 1.0, body)


def test_07_square_with_tails_family():
    def body():
        for k in range(2, 5):
            g = gallery(f"c4pn{k}")
            report = classify(g)
            assert report.ban.status is Status.NONCOMMUTATIVE
            cert = report.ban.certificate
            assert cert.kind == "disjoint-pair"
            swap_ab = Permutation((1, 0) + tuple(range(2, g.n)))
            assert swap_ab in (cert.sigma, cert.tau)
            other = cert.tau if cert.sigma == swap_ab else cert.sigma
            assert not (other.support() & {0, 1})
            # exhaustively: no edge-free pair, so the finer verdict is
            # never pushed to NonCommutative
            assert find_edge_free_disjoint_pair(g) is None
            assert report.bic.status is not Status.NONCOMMUTATIVE

    _gate("7. square-with-tails family, tails 2..4", 30.0, body)


def test_08_constructor_symmetry_counts_and_replay():
    def body():
        free, trace = build_free([path(2), cycle(5)])
        assert automorphisms(free).order == 20
        assert replay(trace) == free

        wreath, wtrace = build_wreath(cycle(3), path(1))
        assert wreath == corona(cycle(3), path(1))
        assert automorphisms(wreath).order == 48
        assert replay(wtrace) == wreath

    _gate("8. constructor symmetry counts and bit-exact replay", 30.0, body)


def test_09_self_complementary_example():
    def body():
        g = gallery("sc")
        assert g.edge_count == 14
        co = complement(g)
        assert are_isomorphic(g, co)
        psi = Permutation((4, 7, 6, 5, 1, 2, 3, 0))
        for u in range(8):
            for v in range(8):
                assert bool(g.adj[u, v]) == bool(co.adj[psi(u), psi(v)])
        report = classify_with_complement(g)
        assert report.bic.status is Status.NONCOMMUTATIVE
        assert report.bic_complement.status is Status.NONCOMMUTATIVE

    _gate("9. self-complementary example end to end", 5.0, body)


def test_10_codec_laws_and_report_schema():
    def body():
        schema = report_schema()
        for g in small_corpus():
            for fmt in ("edges", "graph6"):
                assert parse_graph(fmt, write_graph(fmt, g)) == g
            doc = {"version": "0.0.0", "input": {"source": "corpus"}}
            doc.update(classify_with_complement(g).payload())
            jsonschema.validate(json.loads(json.dumps(doc)), schema)

    _gate("10. codec round-trips and report schema", 10.0, body)


def test_11_classifier_consistency_everywhere():
    def body():
        for g in small_corpus():
            report = classify_with_complement(g)
            bic, ban = report.bic.status, report.ban.status
            assert not (
                bic is Status.NONCOMMUTATIVE and ban is Status.COMMUTATIVE
            ), f"order violated on n={g.n}, m={g.edge_count}"
            if not contains_quadrangle(g):
                if bic is not Status.UNKNOWN and ban is not Status.UNKNOWN:
                    assert bic is ban
        survey = oracle_crosschecks()
        assert survey.ok, survey.violations[:3]

    _gate("11. classifier consistency across corpus and census", 600.0, body)

"""Exhaustive small-instance surveys and randomized oracle cross-checks.

Three kinds of evidence live here.  First, complete enumerations of
trees and forests up to modest orders, one representative per
isomorphism class.  Second, sweeps over those enumerations that check
structural claims exactly: the forest pair dichotomy and cherry
statistics.  Third, a seeded random-corpus harness that replays the
package's independent definitions against each other (product formulas,
zero patterns versus enumerated symmetries, complement involution,
classifier consistency) and records anything that disagrees.

All randomness comes from a fixed, documented generator so a corpus is
reproducible from its seed alone, on any machine.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections import Counter
from dataclasses import astuple, dataclass, fields
from itertools import combinations_with_replacement, product
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import products
from .automorphisms import (
    automorphisms,
    find_disjoint_pair,
    find_edge_free_disjoint_pair,
)
from .check import Status, verify_certificate
from .classify import classify
from .errors import NonPositiveCount, OutOfRange
from .graphs import (
    Graph,
    _mask_vertices,
    branch_forms,
    build,
    complement,
    contains_quadrangle,
    find_cherries,
    is_tree,
)
from .products import PRODUCT_KINDS, corona, corona_counts, edge_rule_product
from .pattern import zero_pattern

__all__ = [
    "CensusRow",
    "CensusResult",
    "SplitMix64",
    "enumerate_trees",
    "enumerate_forests",
    "check_forest_dichotomy",
    "cherry_census",
    "oracle_crosschecks",
    "write_csv",
]

MAX_TREE_ORDER = 11
MAX_FOREST_ORDER = 9


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CensusRow:
    """Per-order counts.  Surveys fill the columns they measure and
    leave the rest at zero."""

    n: int
    trees: int = 0
    forests: int = 0
    with_disjoint_pair: int = 0
    with_edge_free_pair: int = 0
    with_two_cherries: int = 0


@dataclass(frozen=True)
class CensusResult:
    """Outcome of one survey: rows over an order range plus every
    recorded violation.  An empty violation list means every checked
    property held."""

    n_min: int
    n_max: int
    rows: tuple[CensusRow, ...]
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self, n: int) -> CensusRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise OutOfRange(f"no census row for n={n}")

    def fraction_two_cherries(self, n: int) -> float:
        r = self.row(n)
        return r.with_two_cherries / r.trees if r.trees else 0.0


def write_csv(result: CensusResult, out: TextIO) -> None:
    """Write the survey summary, one row per order.

    The ``violations`` column counts recorded violations for that order;
    the full messages live on the result object.
    """
    w = csv.writer(out)
    w.writerow([f.name for f in fields(CensusRow)] + ["violations"])
    for row in result.rows:
        prefix = f"n={row.n}:"
        n_violations = sum(1 for v in result.violations if v.startswith(prefix))
        w.writerow([*astuple(row), n_violations])


# ---------------------------------------------------------------------------
# seeded randomness


class SplitMix64:
    """The splitmix64 generator, fixed here as the corpus PRNG.

    The algorithm is pinned (not delegated to ``random``) so that a
    seed identifies the same graph sequence in any implementation of
    this toolkit, regardless of language or standard library.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def unit(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n).  The modulo bias is far below
        anything these surveys could notice."""
        return self.next_u64() % n


def random_graph(rng: SplitMix64) -> Graph:
    """One corpus graph.  Draw order is part of the reproducibility
    contract: order (3..8), then a density, then one draw per vertex
    pair in lexicographic order."""
    n = 3 + rng.below(6)
    density = rng.unit()
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.unit() < density
    ]
    return build(n, edges)


# ---------------------------------------------------------------------------
# tree and forest enumeration


_TREE_MEMO: dict[int, tuple[Graph, ...]] = {1: (build(1, []),)}


def _trees_of_order(n: int) -> tuple[Graph, ...]:
    # one table of branch forms per order, so all the candidates compare
    if n not in _TREE_MEMO:
        seen: dict[int, Graph] = {}
        table: dict[tuple[int, ...], int] = {}
        for t in _trees_of_order(n - 1):
            edges = t.edges()
            for v in range(t.n):
                cand = build(n, edges + [(v, n - 1)])
                [(_, form)], _ = branch_forms(cand, table)
                seen.setdefault(form, cand)
        _TREE_MEMO[n] = tuple(seen.values())
    return _TREE_MEMO[n]


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on ``n``
    vertices, in a deterministic order.

    Generation is leaf augmentation -- every tree on ``n`` vertices
    arises from one on ``n - 1`` by attaching a leaf, so augmenting the
    class representatives at every vertex and de-duplicating by
    canonical form is complete.  The tests re-derive the same classes
    from scratch (all labelled trees via sequence decoding) and by an
    independent counting recurrence.
    """
    if not 1 <= n <= MAX_TREE_ORDER:
        raise OutOfRange(f"tree enumeration supports 1..{MAX_TREE_ORDER}, got {n}")
    yield from _trees_of_order(n)


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def enumerate_forests(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of forests on ``n``
    vertices.

    A forest is a multiset of trees, so enumerate partitions of ``n``
    into component orders and, per order, multisets of tree classes of
    that order.  Components are laid out largest first.
    """
    if not 1 <= n <= MAX_FOREST_ORDER:
        raise OutOfRange(
            f"forest enumeration supports 1..{MAX_FOREST_ORDER}, got {n}"
        )
    for part in _partitions(n):
        sizes = sorted(Counter(part).items(), reverse=True)
        pools = [
            combinations_with_replacement(_trees_of_order(size), mult)
            for size, mult in sizes
        ]
        for combo in product(*pools):
            pieces = [tree for group in combo for tree in group]
            if len(pieces) == 1:
                yield pieces[0]
            else:
                yield products.disjoint_union(pieces)


# ---------------------------------------------------------------------------
# forest dichotomy


def _pair_counts(g: Graph, masks: Sequence[int]) -> tuple[int, int]:
    """The pairs of disjoint masks, and how many of them an edge of ``g``
    joins, for masks in order of size, as a support table gives them.  A
    mask is disjoint only from masks of at most n minus its size points,
    so each is scanned against those alone, and its neighbourhood union
    is taken only when it has a disjoint partner."""
    bits = g._bits
    sizes = [mask.bit_count() for mask in masks]
    disjoint = crossing = 0
    for i, mask in enumerate(masks):
        end = bisect_right(sizes, g.n - sizes[i])
        apart = [other for other in masks[i + 1 : end] if not mask & other]
        if apart:
            near = 0
            for v in _mask_vertices(mask):
                near |= bits[v]
            disjoint += len(apart)
            crossing += sum(1 for other in apart if near & other)
    return disjoint, crossing


def check_forest_dichotomy(n_max: int) -> CensusResult:
    """Exhaustively verify the pair dichotomy on every forest up to
    ``n_max`` vertices.

    Two claims, both checked exactly: a forest has a disjoint pair of
    non-trivial automorphisms if and only if it has an edge-free one;
    and every disjoint pair in a forest is already edge-free.  Pairs are
    surveyed over distinct supports, which loses nothing -- both
    disjointness and edge-freeness only look at supports.
    """
    if not 1 <= n_max <= MAX_FOREST_ORDER:
        raise OutOfRange(
            f"dichotomy check supports 1..{MAX_FOREST_ORDER}, got {n_max}"
        )
    rows = []
    violations: list[str] = []
    for n in range(1, n_max + 1):
        trees = forests = with_dis = with_ef = 0
        for idx, f in enumerate(enumerate_forests(n)):
            forests += 1
            trees += is_tree(f)
            disjoint, crossing = _pair_counts(f, list(automorphisms(f).supports))
            has_disjoint, has_edge_free = disjoint > 0, disjoint > crossing
            if crossing:
                violations.append(
                    f"n={n}: forest #{idx} has {crossing} disjoint pairs "
                    "with a crossing edge"
                )
            if has_disjoint != has_edge_free:
                violations.append(
                    f"n={n}: forest #{idx} pair existence mismatch "
                    f"(disjoint={has_disjoint}, edge-free={has_edge_free})"
                )
            with_dis += has_disjoint
            with_ef += has_edge_free
        rows.append(
            CensusRow(
                n=n,
                trees=trees,
                forests=forests,
                with_disjoint_pair=with_dis,
                with_edge_free_pair=with_ef,
            )
        )
    return CensusResult(1, n_max, tuple(rows), tuple(violations))


# ---------------------------------------------------------------------------
# cherries


def cherry_census(n_max: int) -> CensusResult:
    """Count trees with at least two cherries, per order.

    The interesting read-out is the per-order fraction
    (:meth:`CensusResult.fraction_two_cherries`).  It is noisy at tiny
    orders -- n=4 scores 1/2 on a field of two trees -- and trends
    upward from the high single digits on; no asymptotic claim is made
    here, the numbers just sit in the result.
    """
    if not 1 <= n_max <= MAX_TREE_ORDER:
        raise OutOfRange(f"cherry census supports 1..{MAX_TREE_ORDER}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        ts = _trees_of_order(n)
        two = sum(1 for t in ts if len(find_cherries(t)) >= 2)
        rows.append(CensusRow(n=n, trees=len(ts), with_two_cherries=two))
    return CensusResult(1, n_max, tuple(rows), ())


# ---------------------------------------------------------------------------
# randomized oracle cross-checks


def _pattern_soundness(g: Graph, pattern, auts) -> bool:
    """No forced-zero cell may be realised by an actual automorphism.  The
    cells automorphisms realise are the orbits', and the chain's
    transversal elements generate the group, so the orbits are what their
    steps reach: within n - 1 of them, which squaring the one-step
    relation ceil(log2 n) times covers."""
    n = g.n
    reachable = np.eye(n, dtype=bool)
    for level in auts.chain:
        for images in level.values():
            reachable[np.arange(n), images] = True
    for _ in range((n - 1).bit_length()):
        reachable = reachable @ reachable
    return not bool((pattern.forced & reachable).any())


def oracle_crosschecks(seed: int = 0x5EED, count: int = 200) -> CensusResult:
    """Replay independent definitions against each other on a seeded
    random corpus (orders 3..8) and record every disagreement.

    Checked per graph: complement is an involution; the four product
    formulas agree with the edge-rule definitions against a second
    random factor; corona sizes match their closed forms; the forced
    zero pattern never forbids a real automorphism image; and the
    classifier never contradicts itself (fine non-commutative with
    coarse commutative, or split verdicts on a quadrangle-free graph),
    with every certificate re-verified from scratch.

    A ``count`` below one raises :class:`NonPositiveCount`: an empty
    survey proves nothing.
    """
    if count < 1:
        raise NonPositiveCount(f"oracle survey needs count >= 1, got {count}")
    rng = SplitMix64(seed)
    violations: list[str] = []
    per_n: dict[int, list[int]] = {n: [0, 0, 0] for n in range(3, 9)}
    for index in range(count):
        g = random_graph(rng)
        tag = f"n={g.n}: graph #{index}"
        counters = per_n[g.n]
        counters[0] += 1

        if complement(complement(g)) != g:
            violations.append(f"{tag} complement is not an involution")

        h = random_graph(rng)
        for kind in PRODUCT_KINDS:
            lhs = getattr(products, kind)(g, h)
            if lhs != edge_rule_product(kind, g, h):
                violations.append(f"{tag} {kind} product formula mismatch")
        expect_n, expect_m = corona_counts(g, h)
        cor = corona(g, h)
        if (cor.n, cor.edge_count) != (expect_n, expect_m):
            violations.append(f"{tag} corona size formula mismatch")

        pattern = zero_pattern(g)
        auts = automorphisms(g)
        if not _pattern_soundness(g, pattern, auts):
            violations.append(f"{tag} zero pattern forbids a real image")

        report = classify(g)
        bic, ban = report.bic.status, report.ban.status
        if bic is Status.NONCOMMUTATIVE and ban is Status.COMMUTATIVE:
            violations.append(f"{tag} fine non-commutative but coarse commutative")
        if (
            not contains_quadrangle(g)
            and Status.UNKNOWN not in (bic, ban)
            and bic is not ban
        ):
            violations.append(f"{tag} quadrangle-free but verdicts split")
        for verdict in (report.bic, report.ban):
            if verdict.status is not Status.UNKNOWN and not verify_certificate(
                g, verdict
            ):
                violations.append(f"{tag} {verdict.target} certificate rejected")

        counters[1] += find_disjoint_pair(g, auts=auts) is not None
        counters[2] += find_edge_free_disjoint_pair(g, auts=auts) is not None

    rows = tuple(
        CensusRow(n=n, with_disjoint_pair=c[1], with_edge_free_pair=c[2])
        for n, c in sorted(per_n.items())
    )
    return CensusResult(3, 8, rows, tuple(violations))

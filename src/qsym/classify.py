"""Commutativity classification for the two quantum symmetry algebras.

A finite graph carries two graded notions of quantum symmetry, here
tagged ``ban`` and ``bic``:

* ``ban`` — the coarse algebra: the universal magic unitary is only
  required to commute with the adjacency matrix.
* ``bic`` — the fine algebra: a quotient of the coarse one whose extra
  relations force edges onto edges entrywise.

Commutativity of either algebra means "no quantum symmetry of that
flavour": the algebra collapses to functions on the classical
automorphism group.  Because ``bic`` is a quotient of ``ban``, a
non-commutative ``bic`` forces a non-commutative ``ban``, and a
commutative ``ban`` forces a commutative ``bic``.  On quadrangle-free
graphs the two coincide outright.

The classifier applies a fixed battery of sound rules and reports
``Unknown`` when none of them fires — it never guesses.  Every
determined verdict carries a certificate (see :mod:`qsym.check`) that
can be re-checked from the graph alone via
:func:`qsym.check.verify_certificate`, which imports nothing from this
module: R-PROD and R-CORONA read a graph's provenance only to find a
pair of its own automorphisms.

A rule only searches: asked about one target, it returns ``(certificate,
detail)`` when it fires, the reason it did not fire as a string, or None
when it does not apply (no provenance, or no pairless forest).  ``_run``
alone logs ``"<target> <rule>: fired (<detail>)"`` or ``"<target> <rule>:
<reason>"`` and builds the verdict, whose status is the one the
certificate's kind stands behind.  The pair rules' detail is their pair's
cycle notation, which the log keeps as the certificate and
:attr:`Report.trace` writes out when it is first read.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .automorphisms import (
    AutomorphismSet,
    Permutation,
    _first_pair,
    _twin_swaps,
    automorphisms,
    transposition,
)
from .check import (
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
    _blocks_small_enough,
)
from .errors import QsymError, SizeLimitExceeded
from .graphs import Graph, complement, contains_quadrangle, is_connected, is_forest
from .graphs import _mask_vertices, forest_has_disjoint_pair
from .products import PRODUCT_KINDS
from .reduction import BlockStructure, sphere_blocks, strip_high_degree_fixpoint

# ---------------------------------------------------------------------------
# rule identifiers and the statements they stand on


R_SMALL = "R-SMALL"
R_QF = "R-QF"
R_QFC = "R-QFC"
R_KMN = "R-KMN"
R_BAN_1 = "R-BAN-1"
R_BIC_1 = "R-BIC-1"
R_FOREST = "R-FOREST"
R_STRIP = "R-STRIP"
R_BLOCKS = "R-BLOCKS"
R_PROD = "R-PROD"
R_CORONA = "R-CORONA"
R_CHAIN = "R-CHAIN"


@dataclass(frozen=True)
class Citation:
    rule: str
    statement: str


#: Each rule's citation: the statement it stands on.
CITATIONS: dict[str, Citation] = {rule: Citation(rule, statement) for rule, statement in {
    R_SMALL: "on at most three points every quantum permutation algebra "
    "is commutative",
    R_QF: "a quadrangle-free graph has identical coarse and fine algebras, "
    "so verdicts transfer between the two targets",
    R_QFC: "a graph whose complement is quadrangle-free has a commutative "
    "fine algebra",
    R_KMN: "a complete bipartite graph has a non-commutative fine algebra "
    "exactly when one side has at least four vertices",
    R_BAN_1: "two non-trivial automorphisms with disjoint supports make "
    "the coarse algebra non-commutative",
    R_BIC_1: "two non-trivial automorphisms with disjoint supports and no "
    "edge between the supports make the fine algebra non-commutative",
    R_FOREST: "for a forest, the fine algebra is non-commutative exactly "
    "when an edge-free disjoint pair exists, and the coarse one exactly "
    "when a disjoint pair exists",
    R_STRIP: "removing a vertex adjacent to all, or all but one, of the "
    "others does not affect commutativity of the fine algebra",
    R_BLOCKS: "when the forced-zero pattern confines the fundamental "
    "representation to blocks with at most one block of size two or "
    "three and the rest singletons, the algebra is commutative",
    R_PROD: "a graph product inherits a non-commutative fine algebra "
    "from any factor",
    R_CORONA: "attaching copies of a graph with a non-trivial symmetry "
    "to at least two base vertices yields a non-commutative fine algebra",
    R_CHAIN: "the coarse algebra surjects onto the fine one: a "
    "non-commutative quotient forces a non-commutative source, and a "
    "commutative source forces a commutative quotient",
}.items()}


# ---------------------------------------------------------------------------
# verdicts and reports


@dataclass(frozen=True)
class Verdict:
    target: str
    status: Status
    certificate: Certificate | None = None
    citation: Citation | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.status is Status.UNKNOWN:
            if self.certificate is not None:
                raise QsymError("an Unknown verdict cannot carry a certificate")
        elif self.certificate is None:
            raise QsymError(
                f"a {self.status.value} verdict must carry a certificate"
            )

    def payload(self, labels: Sequence[str] | None = None) -> dict:
        """``labels`` name the points in the certificate's cycle strings."""
        out: dict = {"target": self.target, "status": self.status.value}
        if self.certificate is not None:
            out["certificate"] = self.certificate.payload(labels)
        if self.citation is not None:
            out["citation"] = {
                "rule": self.citation.rule,
                "statement": self.citation.statement,
            }
        if self.note:
            out["note"] = self.note
        return out


#: One trace entry: its line, or, for a fired pair rule, the line's
#: target, rule and pair certificate, whose cycles are written on reading.
_Event = str | tuple[str, str, Certificate]


@dataclass(frozen=True)
class Report:
    """The verdicts on one graph and how they were reached.  The summary
    works out its graph facts on first use, and :attr:`trace` writes out
    its ``events`` on first read, so a report nobody serialises costs no
    graph walk and no cycle notation."""

    graph: Graph
    bic: Verdict
    ban: Verdict
    bic_complement: Verdict | None
    events: tuple[_Event, ...]
    notes: tuple[str, ...]
    elapsed_ms: float

    @cached_property
    def trace(self) -> tuple[str, ...]:
        """One line per rule tried, ``"<target> <rule>: <outcome>"``."""
        return tuple(
            event if isinstance(event, str) else _fired_pair(*event)
            for event in self.events
        )

    @cached_property
    def _facts(self) -> dict[str, bool]:
        g = self.graph
        return {
            "connected": is_connected(g),
            "quadrangle_free": not contains_quadrangle(g),
            "forest": is_forest(g),
        }

    def summary(self) -> dict:
        g = self.graph
        return {
            "n": g.n,
            "edges": g.edge_count,
            "degree_sequence": sorted(g.degree_sequence),
            **self._facts,
        }

    def payload(self) -> dict:
        labels = self.graph.labels
        out = {
            "graph": self.summary(),
            "verdicts": {
                TARGET_BIC: self.bic.payload(labels),
                TARGET_BAN: self.ban.payload(labels),
            },
            "trace": list(self.trace),
            "notes": list(self.notes),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.bic_complement is not None:
            out["verdicts"][TARGET_BIC_COMPLEMENT] = self.bic_complement.payload(labels)
        return out


def _fired_pair(target: str, rule: str, cert: Certificate) -> str:
    return f"{target} {rule}: fired ({cert.sigma.cycles()} and {cert.tau.cycles()})"


# ---------------------------------------------------------------------------
# per-graph contexts


class _Shared:
    """The facts a graph G and its complement Gᶜ have in common, worked
    out once for the pair: the node budget, the automorphism group and
    the twin swaps.

    Aut(G) = Aut(Gᶜ), and the search lists a group in lexicographic
    order of image tuples, so a completed listing of Aut(G) is the exact
    element tuple the complement's own search would produce.  The degree
    profiles and distance classes of Gᶜ split the vertices as those of G
    do, so that search would also spend the same number of nodes, and
    the budget decides both graphs alike: a listing that ran out of
    budget is not repeated, and each context notes the abandonment the
    first time it asks.

    Twins do not change under complement either: N(u) - v = N(v) - u
    holds in G exactly when it holds in Gᶜ.
    """

    def __init__(self, g: Graph, node_budget: int | None):
        self.g = g
        self.node_budget = node_budget
        self.abandoned: str | None = None

    @cached_property
    def auts(self) -> AutomorphismSet | None:
        """The full automorphism list, or None (with ``abandoned`` set)
        if the node budget ran out."""
        try:
            return automorphisms(self.g, node_budget=self.node_budget)
        except SizeLimitExceeded as exc:
            self.abandoned = (
                "automorphism enumeration abandoned after "
                f"{exc.budget} search nodes; some rules were skipped"
            )
            return None

    @property
    def listed(self) -> AutomorphismSet | None:
        """The completed listing of Aut(G) if one is already built; unlike
        :attr:`auts` it never starts one."""
        return vars(self).get("auts")

    @cached_property
    def twins(self) -> dict[int, tuple[int, ...]]:
        """The twin swaps' support table (see :func:`_twin_swaps`)."""
        return _twin_swaps(self.g)


class _Ctx:
    """One graph's facts, each computed at most once and read by both
    pipelines; ``shared`` holds those its complement has too.  ``prefix``
    heads each trace line, ``"complement "`` on Gᶜ's context."""

    prefix = ""

    def __init__(self, g: Graph, shared: _Shared):
        self.g = g
        self.shared = shared
        self.trace: list[_Event] = []
        self.notes: list[str] = []
        self.budget_hit = False

    @cached_property
    def complement(self) -> "_Ctx":
        """Gᶜ's context, whose own ``complement`` is this one.  That back
        reference is weak, so no cycle keeps Aut(G) alive after a call."""
        other = _Ctx(complement(self.g), self.shared)
        other.complement = weakref.proxy(self)
        other.prefix = "complement "
        return other

    def log(self, target: str, rule: str, outcome: str | Certificate) -> None:
        """Log ``outcome``; a certificate stands for a fired pair rule's
        line, which :attr:`Report.trace` writes out."""
        target = self.prefix + target
        if isinstance(outcome, str):
            self.trace.append(f"{target} {rule}: {outcome}")
        else:
            self.trace.append((target, rule, outcome))

    def auts(self) -> AutomorphismSet | None:
        """Full automorphism list, or None if the node budget ran out."""
        auts = self.shared.auts
        if auts is None and not self.budget_hit:
            self.budget_hit = True
            self.notes.append(self.shared.abandoned)
        return auts

    @cached_property
    def quadrangle_free(self) -> bool:
        return not contains_quadrangle(self.g)

    @cached_property
    def forest(self) -> bool:
        return is_forest(self.g)

    @cached_property
    def pairless_forest(self) -> bool:
        return self.forest and not forest_has_disjoint_pair(self.g)

    @cached_property
    def blocks(self) -> BlockStructure:
        """Blocks of the forced-zero pattern, shared by both R-BLOCKS checks.

        A zero pattern is sound: it never forces a cell (i, j) that an
        automorphism sending j to i realises.  So when a completed listing
        is transitive no cell is forced, and the one block 0..n-1 is
        returned without walking the spheres.  No listing is started for
        this; without one the blocks are read off the sphere-degree sets
        as usual."""
        auts = self.shared.listed
        if auts is not None and auts.transitive:
            return BlockStructure((tuple(range(self.g.n)),))
        return sphere_blocks(self.g)


def _complete_bipartite_parts(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Recognise a complete bipartite graph; return its two sides: A, the
    vertices not adjacent to vertex 0 (0 among them), then B = N(0).  The
    graph is K_{A,B} exactly when every vertex of A has neighbourhood B
    and every vertex of B has neighbourhood A."""
    bits = g._bits
    side_b = bits[0] if bits else 0
    if not side_b:
        return None
    side_a = ((1 << g.n) - 1) ^ side_b
    for v, nbrs in enumerate(bits):
        if nbrs != (side_a if side_b >> v & 1 else side_b):
            return None
    return _mask_vertices(side_a), _mask_vertices(side_b)


# ---------------------------------------------------------------------------
# the rules, which only find (see the module docstring); _run decides

#: A rule's finding: (certificate, detail), a miss reason, or None.  A
#: detail of None stands for the pair's cycles, written on reading.
_Finding = tuple[Certificate, str | None] | str | None


def _small(ctx: _Ctx, t: str) -> _Finding:
    n = ctx.g.n
    if n > 3:
        return f"order {n} is above three"
    return SmallOrder(n), f"order {n}"


def _qfc(ctx: _Ctx, t: str) -> _Finding:
    if not ctx.complement.quadrangle_free:
        return "complement contains a quadrangle"
    return QuadrangleFreeComplement(), "complement is quadrangle-free"


def _kmn(ctx: _Ctx, t: str) -> _Finding:
    """The non-commutative direction of R-KMN.  The commutative one is
    R-QFC's: with both sides at most three, the complement K_m ⊔ K_n is
    quadrangle-free, so here it is a miss."""
    parts = _complete_bipartite_parts(ctx.g)
    if parts is None:
        return "not complete bipartite"
    wide = max(parts, key=len)
    if len(wide) < 4:
        return "no side of four vertices"
    sigma = transposition(ctx.g.n, wide[0], wide[1])
    tau = transposition(ctx.g.n, wide[2], wide[3])
    return EdgeFreePair(sigma, tau), f"complete bipartite, side of {len(wide)}"


def _pair(ctx: _Ctx, t: str) -> _Finding:
    """R-BIC-1 on the fine algebra, R-BAN-1 on the coarse one; only the
    fine algebra needs the supports joined by no edge."""
    if t == TARGET_BIC:
        cert, missing = EdgeFreePair, "no edge-free disjoint pair"
    else:
        cert, missing = DisjointPair, "no disjoint pair"
    # twin swaps first: on graphs such as star20 they find the pair
    # without listing a huge group
    pair = _first_pair(ctx.g, ctx.shared.twins, cert.edge_free)
    if pair is None:
        auts = ctx.auts()
        if auts is None:
            return "skipped (budget exhausted)"
        pair = _first_pair(ctx.g, auts.minimal, cert.edge_free)
        if pair is None:
            return missing
    return cert(*pair), None


def _acting_on(n: int, copies: list[range], images: tuple[int, ...]) -> Permutation:
    """``images`` applied to each copy at once (``copy[k]`` stands for k),
    fixing every other vertex of ``0..n-1``."""
    out = list(range(n))
    for copy in copies:
        for k, image in enumerate(images):
            out[copy[k]] = copy[image]
    return Permutation(tuple(out))


def _product(ctx: _Ctx, t: str) -> _Finding:
    """A factor's fine pair lifted to the product, vertex (i, α) being
    i·m + α: on factor 1 as id × σ, on factor 0 as σ × id, except in the
    lexicographic product, whose levels V1 × {α} are modules joined
    wholesale by the second factor's edges: there σ acts on level 0.

    The lifted pair is an edge-free disjoint pair of automorphisms of G
    itself, and R-BIC-1, which runs first, scans a completed listing of
    Aut(G) for exactly such pairs and finds one if any exists (see
    :func:`qsym.automorphisms._first_pair`).  So once the listing is
    complete this rule cannot fire, and it gives its miss reason without
    classifying the factors; it does their work only where the listing
    was cut short."""
    prov = ctx.g.provenance
    if prov is None or prov.kind not in PRODUCT_KINDS:
        return None
    missing = "no factor certified non-commutative"
    if ctx.shared.listed is not None:
        return missing
    n, m = (factor.n for factor in prov.factors)
    for idx, factor in enumerate(prov.factors):
        inner = classify(factor, node_budget=ctx.shared.node_budget).bic
        if inner.status is Status.NONCOMMUTATIVE:
            pair = inner.certificate
            if idx == 1:
                copies = [range(i * m, i * m + m) for i in range(n)]
            else:
                levels = (0,) if prov.kind == "lexicographic" else range(m)
                copies = [range(a, n * m, m) for a in levels]
            sigma, tau = (
                _acting_on(ctx.g.n, copies, p.images) for p in (pair.sigma, pair.tau)
            )
            return EdgeFreePair(sigma, tau), f"factor {idx} of {prov.kind} product"
    return missing


def _corona(ctx: _Ctx, t: str) -> _Finding:
    """An attachment symmetry applied to the copies at base vertices 0
    and 1 (layout in :func:`qsym.products.corona`): each copy is joined
    to its base vertex alone, so this is an edge-free pair.

    Like :func:`_product`'s, that pair is one R-BIC-1 finds in a
    completed listing of Aut(G), so with one built this rule gives its
    miss reason without listing the attachment's group.  An attachment
    with a twin pair never reaches the listing either: the pair's copies
    at base vertices 0 and 1 are twin pairs of G with disjoint supports
    and no edge between them, which R-BIC-1's twin scan, charging no
    budget, has already found."""
    prov = ctx.g.provenance
    if prov is None or prov.kind != "corona":
        return None
    base, attachment = prov.factors
    if base.n < 2 or ctx.shared.listed is not None:
        return "premises not met"
    try:
        auts = automorphisms(attachment, node_budget=ctx.shared.node_budget)
    except SizeLimitExceeded:
        ctx.notes.append("attachment symmetry search abandoned (budget)")
        return "premises not met"
    if auts.order == 1:
        return "premises not met"
    # the listing's first non-identity element, the first of its own mask
    witness = min(auts.supports.values())
    n, m = base.n, attachment.n
    sigma, tau = (
        _acting_on(ctx.g.n, [range(n + a * m, n + a * m + m)], witness) for a in (0, 1)
    )
    return EdgeFreePair(sigma, tau), "attachment has a non-trivial symmetry"


def _forest(ctx: _Ctx, t: str) -> _Finding:
    """A forest without a disjoint pair, read off its branch forms with no
    search; a forest with one is the pair rule's."""
    if not ctx.pairless_forest:
        return None
    edge_free = t == TARGET_BIC
    pair = "an edge-free disjoint pair" if edge_free else "a disjoint pair"
    return ForestNoDisjointPair(edge_free_only=edge_free), f"forest without {pair}"


def _strip(ctx: _Ctx, t: str) -> _Finding:
    terminal, chain = strip_high_degree_fixpoint(ctx.g)
    if not chain:
        return "nothing to strip"
    sub = classify(terminal, node_budget=ctx.shared.node_budget).bic
    if sub.status is not Status.COMMUTATIVE:
        return f"stripped core is {sub.status.value}"
    cert = StripToCommutative(chain, sub.certificate)
    return cert, f"stripped {sum(len(s) for s in chain)} vertices to a commutative core"


def _blocks(ctx: _Ctx, t: str) -> _Finding:
    part = ctx.blocks
    sizes = sorted(part.sizes)
    if not _blocks_small_enough(part.sizes):
        return f"blocks too coarse (sizes {sizes})"
    return SmallBlocks(part.blocks), f"block sizes {sizes}"


#: Each target's rules in the order they are tried, under the rule id each
#: stands for there; the first to fire decides, and a target where none
#: fires stays Unknown.
_PIPELINES = {
    TARGET_BIC: (
        (R_SMALL, _small), (R_QFC, _qfc), (R_KMN, _kmn), (R_BIC_1, _pair),
        (R_PROD, _product), (R_CORONA, _corona), (R_FOREST, _forest),
        (R_STRIP, _strip), (R_BLOCKS, _blocks),
    ),
    TARGET_BAN: (
        (R_SMALL, _small), (R_BAN_1, _pair), (R_FOREST, _forest),
        (R_BLOCKS, _blocks),
    ),
}


def _run(ctx: _Ctx, t: str) -> Verdict:
    """The one place a finding becomes a trace line and a verdict."""
    for rule, find in _PIPELINES[t]:
        found = find(ctx, t)
        if isinstance(found, str):
            ctx.log(t, rule, found)
        elif found is not None:
            cert, detail = found
            ctx.log(t, rule, cert if detail is None else f"fired ({detail})")
            return Verdict(t, cert.status, cert, CITATIONS[rule])
    return Verdict(t, Status.UNKNOWN)


def _transfer(ctx: _Ctx, bic: Verdict, ban: Verdict) -> tuple[Verdict, Verdict]:
    """Carry a verdict over to the other target along the quotient map or,
    on quadrangle-free graphs, along the identification of the two
    algebras.  Each step fills the one Unknown, so at most one applies.

    A coarse pair needs no carrying to the fine algebra on a
    quadrangle-free graph: there every disjoint pair is edge-free (i ~ k
    with i in supp σ and k in supp τ would close the 4-cycle i, k, σ(i),
    τ(k)), and R-BIC-1 scans the twin swaps and minimal supports that
    R-BAN-1 scans, so it has already fired."""

    def carry(rule: str, cert: Certificate) -> Verdict:
        """The Unknown target's verdict: the other target's status, now
        standing on ``rule`` and ``cert``."""
        if ban.status is Status.UNKNOWN:
            t, status, source = TARGET_BAN, bic.status, "fine"
        else:
            t, status, source = TARGET_BIC, ban.status, "coarse"
        claim = "non-commutative" if status is Status.NONCOMMUTATIVE else "commutative"
        ctx.log(t, rule, f"{claim} via the {source} algebra")
        if rule == R_CHAIN:
            note = f"transferred from the {source} algebra"
        else:
            note = "the algebras coincide on quadrangle-free graphs"
        return Verdict(t, status, cert, CITATIONS[rule], note=note)

    pair = (bic.status, ban.status)
    if pair == (Status.NONCOMMUTATIVE, Status.UNKNOWN):
        cert = bic.certificate
        if isinstance(cert, EdgeFreePair):
            cert = DisjointPair(cert.sigma, cert.tau)
        ban = carry(R_CHAIN, cert)
    elif pair == (Status.UNKNOWN, Status.COMMUTATIVE):
        bic = carry(R_CHAIN, ban.certificate)
    elif pair == (Status.COMMUTATIVE, Status.UNKNOWN) and ctx.quadrangle_free:
        ban = carry(R_QF, QuadrangleFreeSelf(companion=bic.certificate))
    if bic.status is Status.NONCOMMUTATIVE and ban.status is Status.COMMUTATIVE:
        raise QsymError(
            "inconsistent verdicts: the fine algebra cannot be "
            "non-commutative while the coarse one is commutative"
        )
    return bic, ban


def classify(g: Graph, node_budget: int | None = None) -> Report:
    """Run the full rule battery on both targets.

    ``node_budget`` caps the automorphism search; when it runs out the
    affected rules are skipped and the verdict may degrade to Unknown
    (recorded in the report's notes).
    """
    ctx = _Ctx(g, _Shared(g, node_budget))
    bic, ban, elapsed_ms = _classify(ctx)
    return Report(
        graph=g,
        bic=bic,
        ban=ban,
        bic_complement=None,
        events=tuple(ctx.trace),
        notes=tuple(ctx.notes),
        elapsed_ms=elapsed_ms,
    )


def _classify(ctx: _Ctx) -> tuple[Verdict, Verdict, float]:
    """Both targets' verdicts on ``ctx``'s graph, and the ms they took."""
    started = time.perf_counter()
    bic, ban = _transfer(ctx, _run(ctx, TARGET_BIC), _run(ctx, TARGET_BAN))
    return bic, ban, (time.perf_counter() - started) * 1000.0


def classify_with_complement(g: Graph, node_budget: int | None = None) -> Report:
    """Classify ``g`` and its complement, then combine.

    When both fine verdicts come out commutative and either the graph or
    its complement is quadrangle-free, the coarse algebra is commutative
    too (it is complement-invariant), which upgrades an Unknown coarse
    verdict and flags the graph as having no quantum symmetry at all.
    The complement's pass reuses what the two graphs share (see
    :class:`_Shared`).
    """
    ctx = _Ctx(g, _Shared(g, node_budget))
    bic, ban, elapsed_ms = _classify(ctx)
    comp = ctx.complement
    comp_bic, _, comp_ms = _classify(comp)
    both_commutative = (
        bic.status is Status.COMMUTATIVE and comp_bic.status is Status.COMMUTATIVE
    )
    if both_commutative and (ctx.quadrangle_free or comp.quadrangle_free):
        # _transfer has already settled ban on a quadrangle-free G, so an
        # Unknown one here means only Gᶜ is quadrangle-free
        if ban.status is Status.UNKNOWN:
            ban = Verdict(
                TARGET_BAN,
                Status.COMMUTATIVE,
                QuadrangleFreeComplement(companion=comp_bic.certificate),
                CITATIONS[R_QF],
                note="complement-invariance settles the coarse algebra",
            )
        ctx.notes.append("no quantum symmetry: both fine algebras are commutative")
    return Report(
        graph=g,
        bic=bic,
        ban=ban,
        bic_complement=replace(comp_bic, target=TARGET_BIC_COMPLEMENT),
        events=(*ctx.trace, *comp.trace),
        notes=(*ctx.notes, *comp.notes),
        elapsed_ms=elapsed_ms + comp_ms,
    )

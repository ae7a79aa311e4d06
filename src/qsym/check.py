"""Certificates and the checker that re-verifies them.

A determined verdict on a graph stands on a certificate: a small frozen
record whose ``holds(g)`` re-checks its premises against the graph from
scratch, and whose kind :data:`CERTIFIED_STATUS` ties to the one status
it can stand behind.  :func:`verify_certificate` is the whole checker.
It reads a verdict's ``target``, ``status`` and ``certificate``, and
nothing else, so trusting a verdict means trusting this module and the
graph and reduction code it calls, never the rule engine in
:mod:`qsym.classify` that found the certificate, nor the automorphism
search: pairs are re-checked, and a forest's read off its branch forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Sequence

from .graphs import Graph, Permutation, _edge_between, complement, contains_quadrangle
from .graphs import forest_has_disjoint_pair, is_automorphism, is_forest
from .reduction import sphere_blocks, strip_high_degree_fixpoint

TARGET_BIC = "bic"
TARGET_BAN = "ban"
TARGET_BIC_COMPLEMENT = "bic_complement"


class Status(str, enum.Enum):
    COMMUTATIVE = "Commutative"
    NONCOMMUTATIVE = "NonCommutative"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:  # keep CLI output free of enum noise
        return self.value


#: The status each certificate kind can stand behind.  A
#: ``quadrangle-free`` certificate stands behind whatever its companion
#: does, since on a quadrangle-free graph the two algebras coincide.
CERTIFIED_STATUS: dict[str, Status] = {
    "disjoint-pair": Status.NONCOMMUTATIVE,
    "edge-free-pair": Status.NONCOMMUTATIVE,
    "small-order": Status.COMMUTATIVE,
    "quadrangle-free-complement": Status.COMMUTATIVE,
    "forest-no-disjoint-pair": Status.COMMUTATIVE,
    "strip": Status.COMMUTATIVE,
    "small-blocks": Status.COMMUTATIVE,
}


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Base class; concrete certificates are small frozen records.

    ``payload`` serialises any of them: ``kind`` first, then the fields in
    declaration order, leaving out those that are None.  ``holds``
    re-checks the certificate's premises against a graph from scratch."""

    def payload(self, labels: Sequence[str] | None = None) -> dict:
        out = {"kind": self.kind}  # type: ignore[attr-defined]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "kind" and value is not None:
                out[f.name] = _payload_value(value, labels)
        return out

    def holds(self, g: Graph) -> bool:
        return False


def _payload_value(value, labels: Sequence[str] | None):
    """Permutations travel as image arrays (re-verifiable data); the
    cycle string rides along for human readers, naming the points by
    ``labels`` when those name exactly the permutation's points."""
    if isinstance(value, Permutation):
        names = labels if labels is not None and len(labels) == value.n else None
        return {"images": list(value.images), "cycles": value.cycles(names)}
    if isinstance(value, Certificate):
        return value.payload(labels)
    if isinstance(value, tuple):
        return [_payload_value(v, labels) for v in value]
    return value


@dataclass(frozen=True)
class _Pair(Certificate):
    """Two non-trivial automorphisms with disjoint supports; with
    ``edge_free`` set, no edge may join the two supports either."""

    sigma: Permutation
    tau: Permutation
    edge_free = False

    def holds(self, g: Graph) -> bool:
        s, t = self.sigma, self.tau
        if len(s.images) != g.n or len(t.images) != g.n:
            return False
        if s.is_identity or t.is_identity:
            return False
        if not (is_automorphism(g, s) and is_automorphism(g, t)):
            return False
        ms, mt = s.support_mask(), t.support_mask()
        return not ms & mt and not (self.edge_free and _edge_between(g, ms, mt))


@dataclass(frozen=True)
class DisjointPair(_Pair):
    kind: str = field(default="disjoint-pair", init=False)


@dataclass(frozen=True)
class EdgeFreePair(_Pair):
    kind: str = field(default="edge-free-pair", init=False)
    edge_free = True


@dataclass(frozen=True)
class SmallOrder(Certificate):
    n: int
    kind: str = field(default="small-order", init=False)

    def holds(self, g: Graph) -> bool:
        return g.n == self.n and g.n <= 3


@dataclass(frozen=True)
class QuadrangleFreeComplement(Certificate):
    """The complement is quadrangle-free; ``companion``, when given, shows
    the complement's fine algebra commutative."""

    companion: Certificate | None = None
    kind: str = field(default="quadrangle-free-complement", init=False)

    def holds(self, g: Graph) -> bool:
        h = complement(g)
        if contains_quadrangle(h):
            return False
        return self.companion is None or self.companion.holds(h)


@dataclass(frozen=True)
class QuadrangleFreeSelf(Certificate):
    """The graph is quadrangle-free, so the verdict carries over from the
    other target; ``companion`` is that target's certificate when known."""

    companion: Certificate | None = None
    kind: str = field(default="quadrangle-free", init=False)

    def holds(self, g: Graph) -> bool:
        if contains_quadrangle(g):
            return False
        return self.companion is None or self.companion.holds(g)


@dataclass(frozen=True)
class ForestNoDisjointPair(Certificate):
    """A forest with no disjoint pair (``edge_free_only=False``), or none
    without edges between the supports (``edge_free_only=True``): the same
    in a forest (see :func:`qsym.graphs.forest_has_disjoint_pair`)."""

    edge_free_only: bool = False
    kind: str = field(default="forest-no-disjoint-pair", init=False)

    def holds(self, g: Graph) -> bool:
        return is_forest(g) and not forest_has_disjoint_pair(g)


@dataclass(frozen=True)
class StripToCommutative(Certificate):
    chain: tuple[tuple[int, ...], ...]
    terminal: Certificate
    kind: str = field(default="strip", init=False)

    def holds(self, g: Graph) -> bool:
        terminal, chain = strip_high_degree_fixpoint(g)
        return chain == self.chain and self.terminal.holds(terminal)


@dataclass(frozen=True)
class SmallBlocks(Certificate):
    blocks: tuple[tuple[int, ...], ...]
    kind: str = field(default="small-blocks", init=False)

    def holds(self, g: Graph) -> bool:
        part = sphere_blocks(g)
        return part.blocks == self.blocks and _blocks_small_enough(part.sizes)


def _blocks_small_enough(sizes: tuple[int, ...]) -> bool:
    """At most one block of size >= 2, and that block of size <= 3."""
    big = [s for s in sizes if s >= 2]
    return len(big) <= 1 and all(s <= 3 for s in big)


# ---------------------------------------------------------------------------
# certificate re-verification


def verify_certificate(g: Graph, verdict) -> bool:
    """Re-check a verdict's certificate against the graph from scratch.

    ``verdict`` is anything with ``target``, ``status`` and
    ``certificate``, such as a :class:`qsym.classify.Verdict`.  Returns
    True when the certificate can stand behind the verdict's status (see
    :data:`CERTIFIED_STATUS`) on its target, one of ``bic``, ``ban`` and
    ``bic_complement``, and its premises hold of ``g``; raises
    nothing for a merely wrong certificate (that returns False)."""
    cert = verdict.certificate
    if cert is None:
        return verdict.status is Status.UNKNOWN
    return _entails(cert, verdict.target, verdict.status) and cert.holds(g)


def _entails(cert: Certificate, target: str, status: Status) -> bool:
    """Whether a certificate of this kind supports the claim that the
    ``target`` algebra has ``status``.

    Bare, a disjoint pair shows only the coarse algebra non-commutative
    (the fine one also needs the supports joined by no edge).  A forest
    without an edge-free disjoint pair, a strip (which rests on a fine
    verdict about the stripped core) and a bare quadrangle-free
    complement show only the fine one commutative.  With a companion
    showing the complement's fine algebra commutative, the last shows
    the coarse one commutative too: on a quadrangle-free complement the
    two algebras coincide, and the coarse one is complement-invariant.
    Under a quadrangle-free wrapper the two algebras coincide, so the
    companion may stand for either target.  A missing companion, or a
    target other than ``bic``, ``ban`` and ``bic_complement``, supports
    nothing."""
    if target not in (TARGET_BIC, TARGET_BAN, TARGET_BIC_COMPLEMENT):
        return False
    if isinstance(cert, QuadrangleFreeSelf):
        return any(_entails(cert.companion, t, status) for t in (TARGET_BIC, TARGET_BAN))
    if CERTIFIED_STATUS.get(getattr(cert, "kind", None)) is not status:
        return False
    fine = target != TARGET_BAN
    if isinstance(cert, DisjointPair):
        return not fine
    if isinstance(cert, ForestNoDisjointPair):
        return fine or not cert.edge_free_only
    if isinstance(cert, QuadrangleFreeComplement):
        return fine or _entails(cert.companion, TARGET_BIC, status)
    if isinstance(cert, StripToCommutative):
        return fine and _entails(cert.terminal, TARGET_BIC, status)
    return True

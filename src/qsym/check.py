"""Certificates and the checker that re-verifies them.

A determined verdict on a graph stands on a certificate: a small frozen
record whose ``holds(g)`` re-checks its premises against the graph from
scratch, and whose ``entails`` states the claim it stands behind.
:func:`verify_certificate` is the whole checker.  It reads a verdict's
``target``, ``status`` and ``certificate``, and nothing else, so
trusting a verdict means trusting this module and the graph and
reduction code it calls, never the rule engine in :mod:`qsym.classify`
that found the certificate, nor the automorphism search: pairs are
re-checked, and a forest's read off its branch forms.
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


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Base class; concrete certificates are small frozen records.

    ``payload`` serialises any of them: ``kind`` first, then the fields in
    declaration order, leaving out those that are None.  ``holds``
    re-checks the certificate's premises against a graph from scratch.
    ``status`` is the one status a kind stands behind (Commutative unless
    it says otherwise), by default for both algebras (``entails``)."""

    status = Status.COMMUTATIVE

    def entails(self, fine: bool, status: Status) -> bool:
        return status is self.status

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
    ``edge_free`` set, no edge may join the two supports either, which
    the fine algebra needs: bare, a pair shows only the coarse one."""

    sigma: Permutation
    tau: Permutation
    edge_free = False
    status = Status.NONCOMMUTATIVE

    def holds(self, g: Graph) -> bool:
        s, t = self.sigma, self.tau
        if not all(isinstance(p, Permutation) and len(p.images) == g.n for p in (s, t)):
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

    def entails(self, fine: bool, status: Status) -> bool:
        return not fine and status is self.status


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


def _supports(member, fine: bool, status: Status) -> bool:
    """A nested member that is None, or not a certificate, supports nothing."""
    return isinstance(member, Certificate) and member.entails(fine, status)


@dataclass(frozen=True)
class _QuadrangleFree(Certificate):
    """The graph, or its complement with ``of_complement`` set, is quadrangle-free."""

    companion: Certificate | None = None
    of_complement = False

    def holds(self, g: Graph) -> bool:
        h = complement(g) if self.of_complement else g
        if contains_quadrangle(h):
            return False
        companion = self.companion
        return companion is None or isinstance(companion, Certificate) and companion.holds(h)


@dataclass(frozen=True)
class QuadrangleFreeComplement(_QuadrangleFree):
    """The complement is quadrangle-free.  Bare, this shows the fine algebra
    commutative; a ``companion`` showing the complement's fine algebra
    commutative shows the coarse one too: on a quadrangle-free complement
    the two algebras coincide, and the coarse one is complement-invariant."""

    kind: str = field(default="quadrangle-free-complement", init=False)
    of_complement = True

    def entails(self, fine: bool, status: Status) -> bool:
        return status is self.status and (fine or _supports(self.companion, True, status))


@dataclass(frozen=True)
class QuadrangleFreeSelf(_QuadrangleFree):
    """The graph is quadrangle-free, so its two algebras coincide and the
    other target's verdict, on ``companion`` when known, carries over."""

    kind: str = field(default="quadrangle-free", init=False)
    status = None

    def entails(self, fine: bool, status: Status) -> bool:
        return any(_supports(self.companion, f, status) for f in (True, False))


@dataclass(frozen=True)
class ForestNoDisjointPair(Certificate):
    """A forest with no disjoint pair (``edge_free_only=False``), or none
    without edges between the supports (``edge_free_only=True``): the same
    in a forest (see :func:`qsym.graphs.forest_has_disjoint_pair`).  The
    latter shows only the fine algebra commutative."""

    edge_free_only: bool = False
    kind: str = field(default="forest-no-disjoint-pair", init=False)

    def holds(self, g: Graph) -> bool:
        return is_forest(g) and not forest_has_disjoint_pair(g)

    def entails(self, fine: bool, status: Status) -> bool:
        return status is self.status and (fine or not self.edge_free_only)


@dataclass(frozen=True)
class StripToCommutative(Certificate):
    """Stripping keeps the fine algebra only: the core's fine verdict is the graph's."""

    chain: tuple[tuple[int, ...], ...]
    terminal: Certificate
    kind: str = field(default="strip", init=False)

    def holds(self, g: Graph) -> bool:
        terminal, chain = strip_high_degree_fixpoint(g)
        return chain == self.chain and self.terminal.holds(terminal)

    def entails(self, fine: bool, status: Status) -> bool:
        return fine and status is self.status and _supports(self.terminal, True, status)


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

    ``verdict`` is anything with ``target``, ``status`` and ``certificate``,
    such as a :class:`qsym.classify.Verdict`.  Returns True when the
    certificate entails the verdict's status on its target, one of ``bic``,
    ``ban`` and ``bic_complement``, and its premises hold of ``g``; raises
    nothing for a merely wrong certificate (that returns False)."""
    cert, target = verdict.certificate, verdict.target
    if not isinstance(cert, Certificate):
        return cert is None and verdict.status is Status.UNKNOWN
    return (
        target in (TARGET_BIC, TARGET_BAN, TARGET_BIC_COMPLEMENT)
        and cert.entails(target != TARGET_BAN, verdict.status)
        and cert.holds(g)
    )

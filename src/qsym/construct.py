"""Deterministic graph constructions with replayable build traces.

The builders here assemble graphs whose symmetry behaviour is known in
advance from the way they were put together: :func:`build_free`
(disjoint union under a cone), :func:`build_tensor` (joins of
pendant-expanded factors) and :func:`build_wreath` (a corona over a
connected base).  Each returns the finished graph together with a
:class:`ConstructionTrace` -- a small, explicit recipe with one result,
which :func:`replay` re-executes to reproduce the output bit for bit.

A trace that no longer rebuilds its graph is rejected, so a generated
instance can be audited from its trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

from .errors import BadParams, EmptyInput, HypothesisFailed
from .graphs import Graph, build, check_order, complement, is_connected
from .products import corona, disjoint_union

__all__ = [
    "TraceStep",
    "ConstructionTrace",
    "cone",
    "corona_k1",
    "join",
    "build_free",
    "build_tensor",
    "build_wreath",
    "replay",
]


# ---------------------------------------------------------------------------
# primitive operations


_K1 = build(1, [])


def cone(g: Graph) -> Graph:
    """One new apex vertex (index ``g.n``) adjacent to every old vertex,
    that is, the join with one vertex.

    When ``g`` is disconnected the apex glues the pieces together without
    changing the commutativity status of the fine algebra; the builders
    below record that guarantee in their trace notes.
    """
    return join([g, _K1])


def corona_k1(g: Graph) -> Graph:
    """Attach one fresh pendant vertex to every vertex of ``g``.

    The result has order ``2 * g.n``; vertex ``g.n + v`` is the pendant
    of ``v``.  For ``g.n >= 2`` the complement of the result is
    connected, which is the property the tensor builder relies on.
    """
    return corona(g, _K1)


def join(gs: Sequence[Graph]) -> Graph:
    """Disjoint union plus every edge between distinct factors, built as
    the complement of the disjoint union of the factors' complements.
    The total order is checked against the cap before any is built."""
    if not gs:
        raise EmptyInput("join needs at least one factor")
    check_order(sum(g.n for g in gs))
    return complement(disjoint_union([complement(g) for g in gs]))


# ---------------------------------------------------------------------------
# traces


#: Each trace operation and its operand count; None marks one that
#: takes its operands as one list of at least one graph.
_OPS: dict[str, tuple[Callable[..., Graph], int | None]] = {
    "cone": (cone, 1),
    "corona_k1": (corona_k1, 1),
    "corona": (corona, 2),
    "disjoint_union": (disjoint_union, None),
    "join": (join, None),
}


def _apply(op: str, operands: list[Graph]) -> Graph:
    if op not in _OPS:
        raise BadParams(f"unknown trace operation {op!r}")
    fn, arity = _OPS[op]
    if arity is None:
        if operands:
            return fn(operands)
    elif len(operands) == arity:
        return fn(*operands)
    raise BadParams(
        f"trace operation {op!r} takes {arity or 'one or more'} operands, "
        f"got {len(operands)}"
    )


@dataclass(frozen=True)
class TraceStep:
    """One replayable operation.

    ``args`` name the operands: ``in3`` is the fourth trace input,
    ``s2`` the output of the third step.  ``operand_orders`` and
    ``order`` record vertex counts going in and out, and ``note`` says
    why the step is sound where that matters.
    """

    op: str
    args: tuple[str, ...]
    operand_orders: tuple[int, ...]
    order: int
    note: str = ""

    def payload(self) -> dict:
        return {
            "op": self.op,
            "args": list(self.args),
            "operand_orders": list(self.operand_orders),
            "order": self.order,
            "note": self.note,
        }


@dataclass(frozen=True)
class ConstructionTrace:
    """A recipe that rebuilds a construction's output from its inputs.

    ``results`` holds the ref of the finished graph; a trace that
    :func:`replay` accepts has exactly one.  Replaying the steps against
    ``inputs`` must reproduce the output exactly.
    """

    inputs: tuple[Graph, ...]
    steps: tuple[TraceStep, ...]
    results: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def final_order(self) -> int:
        """Vertex count of the result; results that :func:`replay`
        rejects (not exactly one, or a ref that names no input or step)
        raise :class:`BadParams` here too."""
        orders = {f"in{i}": g.n for i, g in enumerate(self.inputs)}
        orders.update((f"s{k}", step.order) for k, step in enumerate(self.steps))
        return _resolve(orders, _only(self.results))

    def payload(self) -> dict:
        return {
            "input_orders": [g.n for g in self.inputs],
            "steps": [s.payload() for s in self.steps],
            "results": list(self.results),
            "notes": list(self.notes),
            "final_order": self.final_order,
        }


def replay(trace: ConstructionTrace) -> Graph:
    """Re-execute every step of ``trace`` and return its result graph.

    Each step runs through the builder that records traces, and must
    come out as the step it replays.  Raises :class:`BadParams` if the
    trace is internally inconsistent (unknown op, wrong operand count,
    a ref that names no input or earlier step, a step whose recorded
    orders disagree with what the operation actually produces, or other
    than one result).
    """
    result = _only(trace.results)
    tb = _TraceBuilder(trace.inputs)
    for step in trace.steps:
        tb.add(step.op, step.args, step.note)
        made = tb.steps[-1]
        if made != step:
            raise BadParams(
                f"trace step {step.op!r}: recorded orders {step.operand_orders} "
                f"-> {step.order}, replay gives {made.operand_orders} -> {made.order}"
            )
    return tb.graph(result)


def _only(results: Sequence[str]) -> str:
    """The one ref in a trace's ``results``."""
    if len(results) != 1:
        raise BadParams(f"trace has {len(results)} results, expected one")
    return results[0]


_T = TypeVar("_T")


def _resolve(refs: Mapping[str, _T], ref: str) -> _T:
    """What ``ref`` names in ``refs``, keyed ``in<i>`` and ``s<k>``."""
    if ref not in refs:
        raise BadParams(f"trace ref {ref!r} names no input or earlier step")
    return refs[ref]


class _TraceBuilder:
    """Accumulates steps while a construction runs.

    Every graph the construction touches lives under a ref, so the
    finished trace is replayable by, er, construction.
    """

    def __init__(self, inputs: Sequence[Graph]):
        self.inputs = tuple(inputs)
        self.steps: list[TraceStep] = []
        self.notes: list[str] = []
        self._graphs: dict[str, Graph] = {
            f"in{i}": g for i, g in enumerate(self.inputs)
        }

    def graph(self, ref: str) -> Graph:
        return _resolve(self._graphs, ref)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def add(self, op: str, args: Sequence[str], note: str = "") -> str:
        operands = [self.graph(a) for a in args]
        out = _apply(op, operands)
        ref = f"s{len(self.steps)}"
        self.steps.append(
            TraceStep(
                op,
                tuple(args),
                tuple(g.n for g in operands),
                out.n,
                note,
            )
        )
        self._graphs[ref] = out
        return ref

    def finish(self, ref: str) -> tuple[Graph, ConstructionTrace]:
        """The graph under ``ref`` and the trace with it as its one result."""
        trace = ConstructionTrace(
            self.inputs, tuple(self.steps), (ref,), tuple(self.notes)
        )
        return self.graph(ref), trace


# ---------------------------------------------------------------------------
# shared phases


def _connect(tb: _TraceBuilder, ref: str) -> str:
    """Cone ``ref`` if it is disconnected; otherwise leave it alone."""
    if is_connected(tb.graph(ref)):
        return ref
    return tb.add(
        "cone",
        [ref],
        note="apex over a disconnected graph: connectivity gained, "
        "fine-algebra status unchanged",
    )


def _grow_distinct(tb: _TraceBuilder, refs: list[str]) -> list[str]:
    """Pendant-expand later factors until all orders are distinct.

    Collisions are resolved left to right and always grow the later
    index, so the outcome is deterministic: orders ``[3, 3, 3]`` become
    ``[3, 6, 12]``.  Each expansion doubles the order, so every final
    order follows from the input orders, and one above the cap is refused
    before any expansion is built.
    """
    finals: list[int] = []
    for ref in refs:
        n = tb.graph(ref).n
        while n in finals:
            n *= 2
        check_order(n)
        finals.append(n)
    refs = list(refs)
    for j, n in enumerate(finals):
        while tb.graph(refs[j]).n < n:
            refs[j] = tb.add(
                "corona_k1",
                [refs[j]],
                note="pendant expansion separates equal orders without "
                "losing connectivity or symmetry class",
            )
    return refs


# ---------------------------------------------------------------------------
# public constructions


def _prepare(
    name: str, gs: Sequence[Graph], expansion: str | None
) -> tuple[_TraceBuilder, list[str]]:
    """The phase :func:`build_free` and :func:`build_tensor` share: drop
    factors with fewer than two vertices, cone each disconnected factor,
    pendant-expand every factor once when ``expansion`` gives the step's
    note, and grow orders apart.  When every factor is trivial no ref
    comes back, the builders return factor 0 unchanged, and the note
    says so."""
    if not gs:
        raise EmptyInput(f"{name} needs at least one factor")
    tb = _TraceBuilder(gs)
    refs = []
    for i, g in enumerate(gs):
        if g.n >= 2:
            refs.append(_connect(tb, f"in{i}"))
        else:
            what = "a single vertex" if g.n else "the graph with no vertices"
            tb.note(f"dropped factor {i}: {what} contributes nothing")
    if not refs:
        result = "the one-vertex graph" if gs[0].n else "the graph with no vertices"
        tb.note(f"all factors trivial; the result is {result}")
    if expansion:
        refs = [tb.add("corona_k1", [r], note=expansion) for r in refs]
    return tb, _grow_distinct(tb, refs)


def build_free(gs: Sequence[Graph]) -> tuple[Graph, ConstructionTrace]:
    """Connected graph whose symmetries compose freely across factors.

    Pipeline: drop factors with fewer than two vertices, cone each
    disconnected factor, grow orders apart, take the disjoint union, and
    cone once more if more than one factor remains.  Because the
    pre-cone components have pairwise distinct orders, no symmetry can
    exchange them, and the automorphism group of the result is the
    direct product of the factors' groups.
    """
    tb, refs = _prepare("build_free", gs, None)
    if len(refs) > 1:
        union = tb.add(
            "disjoint_union",
            refs,
            note="components now have pairwise distinct orders, so none "
            "can be exchanged",
        )
        refs = [
            tb.add(
                "cone",
                [union],
                note="apex over the (disconnected) union restores "
                "connectivity and preserves the fine-algebra status",
            )
        ]
    return tb.finish(refs[0] if refs else "in0")


def build_tensor(gs: Sequence[Graph]) -> tuple[Graph, ConstructionTrace]:
    """Connected graph whose symmetries compose as a tensor across factors.

    Pipeline: drop factors with fewer than two vertices, cone each
    disconnected factor, pendant-expand *every* factor at least once
    (this makes each factor's complement connected), grow orders apart,
    and join.  The complement of the result is then a disjoint union of
    factors whose complements are connected, one per surviving input.
    """
    tb, refs = _prepare(
        "build_tensor",
        gs,
        "pendant expansion makes the factor's complement connected",
    )
    if len(refs) > 1:
        refs = [
            tb.add(
                "join",
                refs,
                note="join of factors with connected complements and "
                "pairwise distinct orders",
            )
        ]
    return tb.finish(refs[0] if refs else "in0")


def build_wreath(g1: Graph, g2: Graph) -> tuple[Graph, ConstructionTrace]:
    """Corona of a connected version of ``g1`` with attachment ``g2``.

    The symmetries of the result compose the base's with one copy of the
    attachment's per base vertex (a wreath shape).  That composition law
    needs either a base with no isolated vertices -- automatic once the
    base is connected on two or more vertices -- or an attachment whose
    complement has no isolated vertices.  The one way to miss both is a
    single-vertex base with a dominating attachment vertex, which raises
    :class:`HypothesisFailed`.
    """
    tb = _TraceBuilder([g1, g2])
    ref1 = _connect(tb, "in0")
    base = tb.graph(ref1)
    if base.n == 1 and any(d == g2.n - 1 for d in g2.degree_sequence):
        raise HypothesisFailed(
            "single-vertex base with a dominating attachment vertex: "
            "the wreath composition law does not hold"
        )
    return tb.finish(
        tb.add(
            "corona",
            [ref1, "in1"],
            note="corona over a connected base realises the wreath-shaped "
            "symmetry composition",
        )
    )

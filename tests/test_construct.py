from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from qsym import (
    are_isomorphic,
    build,
    complement,
    complete,
    corona,
    cycle,
    disjoint_union,
    edgeless,
    path,
)
import qsym.construct
from qsym.automorphisms import automorphisms
from qsym.construct import (
    ConstructionTrace,
    TraceStep,
    build_free,
    build_tensor,
    build_wreath,
    cone,
    corona_k1,
    join,
    replay,
)
from qsym.errors import BadParams, EmptyInput, HypothesisFailed
from qsym.graphs import components, is_connected

from .conftest import graphs, time_limit

K1 = build(1, [])
K2 = complete(2)
C3 = cycle(3)
C5 = cycle(5)
P3 = path(2)  # three vertices


def aut_order(g) -> int:
    return len(automorphisms(g).elements)


# ---------------------------------------------------------------------------
# primitives


def test_cone_adds_a_dominating_apex():
    g = cone(edgeless(2))
    assert g.n == 3
    assert g.degree(2) == 2
    assert are_isomorphic(g, P3) is not None


def test_cone_preserves_base_adjacency():
    g = cone(C5)
    assert g.n == 6
    assert all(g.adj[5, v] for v in range(5))
    assert [sorted(u for u in range(5) if g.adj[v, u]) for v in range(5)] == [
        sorted(u for u in range(5) if C5.adj[v, u]) for v in range(5)
    ]


def test_corona_k1_hangs_one_pendant_per_vertex():
    g = corona_k1(K2)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]
    assert are_isomorphic(g, path(3)) is not None


@pytest.mark.parametrize("base", [K2, C3, C5, complete(4)])
def test_corona_k1_complement_is_connected(base):
    assert is_connected(complement(corona_k1(base)))


def test_join_is_complement_of_union_of_complements():
    parts = [K2, C3, P3]
    direct_def = join(parts)
    via_complements = complement(disjoint_union([complement(g) for g in parts]))
    assert direct_def == via_complements


@settings(max_examples=30)
@given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
def test_join_matches_complement_formulation(g1, g2):
    assert join([g1, g2]) == complement(
        disjoint_union([complement(g1), complement(g2)])
    )


def test_join_refuses_an_order_above_the_cap_before_allocating(monkeypatch):
    many, big = [edgeless(65)] * 64, edgeless(4096)
    monkeypatch.setattr(qsym.construct, "np", None)  # any allocation would fail
    with pytest.raises(BadParams, match="4160 is above the limit"):
        join(many)
    with pytest.raises(BadParams, match="4097 is above the limit"):
        cone(big)


def test_join_rejects_empty_input():
    with pytest.raises(EmptyInput):
        join([])


# ---------------------------------------------------------------------------
# build_free: connecting a factor


def test_connected_input_passes_through():
    g, trace = build_free([C5])
    assert g is C5
    assert trace.steps == ()
    assert trace.results == ("in0",)
    assert replay(trace) == C5


def test_disconnected_input_gets_coned():
    base = disjoint_union([K2, K2])
    g, trace = build_free([base])
    assert g == cone(base)
    assert is_connected(g)
    assert [s.op for s in trace.steps] == ["cone"]
    assert trace.steps[0].note  # the guarantee is written down
    assert replay(trace) == g


# ---------------------------------------------------------------------------
# build_free: growing orders apart


def _union_step(trace):
    (step,) = [s for s in trace.steps if s.op == "disjoint_union"]
    return step


def test_distinct_orders_grows_later_indices():
    g, trace = build_free([C3, C3, C3])
    union = _union_step(trace)
    assert union.operand_orders == (3, 6, 12)
    assert union.args[0] == "in0"  # the first factor stays as it is
    assert trace.final_order == g.n == 22
    assert replay(trace) == g


def test_distinct_orders_two_equal_factors():
    _, trace = build_free([K2, K2])
    assert _union_step(trace).operand_orders == (2, 4)


def test_distinct_orders_leaves_distinct_inputs_alone():
    _, trace = build_free([K2, C3, C5])
    assert [s.op for s in trace.steps] == ["disjoint_union", "cone"]
    assert _union_step(trace).args == ("in0", "in1", "in2")


def test_distinct_orders_stops_at_the_order_cap():
    # the twelfth C3 would be doubled eleven times, to 6,144 vertices
    with time_limit(10), pytest.raises(BadParams, match="6144 is above the limit"):
        build_free([C3] * 12)


def test_distinct_orders_refuses_before_any_expansion(monkeypatch):
    # the final orders follow from the input orders, so the cap is
    # checked before the first pendant expansion is built
    expansions = []

    def counting(g):
        expansions.append(g.n)
        return corona_k1(g)

    monkeypatch.setitem(qsym.construct._OPS, "corona_k1", (counting, 1))
    with pytest.raises(BadParams, match="6144 is above the limit"):
        build_free([C3] * 12)
    assert expansions == []
    build_free([C3] * 3)
    assert expansions == [3, 3, 6]


@settings(max_examples=25)
@given(graphs(min_n=2, max_n=4), graphs(min_n=2, max_n=4), graphs(min_n=2, max_n=4))
def test_distinct_orders_always_distinct(g1, g2, g3):
    gs = [g for g in (g1, g2, g3) if is_connected(g)]
    if len(gs) < 2:
        return
    g, trace = build_free(gs)
    orders = _union_step(trace).operand_orders
    assert len(set(orders)) == len(orders) == len(gs)
    assert replay(trace) == g


# ---------------------------------------------------------------------------
# build_free


def test_build_free_two_k2_factors():
    g, trace = build_free([K2, K2])
    assert g.n == 7
    assert is_connected(g)
    assert trace.final_order == 7
    assert [s.op for s in trace.steps] == ["corona_k1", "disjoint_union", "cone"]
    assert replay(trace) == g


def test_build_free_drops_trivial_factors():
    g, trace = build_free([K1, C5])
    assert g == C5
    assert any("dropped" in note for note in trace.notes)
    assert replay(trace) == g


def test_build_free_all_trivial_returns_k1():
    g, trace = build_free([K1, K1, K1])
    assert g.n == 1
    assert any("trivial" in note for note in trace.notes)
    assert replay(trace) == g


def test_build_free_rejects_empty():
    with pytest.raises(EmptyInput):
        build_free([])


def test_build_free_cones_disconnected_factors():
    g, trace = build_free([disjoint_union([K2, K2]), C3])
    ops = [s.op for s in trace.steps]
    assert ops[0] == "cone"  # the 2K2 factor gets an apex first
    assert is_connected(g)
    assert replay(trace) == g


def test_build_free_union_operands_have_distinct_orders():
    g, trace = build_free([C3, C3, K2, disjoint_union([K2, K2])])
    union_steps = [s for s in trace.steps if s.op == "disjoint_union"]
    assert len(union_steps) == 1
    orders = union_steps[0].operand_orders
    assert len(set(orders)) == len(orders)
    assert replay(trace) == g


def test_build_free_aut_group_is_the_product():
    g, trace = build_free([P3, C5])
    assert g.n == 9
    assert aut_order(g) == aut_order(P3) * aut_order(C5) == 20
    assert replay(trace) == g


def test_build_free_aut_product_with_growth():
    # the second K2 becomes a four-vertex path; both factors keep group order 2
    g, _ = build_free([K2, K2])
    assert aut_order(g) == 4


# ---------------------------------------------------------------------------
# build_tensor


def test_build_tensor_two_k2_factors():
    g, trace = build_tensor([K2, K2])
    assert g.n == 12
    assert [s.op for s in trace.steps].count("join") == 1
    assert replay(trace) == g


def test_build_tensor_singleton_is_pendant_expansion():
    g, trace = build_tensor([C3])
    assert g == corona_k1(C3)
    assert replay(trace) == g


def test_build_tensor_expands_every_factor():
    g, trace = build_tensor([K2, C3, C5])
    ops = [s.op for s in trace.steps]
    # one mandatory pendant expansion per surviving factor, before any join
    assert ops.count("corona_k1") >= 3
    assert replay(trace) == g


def test_build_tensor_complement_decomposes():
    g, _ = build_tensor([K2, C3, K2])
    comps = components(complement(g))
    assert len(comps) == 3
    for comp in comps:
        idx = sorted(comp)
        sub = build(
            len(idx),
            [
                (idx.index(u), idx.index(v))
                for u, v in complement(g).edges()
                if u in comp and v in comp
            ],
        )
        assert is_connected(complement(sub))


def test_build_tensor_all_trivial_returns_k1():
    g, trace = build_tensor([K1])
    assert g.n == 1
    assert replay(trace) == g


def test_build_tensor_rejects_empty():
    with pytest.raises(EmptyInput):
        build_tensor([])


# ---------------------------------------------------------------------------
# factors with no vertices


@pytest.mark.parametrize("builder", [build_free, build_tensor])
@pytest.mark.parametrize(
    "orders, result, note",
    [
        ((0, 0), 0, "the graph with no vertices"),
        ((0, 1), 0, "the graph with no vertices"),
        ((1, 0), 1, "the one-vertex graph"),
    ],
)
def test_builders_drop_zero_vertex_factors(builder, orders, result, note):
    with time_limit(2):
        g, trace = builder([edgeless(n) for n in orders])
    assert g.n == result
    assert trace.steps == ()
    assert trace.notes[-1] == f"all factors trivial; the result is {note}"
    assert replay(trace) == g


def test_zero_vertex_factor_contributes_nothing():
    g, trace = build_free([C5, edgeless(0)])
    assert g == C5
    assert trace.notes == (
        "dropped factor 1: the graph with no vertices contributes nothing",
    )


# ---------------------------------------------------------------------------
# build_wreath


def test_build_wreath_cones_disconnected_base():
    g, trace = build_wreath(edgeless(2), K2)
    assert g.n == 9
    assert [s.op for s in trace.steps] == ["cone", "corona"]
    assert replay(trace) == g


def test_build_wreath_connected_base_is_plain_corona():
    g, trace = build_wreath(C3, path(1))
    assert g == corona(C3, path(1))
    assert [s.op for s in trace.steps] == ["corona"]
    assert replay(trace) == g


def test_build_wreath_k1_base_with_dominating_attachment_fails():
    with pytest.raises(HypothesisFailed):
        build_wreath(K1, complete(4))


def test_build_wreath_k1_base_without_dominating_vertex_is_fine():
    g, trace = build_wreath(K1, C5)
    assert g.n == 6
    assert replay(trace) == g


def test_wreath_aut_order_composes():
    g, _ = build_wreath(C3, path(1))
    assert aut_order(g) == aut_order(path(1)) ** 3 * aut_order(C3) == 48


@settings(max_examples=20, deadline=None)
@given(graphs(min_n=1, max_n=3), graphs(min_n=1, max_n=2))
def test_wreath_aut_order_matches_composition(g1, g2):
    base = g1 if is_connected(g1) else cone(g1)
    try:
        g, _ = build_wreath(g1, g2)
    except HypothesisFailed:
        assert base.n == 1
        assert any(d == g2.n - 1 for d in g2.degree_sequence)
        return
    assert aut_order(g) == aut_order(g2) ** base.n * aut_order(base)


# ---------------------------------------------------------------------------
# traces as data


def test_trace_payload_shape():
    _, trace = build_free([K2, K2])
    doc = trace.payload()
    assert doc["final_order"] == 7
    assert doc["input_orders"] == [2, 2]
    assert [s["op"] for s in doc["steps"]] == [
        "corona_k1",
        "disjoint_union",
        "cone",
    ]
    for step in doc["steps"]:
        assert set(step) == {"op", "args", "operand_orders", "order", "note"}


def test_replay_rejects_tampered_orders():
    _, trace = build_free([K2, K2])
    bad_step = dataclasses.replace(trace.steps[0], order=99)
    bad = ConstructionTrace(
        trace.inputs,
        (bad_step,) + trace.steps[1:],
        trace.results,
        trace.notes,
    )
    with pytest.raises(BadParams):
        replay(bad)


def test_replay_rejects_dangling_refs():
    trace = ConstructionTrace((K2,), (), ("in5",))
    with pytest.raises(BadParams):
        replay(trace)


@pytest.mark.parametrize("ref", ["inx", "s3", "in-1"])
@pytest.mark.parametrize(
    "read",
    [lambda t: t.final_order, lambda t: t.payload()],
    ids=["final_order", "payload"],
)
def test_trace_orders_reject_refs_that_replay_rejects(ref, read):
    trace = ConstructionTrace((K2,), (), (ref,))
    with pytest.raises(BadParams, match="names no input or earlier step"):
        replay(trace)
    with pytest.raises(BadParams, match="names no input or earlier step"):
        read(trace)


def _one_step(op, args, operand_orders, order):
    return ConstructionTrace(
        (K2, C3), (TraceStep(op, args, operand_orders, order),), ("s0",)
    )


@pytest.mark.parametrize(
    "trace",
    [
        _one_step("cone", ("inx",), (2,), 3),
        _one_step("cone", ("s0",), (2,), 3),
        ConstructionTrace((K2,), (TraceStep("cone", ("in0",), (2,), 3),), ("s1",)),
        ConstructionTrace((K2,), (), ("in1",)),
        _one_step("suspend", ("in0",), (2,), 3),
        _one_step("corona", ("in0",), (2,), 6),
        _one_step("cone", ("in0", "in1"), (2, 3), 6),
        _one_step("join", (), (), 0),
        _one_step("disjoint_union", ("in0", "in1"), (3, 2), 5),
    ],
    ids=[
        "malformed-ref",
        "ref-to-its-own-step",
        "result-past-the-last-step",
        "result-to-no-input",
        "unknown-op",
        "corona-with-one-operand",
        "cone-with-two-operands",
        "join-of-nothing",
        "operand-orders-disagree",
    ],
)
def test_replay_rejects_inconsistent_traces(trace):
    with pytest.raises(BadParams):
        replay(trace)


def test_replay_wants_exactly_one_result():
    for results in [(), ("in0", "in1")]:
        trace = ConstructionTrace((K2, C3), (), results)
        with pytest.raises(BadParams, match="expected one"):
            replay(trace)
        with pytest.raises(BadParams, match="expected one"):
            trace.final_order


@settings(max_examples=25, deadline=None)
@given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
def test_build_free_replays_bit_for_bit(g1, g2):
    g, trace = build_free([g1, g2])
    assert replay(trace) == g
    assert trace.final_order == g.n

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from qsym import build, complete, cycle, edgeless, path
from qsym.errors import BadParams, ParseError
from qsym.formats import (
    READABLE_FORMATS,
    WRITABLE_FORMATS,
    parse_graph,
    write_graph,
)

from .conftest import graphs, small_corpus, time_limit


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("fmt", READABLE_FORMATS)
@pytest.mark.parametrize(
    "g", small_corpus(), ids=lambda g: f"n{g.n}m{g.edge_count}"
)
def test_round_trip_on_corpus(fmt, g):
    assert parse_graph(fmt, write_graph(fmt, g)) == g


@settings(max_examples=60)
@given(graphs(max_n=9))
def test_round_trip_random(g):
    for fmt in READABLE_FORMATS:
        assert parse_graph(fmt, write_graph(fmt, g)) == g


def test_round_trip_with_multibyte_size_prefix():
    g = build(70, [(0, 69), (1, 2)])
    assert parse_graph("graph6", write_graph("graph6", g)) == g


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_write_is_canonical():
    out = write_graph("edges", cycle(4)).decode()
    assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_edge_list_reader_tolerates_blank_lines_and_order():
    g = parse_graph("edges", "3 2\n\n2 1\n\n0 1\n")
    assert g == path(2)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("nonsense", 1),
        ("3 1\n0 0", 2),
        ("3 1\n0 7", 2),
        ("3 2\n0 1\n0 1", 3),
        ("3 1\n0 1\n1 2", 3),
        ("2 1\n0 1 2", 2),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_graph("edges", text)
    assert err.value.line == lineno


def test_edge_list_truncated_body():
    with pytest.raises(ParseError):
        parse_graph("edges", "4 3\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("edges", "")


# ---------------------------------------------------------------------------
# graph6


@pytest.mark.parametrize(
    "g,expected",
    [
        (build(1, []), "@"),
        (complete(2), "A_"),
        (edgeless(2), "A?"),
        (complete(3), "Bw"),
        (complete(4), "C~"),
    ],
)
def test_graph6_known_encodings(g, expected):
    assert write_graph("graph6", g).decode().strip() == expected
    assert parse_graph("graph6", expected) == g


def test_graph6_accepts_standard_header():
    assert parse_graph("graph6", ">>graph6<<Bw") == complete(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "B",  # body too short for n=3
        "Bww",  # body too long
        "Bw\x07",  # byte outside the printable range
        "B{",  # nonzero padding bits: n=3 needs 3 bits, rest must be 0
    ],
)
def test_graph6_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_graph("graph6", text)


def _graph6_edgeless(n: int, last: str = "?") -> str:
    """A graph6 string of the right length for ``n`` vertices (n >= 63),
    all bits zero except those of ``last``, the final body byte."""
    prefix = "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    need = (n * (n - 1) // 2 + 5) // 6
    return prefix + "?" * (need - 1) + last


def test_graph6_over_the_cap_is_refused_before_expansion():
    # 4,097 vertices: 8,390,656 bits in 1,398,443 body bytes, which as a
    # list of bits would take over 60 MB
    text = _graph6_edgeless(4097)
    tracemalloc.start()
    try:
        with time_limit(10), pytest.raises(BadParams, match="4097 is above the limit"):
            parse_graph("graph6", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # 8,390,656 bits leave two padding bits in the last byte
        (_graph6_edgeless(4097, "@"), "byte 1398446: nonzero padding bits"),
        (_graph6_edgeless(4097)[:-1], "byte 4: expected 1398443 body bytes"),
        ("B{", "byte 1: nonzero padding bits"),
    ],
    ids=["padding-over-the-cap", "length-over-the-cap", "padding"],
)
def test_graph6_parse_errors_come_before_the_order_cap(text, message):
    with time_limit(10), pytest.raises(ParseError, match=message):
        parse_graph("graph6", text)


def test_graph6_bytes_and_str_agree():
    data = write_graph("graph6", cycle(6))
    assert parse_graph("graph6", data) == parse_graph("graph6", data.decode())


# ---------------------------------------------------------------------------
# DOT


def test_dot_mentions_every_vertex_and_edge():
    g = build(3, [(0, 1)], labels=["a", "b", "c"])
    out = write_graph("dot", g).decode()
    assert out.startswith("graph {")
    assert '2 [label="c"];' in out
    assert "0 -- 1;" in out


def test_dot_is_write_only():
    with pytest.raises(BadParams):
        parse_graph("dot", "graph { 0; }")


def test_unknown_format():
    with pytest.raises(BadParams):
        write_graph("adjacency", complete(2))
    with pytest.raises(BadParams):
        parse_graph("adjacency", "x")
    assert "dot" in WRITABLE_FORMATS

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from qsym import build, complement, complete, cycle, edgeless, gallery, path
from qsym.errors import BadParams, ParseError
from qsym.graphs import check_order
from qsym.formats import (
    READABLE_FORMATS,
    WRITABLE_FORMATS,
    parse_graph,
    read_int,
    write_graph,
)

from .conftest import SPARSE_GALLERY, graphs, kernel_corpus, small_corpus, time_limit


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
    # fields split at runs of spaces and tabs; a line of them is blank
    assert parse_graph("edges", b"3\t2\n \t\n 0 \t1\t\n1  2\n") == g


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("nonsense", 1),
        ("3 1\n0 0", 2),
        ("3 1\n0 7", 2),
        ("3 2\n0 1\n0 1", 3),
        ("3 1\n0 1\n1 2", 3),
        ("2 1\n0 1 2", 2),
        # only plain ASCII decimals: int() alone reads each of these
        ("1_2 1\n0 1", 1),
        ("+3 1\n0 1", 1),
        ("3 \u0661\n0 1", 1),
        ("12 1\n1_0 2", 2),
        ("3 1\n+0 1", 2),
        ("3 1\n\u0660 1", 2),
        ("3 2\n0 1\n1 \uff12", 3),
        # rows split at ASCII spaces and tabs only
        ("2 1\n0\x1f1\n", 2),
        ("2\x1f1\n0 1\n", 1),
        ("3 2\n0 1\n1\u20032\n", 3),
        ("3 1\n0 1\n\x1f\n", 3),
    ],
)
def test_edge_list_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_graph("edges", text)
    assert err.value.line == lineno


@pytest.mark.parametrize("text, value", [("0", 0), ("-1", -1), ("12", 12), ("007", 7)])
def test_read_int_takes_plain_decimals(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize(
    "text", ["", "-", "--1", "+1", "1_0", " 1", "1 ", "1.0", "0x1", "\u0660", "\u00b9"]
)
def test_read_int_refuses_what_int_alone_would_read_or_refuse(text):
    with pytest.raises(ValueError):
        read_int(text)


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


def reference_parse_graph6(text: str):
    """The earlier parser, which expands the body into Python lists of bits
    and edges: the reference for the one that unpacks it with numpy."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 input")
    for pos, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {pos}: {ch!r} is not a graph6 character")
    if s[0] == chr(126):
        if len(s) < 4:
            raise ParseError("byte 0: truncated multi-byte size prefix")
        if s[1] == chr(126):
            raise ParseError("byte 1: sizes beyond 18 bits are not supported")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body, body_start = s[4:], 4
    else:
        n = ord(s[0]) - 63
        body, body_start = s[1:], 1
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"byte {body_start}: expected {need} body bytes for n={n}, "
            f"got {len(body)}"
        )
    if body and (ord(body[-1]) - 63) & ((1 << (-total % 6)) - 1):
        raise ParseError(f"byte {body_start + total // 6}: nonzero padding bits")
    check_order(n)
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build(n, edges)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, BadParams) as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(graphs(max_n=12))
def test_graph6_parser_equals_the_reference(g):
    text = write_graph("graph6", g).decode()
    assert parse_graph("graph6", text) == reference_parse_graph6(text) == g


@pytest.mark.parametrize(
    "text",
    [
        "?", "@", "A_", "A?", ">>graph6<<Bw", "  Bw\n", "", "B", "Bww", "Bw\x07",
        "B{", "~", "~??", "~~???", "~?@?", "~?@@" + "?" * 335,
        write_graph("graph6", path(62)).decode(),
        write_graph("graph6", cycle(63)).decode(),
        write_graph("graph6", build(70, [(0, 69), (1, 2), (68, 69)])).decode(),
        _graph6_edgeless(4097),
        _graph6_edgeless(4097, "@"),
    ],
)
def test_graph6_parser_equals_the_reference_on_edge_cases(text):
    want = _parse_outcome(reference_parse_graph6, text)
    assert _parse_outcome(lambda t: parse_graph("graph6", t), text) == want


def test_graph6_at_the_cap_is_parsed_without_a_bit_list():
    # the reference holds 8,386,560 bits in a list, over 117 MB at peak;
    # unpacked into the matrix, which the graph then owns without a copy
    # or a transposed check, it is under two of the 16 MiB matrices
    text = _graph6_edgeless(4096)
    tracemalloc.start()
    try:
        with time_limit(10):
            g = parse_graph("graph6", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n, g.edge_count) == (4096, 0)
    assert peak < 2 * 4096**2


def reference_write_graph6(g) -> str:
    """The pair-by-pair writer the packed one replaced: the upper
    triangle column by column, six bits a character, zero-padded."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = [chr(126)] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    group = filled = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | int(g.adj[i, j])
            filled += 1
            if filled == 6:
                out.append(chr(63 + group))
                group = filled = 0
    if filled:
        out.append(chr(63 + (group << (6 - filled))))
    return "".join(out) + "\n"


def _writer_cases():
    yield from kernel_corpus()
    for name in (*SPARSE_GALLERY, "cherry2", "prism7", "k3_3", "star9", "c4pn10"):
        yield gallery(name)
    for n in (0, 1, 2, 62, 63, 64, 65):
        yield edgeless(n)
        yield complete(n)
        yield complement(path(n - 1)) if n else edgeless(0)
        yield build(n, [(0, n - 1)] if n >= 2 else [])


def test_graph6_writer_equals_the_reference():
    for g in _writer_cases():
        assert write_graph("graph6", g).decode() == reference_write_graph6(g), g


def test_graph6_writer_at_scale():
    g = complement(path(4094))
    with time_limit(1.5):
        text = write_graph("graph6", g)
    assert parse_graph("graph6", text) == g


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


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = build(3, [(0, 1)], labels=['a"b', "c\\", "plain"])
    out = write_graph("dot", g).decode()
    assert '  0 [label="a\\"b"];' in out
    assert '  1 [label="c\\\\"];' in out
    assert '  2 [label="plain"];' in out


@pytest.mark.parametrize("name", ["sc", "fig7", "c4pn20"])
def test_dot_leaves_the_gallery_labels_as_they_are(name):
    g = gallery(name)
    assert g.labels is not None
    lines = write_graph("dot", g).decode().splitlines()
    assert lines[1 : 1 + g.n] == [
        f'  {v} [label="{label}"];' for v, label in enumerate(g.labels)
    ]


def test_dot_is_write_only():
    with pytest.raises(BadParams):
        parse_graph("dot", "graph { 0; }")


def test_unknown_format():
    with pytest.raises(BadParams):
        write_graph("adjacency", complete(2))
    with pytest.raises(BadParams):
        parse_graph("adjacency", "x")
    assert "dot" in WRITABLE_FORMATS

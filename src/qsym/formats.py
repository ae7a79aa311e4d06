"""Reading and writing graphs as text.

Two readable formats and one write-only export:

* ``edges`` -- a header line ``n m`` followed by ``m`` lines ``u v``
  (0-based).  The writer emits each edge once with ``u < v``, sorted;
  the reader is forgiving about edge order and blank lines but rejects
  loops, out-of-range vertices and count mismatches, always naming the
  offending line.
* ``graph6`` -- the standard printable ASCII encoding: a size prefix,
  then the upper triangle of the adjacency matrix read column by
  column, packed into 6-bit groups offset by 63.  Byte-exact against
  other implementations.
* ``dot`` -- an undirected ``graph`` block with numeric node ids, for
  handing to layout tools.  Write-only.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterable

import numpy as np

from .errors import BadParams, ParseError
from .graphs import Graph, _init_graph, _pack_rows, _unpack_rows, build, check_order

__all__ = ["READABLE_FORMATS", "WRITABLE_FORMATS", "parse_graph", "write_graph"]


# ---------------------------------------------------------------------------
# edge lists


def read_int(text: str) -> int:
    """``text`` as a plain decimal integer, ASCII ``-?[0-9]+``; anything else
    ``int`` takes, such as ``1_0``, ``+1`` or a non-ASCII digit, is refused."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(f"not a decimal integer: {text!r}")


#: An edge row, or the edge-list header: two plain ASCII decimals, as
#: :func:`read_int` reads them, split and padded by ASCII spaces and tabs
#: only (``str.split()`` would also split at ``\x1c``-``\x1f`` and at any
#: Unicode space).  Compiled on first use and kept in :mod:`re`'s cache.
_PAIR = r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*"


def read_edges(
    n: int, rows: Iterable[tuple[int, str]], error: Callable[[str, int], ParseError]
) -> set[tuple[int, int]]:
    """The per-edge rules of both edge readers, the edge-list file's and
    ``--edges``': each ``(place, text)`` row is two integers ``u v``, no
    loop, both ends in 0..n-1, no edge twice.  A row that breaks one
    raises ``error(message, place)``.  Edges come back as ``(min, max)``."""
    seen: set[tuple[int, int]] = set()
    pair = re.compile(_PAIR).fullmatch
    for place, text in rows:
        found = pair(text)
        if found is None:
            raise error(f"expected two integers, got {text.strip()!r}", place)
        a, b = int(found[1]), int(found[2])
        if a == b:
            raise error(f"loop at vertex {a}", place)
        if not (0 <= a < n and 0 <= b < n):
            raise error(f"edge ({a}, {b}) outside 0..{n - 1}", place)
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise error(f"duplicate edge ({key[0]}, {key[1]})", place)
        seen.add(key)
    return seen


def _parse_edge_list(text: str) -> Graph:
    lines = ((i, raw) for i, raw in enumerate(text.splitlines(), 1) if raw.strip(" \t"))
    lineno, header = next(lines, (None, None))
    if header is None:
        raise ParseError("empty input: missing 'n m' header")
    found = re.fullmatch(_PAIR, header)
    if found is None:
        raise ParseError(f"expected two integers, got {header.strip()!r}", line=lineno)
    n, m = int(found[1]), int(found[2])
    if n < 0 or m < 0:
        raise ParseError("vertex and edge counts cannot be negative", line=lineno)
    edges = read_edges(n, itertools.islice(lines, m), ParseError)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError(f"more than the announced {m} edges", line=extra[0])
    if len(edges) != m:
        raise ParseError(f"header announced {m} edges but {len(edges)} followed")
    return build(n, edges)


def _write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6


def _write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    elif n <= 258047:
        out = [chr(126)] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    else:
        raise BadParams(f"graph too large for this writer: n={n}")
    # the inverse of _parse_graph6: column j of the upper triangle next,
    # zero-padded to whole groups, six bits a byte, high bit first
    total = n * (n - 1) // 2
    bits = np.zeros(-(-total // 6) * 6, dtype=bool)
    adj = _unpack_rows(g._bits)  # a local: the graph keeps only its bitmasks
    start = 0
    for j in range(1, n):
        bits[start : start + j] = adj[j, :j]
        start += j
    groups = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2
    out.append((groups + 63).tobytes().decode("ascii"))
    return "".join(out) + "\n"


def _parse_graph6(text: str) -> Graph:
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
        n = (
            ((ord(s[1]) - 63) << 12)
            | ((ord(s[2]) - 63) << 6)
            | (ord(s[3]) - 63)
        )
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
    # the padding is the low bits of the last byte, so it and the order
    # are checked before the upper triangle is expanded
    if body and (ord(body[-1]) - 63) & ((1 << (-total % 6)) - 1):
        raise ParseError(f"byte {body_start + total // 6}: nonzero padding bits")
    check_order(n)
    # six bits a byte, high bit first; column j of the upper triangle next
    groups = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel().view(bool)
    adj = np.zeros((n, n), dtype=bool)
    start = 0
    for j in range(1, n):
        adj[:j, j] = adj[j, :j] = bits[start : start + j]
        start += j
    del bits
    # both triangles come from the same bits and the diagonal is never
    # set, so the matrix is a graph's as it stands: packed, not checked
    return _init_graph(Graph.__new__(Graph), _pack_rows(adj), None, None)


# ---------------------------------------------------------------------------
# DOT export


def _write_dot(g: Graph) -> str:
    lines = ["graph {"]
    for v in range(g.n):
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch


#: The readers, text to graph, and the writers, graph to text, by format.
_READERS = {"edges": _parse_edge_list, "graph6": _parse_graph6}
_WRITERS = {"edges": _write_edge_list, "graph6": _write_graph6, "dot": _write_dot}
READABLE_FORMATS = tuple(_READERS)
WRITABLE_FORMATS = tuple(_WRITERS)


def parse_graph(fmt: str, data: bytes | str) -> Graph:
    """Parse ``data`` in the named readable format ('edges' or 'graph6').
    Both are ASCII, so any other byte is a :class:`ParseError`."""
    try:
        text = data.decode("ascii") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"byte {exc.start}: {data[exc.start]:#04x} is not ASCII"
        ) from None
    if fmt in _READERS:
        return _READERS[fmt](text)
    if fmt in _WRITERS:
        raise BadParams(f"{fmt} is write-only")
    raise BadParams(f"unknown graph format {fmt!r}")


def write_graph(fmt: str, g: Graph) -> bytes:
    """Serialize ``g`` in the named format ('edges', 'graph6' or 'dot')."""
    if fmt not in _WRITERS:
        raise BadParams(f"unknown graph format {fmt!r}")
    return _WRITERS[fmt](g).encode("ascii")

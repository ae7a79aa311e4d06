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

import numpy as np

from .errors import BadParams, ParseError
from .graphs import Graph, _init_graph, _pack_rows, build, check_order

__all__ = ["READABLE_FORMATS", "WRITABLE_FORMATS", "parse_graph", "write_graph"]

READABLE_FORMATS = ("edges", "graph6")
WRITABLE_FORMATS = ("edges", "graph6", "dot")


# ---------------------------------------------------------------------------
# edge lists


def _parse_edge_list(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {line!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", line=lineno)
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("vertex and edge counts cannot be negative", line=lineno)
            header = (a, b)
            continue
        n, m = header
        if len(edges) == m:
            raise ParseError(f"more than the announced {m} edges", line=lineno)
        if a == b:
            raise ParseError(f"loop at vertex {a}", line=lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"edge ({a}, {b}) outside 0..{n - 1}", line=lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ParseError(f"duplicate edge ({key[0]}, {key[1]})", line=lineno)
        seen.add(key)
        edges.append(key)
    if header is None:
        raise ParseError("empty input: missing 'n m' header")
    n, m = header
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
        out = [
            chr(126),
            chr(63 + ((n >> 12) & 63)),
            chr(63 + ((n >> 6) & 63)),
            chr(63 + (n & 63)),
        ]
    else:
        raise BadParams(f"graph too large for this writer: n={n}")
    group = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | int(g.adj[i, j])
            filled += 1
            if filled == 6:
                out.append(chr(63 + group))
                group = filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(63 + group))
    return "".join(out)


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
    # set, so the matrix is a graph's as it stands: no copy, no check
    return _init_graph(Graph.__new__(Graph), _pack_rows(adj), None, None, adj)


# ---------------------------------------------------------------------------
# DOT export


def _write_dot(g: Graph) -> str:
    lines = ["graph {"]
    for v in range(g.n):
        if g.labels is not None:
            lines.append(f'  {v} [label="{g.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch


def parse_graph(fmt: str, data: bytes | str) -> Graph:
    """Parse ``data`` in the named readable format ('edges' or 'graph6').
    Both are ASCII, so any other byte is a :class:`ParseError`."""
    try:
        text = data.decode("ascii") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"byte {exc.start}: {data[exc.start]:#04x} is not ASCII"
        ) from None
    if fmt == "edges":
        return _parse_edge_list(text)
    if fmt == "graph6":
        return _parse_graph6(text)
    if fmt == "dot":
        raise BadParams("dot is write-only")
    raise BadParams(f"unknown graph format {fmt!r}")


def write_graph(fmt: str, g: Graph) -> bytes:
    """Serialize ``g`` in the named format ('edges', 'graph6' or 'dot')."""
    if fmt == "edges":
        return _write_edge_list(g).encode("ascii")
    if fmt == "graph6":
        return (_write_graph6(g) + "\n").encode("ascii")
    if fmt == "dot":
        return _write_dot(g).encode("ascii")
    raise BadParams(f"unknown graph format {fmt!r}")

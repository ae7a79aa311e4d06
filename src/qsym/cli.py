"""Command line driver.

Subcommands mirror the library: ``analyze`` classifies a graph and its
complement and emits a JSON report; ``product`` and ``construct`` build
graphs; ``gallery`` serves the named exhibits; ``census`` runs the
enumeration surveys as CSV; ``pattern`` prints the forced-zero grid.

Exit codes are part of the contract and stay stable:

* 0 -- success, *including* Unknown verdicts (an engine that is
  deliberately incomplete must not confuse "no rule fired" with
  failure),
* 1 -- a census found violations,
* 2 -- unparseable input,
* 3 -- a precondition was violated (bad construction inputs, unknown
  gallery names, out-of-range census sizes, ...),
* 4 -- a search exceeded its node budget where that is fatal.

The default node budget can be overridden per call with ``--budget``,
which must be a non-negative integer.  It caps each automorphism
listing: Aut(G) is found as a stabiliser chain by first-leaf searches,
each candidate image tried at a search level costs one node, and once
the chain gives the group order, each entry of the listing (order times
n) costs one more, before any element is built.  So a listing larger
than the budget is refused unbuilt.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from importlib import resources

from . import __version__, formats, products
from .census import (
    MAX_FOREST_ORDER,
    MAX_TREE_ORDER,
    check_forest_dichotomy,
    cherry_census,
    oracle_crosschecks,
    write_csv,
)
from .classify import Report, classify_with_complement
from .construct import _TraceBuilder, build_free, build_tensor, build_wreath
from .errors import BadParams, ParseError, QsymError, SizeLimitExceeded
from .formats import READABLE_FORMATS, WRITABLE_FORMATS, parse_graph, read_edges, write_graph
from .gallery import describe_gallery, gallery
from .graphs import Graph, build
from .reduction import blocks, render_pattern, zero_pattern

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

_PRODUCTS = {
    "cartesian": products.cartesian,
    "direct": products.direct,
    "strong": products.strong,
    "lex": products.lexicographic,
    "corona": products.corona,
}


def report_schema() -> dict:
    """The shipped JSON schema every report document conforms to."""
    text = resources.files("qsym").joinpath("report.schema.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# input plumbing


def _parse_inline_edges(spec: str) -> Graph:
    """The ``--edges "4;0 1;1 2"`` inline form: vertex count, then
    semicolon-separated edges, each read by the edge-list file's rules
    (:func:`qsym.formats.read_edges`).  Blank segments (spaces, tabs) are skipped."""
    count, *segments = spec.split(";")
    count = count.strip(" \t")
    if not count:
        raise ParseError("inline edges: missing vertex count")
    try:
        n = formats.read_int(count)
    except ValueError:
        raise ParseError(f"inline edges: bad vertex count {count!r}")
    if n < 0:
        raise ParseError("inline edges: vertex count cannot be negative")
    rows = ((k, s) for k, s in enumerate(segments, start=1) if s.strip(" \t"))
    edges = read_edges(
        n, rows, lambda message, k: ParseError(f"inline edges: segment {k}: {message}")
    )
    return build(n, edges)


def _gather_inputs(args) -> list[tuple[Graph, dict]]:
    """Resolve every requested graph, each with an input descriptor.
    Files come first, then ``--gallery`` names, then ``--edges`` specs."""
    out: list[tuple[Graph, dict]] = []
    for path in getattr(args, "files", None) or []:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc.strerror}")
        fmt = args.format if args.format in READABLE_FORMATS else "edges"
        if path.endswith(".g6"):
            fmt = "graph6"
        out.append((parse_graph(fmt, data), {"source": f"file:{path}", "format": fmt}))
    for name in getattr(args, "gallery", None) or []:
        out.append((gallery(name), {"source": f"gallery:{name}"}))
    for spec in getattr(args, "edges", None) or []:
        out.append((_parse_inline_edges(spec), {"source": "inline-edges"}))
    return out


def _one_input(args) -> tuple[Graph, dict]:
    found = _gather_inputs(args)
    if len(found) != 1:
        raise BadParams(f"expected exactly one input graph, got {len(found)}")
    return found[0]


def _budget(args) -> int | None:
    if args.budget is not None and args.budget < 0:
        raise BadParams(f"--budget must be non-negative, got {args.budget}")
    return args.budget


def _emit(args, text: str) -> None:
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParams(f"cannot write {args.out}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# documents


def _document(report: Report, descriptor: dict) -> dict:
    doc = {"version": __version__, "input": descriptor}
    doc.update(report.payload())
    return doc


def _pattern_payload(g: Graph) -> dict:
    pattern = zero_pattern(g)
    return {
        "rendered": render_pattern(g, pattern),
        "forced_count": pattern.forced_count,
        "blocks": [list(b) for b in blocks(pattern).blocks],
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    g, descriptor = _one_input(args)
    report = classify_with_complement(g, node_budget=_budget(args))
    doc = _document(report, descriptor)
    if args.pattern:
        doc["pattern"] = _pattern_payload(g)
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_pattern(args) -> int:
    g, descriptor = _one_input(args)
    if args.json:
        doc = {
            "version": __version__,
            "input": descriptor,
            "pattern": _pattern_payload(g),
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        text = render_pattern(g, zero_pattern(g))
        _emit(args, text if text.endswith("\n") else text + "\n")
    return EXIT_OK


def _graph_output(args, g: Graph, extra: dict | None = None) -> int:
    fmt = args.format
    if fmt not in WRITABLE_FORMATS:
        raise BadParams(f"unknown output format {fmt!r}")
    if args.json:
        doc: dict = {
            "version": __version__,
            "graph": {"format": fmt, "data": write_graph(fmt, g).decode()},
        }
        if extra:
            doc.update(extra)
        _emit(args, json.dumps(doc, indent=2) + "\n")
        return EXIT_OK
    _emit(args, write_graph(fmt, g).decode())
    if extra and "construction" in extra:
        # the trace always lands on stdout; with --out the graph goes to
        # the file and stdout carries only the trace
        sys.stdout.write(json.dumps(extra["construction"], indent=2) + "\n")
    return EXIT_OK


def _cmd_product(args) -> int:
    pair = _gather_inputs(args)
    if len(pair) != 2:
        raise BadParams(f"product needs exactly two graphs, got {len(pair)}")
    (g1, _), (g2, _) = pair
    return _graph_output(args, _PRODUCTS[args.kind](g1, g2))


def _cmd_construct(args) -> int:
    found = _gather_inputs(args)
    gs = [g for g, _ in found]
    if args.kind in ("cone", "corona-k1"):
        if len(gs) != 1:
            raise BadParams(f"{args.kind} takes exactly one graph, got {len(gs)}")
        tb = _TraceBuilder(gs)
        result, trace = tb.finish(tb.add(args.kind.replace("-", "_"), ["in0"]))
    elif args.kind == "wreath":
        if len(gs) != 2:
            raise BadParams(f"wreath takes exactly two graphs, got {len(gs)}")
        result, trace = build_wreath(gs[0], gs[1])
    else:
        builder = build_free if args.kind == "free" else build_tensor
        result, trace = builder(gs)
    return _graph_output(args, result, {"construction": trace.payload()})


def _cmd_gallery(args) -> int:
    if not args.name:
        _emit(args, describe_gallery() + "\n")
        return EXIT_OK
    return _graph_output(args, gallery(args.name))


def _cmd_census(args) -> int:
    if args.survey == "forests":
        result = check_forest_dichotomy(
            MAX_FOREST_ORDER if args.n_max is None else args.n_max
        )
    elif args.survey == "cherries":
        result = cherry_census(MAX_TREE_ORDER if args.n_max is None else args.n_max)
    else:
        result = oracle_crosschecks(seed=args.seed, count=args.count)
    buf = io.StringIO()
    write_csv(result, buf)
    _emit(args, buf.getvalue())
    if not result.ok:
        for violation in result.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_input_flags(p: argparse.ArgumentParser, many: bool = False) -> None:
    p.add_argument("files", nargs="*" if many else "?", default=None,
                   help="graph file(s); --format names the encoding, "
                   "*.g6 is always read as graph6")
    p.add_argument("--gallery", action="append", metavar="NAME",
                   help="named gallery graph (repeatable)")
    p.add_argument("--edges", action="append", metavar="SPEC",
                   help="inline edge list 'n;u v;u v;...' (repeatable)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="edges",
                   help="graph encoding: edges, graph6, or dot (output only)")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="wrap the output in a JSON document")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qsym",
        description="certified commutativity verdicts for graph symmetry algebras",
    )
    top.add_argument("--version", action="version", version=f"qsym {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a graph and its complement")
    _add_input_flags(p)
    p.add_argument("--format", default="edges", choices=READABLE_FORMATS,
                   help="input file encoding")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--budget", type=int, metavar="N",
                   help="node budget for symmetry searches")
    p.add_argument("--pattern", action="store_true",
                   help="include the forced-zero pattern in the report")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("product", help="binary graph products")
    p.add_argument("kind", choices=sorted(_PRODUCTS))
    _add_input_flags(p, many=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("construct", help="trace-carrying constructions")
    p.add_argument("kind", choices=["free", "tensor", "wreath", "cone", "corona-k1"])
    _add_input_flags(p, many=True)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("gallery", help="named example graphs")
    p.add_argument("name", nargs="?", help="omit to list the gallery")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_gallery, files=None, gallery=None, edges=None)

    p = sub.add_parser("census", help="exhaustive small-instance surveys")
    p.add_argument("survey", choices=["forests", "cherries", "oracle"])
    p.add_argument("--n-max", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED, metavar="S")
    p.add_argument("--count", type=int, default=200, metavar="K")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("pattern", help="print the forced-zero pattern")
    _add_input_flags(p)
    p.add_argument("--format", default="edges", choices=READABLE_FORMATS,
                   help="input file encoding")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_pattern)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every call with, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "files", None) is not None and isinstance(args.files, str):
        args.files = [args.files]
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"qsym: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitExceeded as exc:
        print(f"qsym: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QsymError as exc:
        print(f"qsym: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

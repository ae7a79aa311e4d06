"""End-to-end tests for the command line driver.

Everything goes through ``main(argv)`` so exit codes and output are
checked exactly as a shell user would see them.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsym import cli
from qsym.cli import main, report_schema
from qsym.errors import SizeLimitExceeded
from qsym.formats import parse_graph
from qsym.gallery import gallery
from qsym import are_isomorphic

from .conftest import time_limit


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# the parser


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser

    def counting():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in (
            ["gallery"],
            ["gallery", "c4"],
            ["analyze", "--gallery", "c4"],
            ["pattern", "--gallery", "p48"],
            ["product", "cartesian", "--gallery", "c4", "--gallery", "c4"],
        ):
            assert run(capsys, *argv)[0] == 0, argv
        assert run(capsys, "census", "forests", "--n-max", "0")[0] == 3
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# analyze


def test_analyze_self_complementary_example(capsys):
    doc = run_json(capsys, "analyze", "--gallery", "sc")
    assert doc["verdicts"]["bic"]["status"] == "NonCommutative"
    cert = doc["verdicts"]["bic"]["certificate"]
    assert cert["kind"] == "edge-free-pair"
    # display cycles use the graph's 1-based labels ...
    assert cert["sigma"]["cycles"] == "(5 6)"
    assert cert["tau"]["cycles"] == "(7 8)"
    # ... while the image arrays stay index-based and machine-checkable
    assert sorted(cert["sigma"]["images"]) == list(range(8))
    assert cert["sigma"]["images"][4] == 5


def test_analyze_labeled_witness_rendering(capsys):
    doc = run_json(capsys, "analyze", "--gallery", "c4pn2")
    cert = doc["verdicts"]["ban"]["certificate"]
    assert cert["sigma"]["cycles"] == "(a b)"
    assert cert["sigma"]["images"][:2] == [1, 0]


def test_analyze_inline_square(capsys):
    doc = run_json(capsys, "analyze", "--edges", "4;0 1;1 2;2 3;3 0")
    statuses = {k: v["status"] for k, v in doc["verdicts"].items()}
    assert statuses == {
        "bic": "Commutative",
        "ban": "NonCommutative",
        "bic_complement": "NonCommutative",
    }


def test_analyze_reports_input_descriptor(capsys):
    doc = run_json(capsys, "analyze", "--gallery", "k4")
    assert doc["input"] == {"source": "gallery:k4"}
    assert doc["version"]


@pytest.mark.parametrize("name", ["sc", "fig7", "t0", "k4", "c5", "p3", "k2_3"])
def test_analyze_output_matches_schema(capsys, name):
    doc = run_json(capsys, "analyze", "--gallery", name, "--pattern")
    jsonschema.validate(doc, report_schema())


def test_analyze_file_input(tmp_path, capsys):
    p = tmp_path / "square.txt"
    p.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    doc = run_json(capsys, "analyze", str(p))
    assert doc["input"]["source"] == f"file:{p}"
    assert doc["verdicts"]["bic"]["status"] == "Commutative"


def test_analyze_graph6_by_extension(tmp_path, capsys):
    p = tmp_path / "k4.g6"
    p.write_bytes(b"C~\n")
    doc = run_json(capsys, "analyze", str(p))
    assert doc["graph"]["n"] == 4
    assert doc["graph"]["edges"] == 6


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "analyze", "--gallery", "c5", "--out", str(target))
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["graph"]["n"] == 5


def test_analyze_budget_gives_unknown_not_failure(capsys):
    rc, out, _ = run(capsys, "analyze", "--gallery", "t0", "--budget", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdicts"]["bic"]["status"] == "Unknown"
    assert doc["verdicts"]["bic"].get("certificate") is None
    assert any("abandoned" in note for note in doc["notes"])


def test_flag_budget_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_BUDGET", "1")
    doc = run_json(capsys, "analyze", "--gallery", "t0", "--budget", "500000")
    assert doc["verdicts"]["bic"]["status"] == "NonCommutative"


def test_negative_budget_flag_is_rejected(capsys):
    rc, _, err = run(capsys, "analyze", "--gallery", "c5", "--budget", "-7")
    assert rc == 3
    assert "--budget" in err
    rc, _, _ = run(capsys, "analyze", "--gallery", "c5", "--budget", "0")
    assert rc == 0


def test_analyze_needs_exactly_one_graph(capsys):
    rc, _, err = run(capsys, "analyze", "--gallery", "c5", "--gallery", "k4")
    assert rc == 3
    assert "exactly one" in err


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_file_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 1\n0 zero\n")
    rc, _, err = run(capsys, "analyze", str(p))
    assert rc == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "command", [["analyze"], ["pattern"], ["product", "cartesian"], ["construct", "cone"]]
)
@pytest.mark.parametrize(
    "name, data, offset",
    [("bad.txt", b"3 1\n0 1 \xe2\x80\x94\n", 8), ("bad.g6", b"C\xffw\n", 1)],
)
def test_non_ascii_file_is_exit_2(tmp_path, capsys, command, name, data, offset):
    p = tmp_path / name
    p.write_bytes(data)
    rc, _, err = run(capsys, *command, str(p))
    assert rc == 2
    assert f"parse error: byte {offset}: " in err
    assert "is not ASCII" in err


def test_missing_file_is_exit_2(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/graph.txt")
    assert rc == 2


@pytest.mark.parametrize(
    "spec",
    [
        "", "x;0 1", "3;0 0", "3;0 5", "3;0 1 2", "-1;", "3;0 1;0 1", "3;1 2;2 1",
        # only plain ASCII decimals: int() alone reads each of these
        "12;1_0 2", "3;+0 1", "3;\u0660 1", "1_2;0 1", "+3;0 1", "\u0663;0 1",
        # rows split at ASCII spaces and tabs only
        "3;0\u20031", "\u20033;0 1", "3;0\x1f1", "3;0 1;\u2003", "3;0 1\n",
    ],
)
def test_malformed_inline_edges_is_exit_2(capsys, spec):
    rc, _, _ = run(capsys, "analyze", f"--edges={spec}")
    assert rc == 2


def test_inline_edges_are_split_at_spaces_and_tabs(capsys):
    want = run(capsys, "construct", "cone", "--edges", "3;0 1;1 2")
    assert want[0] == 0
    assert run(capsys, "construct", "cone", "--edges", " 3\t;0\t1;  1  2 ; \t") == want


def test_repeated_inline_edge_is_named_like_the_files(tmp_path, capsys):
    p = tmp_path / "p2.txt"
    p.write_text("3 2\n0 1\n1 0\n")
    assert run(capsys, "analyze", str(p))[::2] == (
        2, "qsym: parse error: line 3: duplicate edge (0, 1)\n"
    )
    assert run(capsys, "analyze", "--edges", "3;0 1;1 0")[::2] == (
        2, "qsym: parse error: inline edges: segment 2: duplicate edge (0, 1)\n"
    )


def _quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


_COUNTS = st.one_of(
    st.integers(4, 6).map(str),
    st.sampled_from(["0", "2", "-1", "-2", "", "x", "1.5", " 5"]),
)
_EDGES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e[0] != e[1]),
    unique_by=frozenset,
    max_size=5,
)
_ODD = st.lists(
    st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["a", "1.0", "1_0", "+1"])),
    min_size=1,
    max_size=3,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    _COUNTS,
    _EDGES,
    st.lists(_ODD, max_size=1),
    st.lists(st.integers(0, 4), max_size=1),
)
@example("3", [(0, 1)], [], [0])
def test_inline_spec_and_edge_list_file_agree(count, edges, odd, repeats):
    # an --edges spec and the edge-list file with the same rows give the
    # same graph, or both exit 2: repeats (reversed), loops, out-of-range
    # ends, rows of one or three words and bad vertex counts
    rows = [f"{u} {v}" for u, v in edges] + odd
    rows += [f"{edges[i][1]} {edges[i][0]}" for i in repeats if i < len(edges)]
    spec = ";".join([count, *rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/g.txt"
        with open(path, "w") as fh:
            fh.write(f"{count} {len(rows)}\n" + "".join(r + "\n" for r in rows))
        from_file = _quiet(["construct", "cone", path])
    from_spec = _quiet(["construct", "cone", f"--edges={spec}"])
    assert from_spec == from_file
    assert from_spec[0] in (0, 2)


def test_wreath_hypothesis_failure_is_exit_3(capsys):
    rc, _, err = run(capsys, "construct", "wreath", "--gallery", "k1", "--gallery", "k4")
    assert rc == 3
    assert "dominating" in err


def test_unknown_gallery_name_is_exit_3(capsys):
    rc, _, err = run(capsys, "analyze", "--gallery", "petersen")
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("--gallery", "k1000000"),
        ("--edges", "1000000000"),
        ("--edges", "1000000000;0 1"),
    ],
)
def test_huge_declared_order_is_exit_3(capsys, argv):
    with time_limit(10):
        rc, _, err = run(capsys, "analyze", *argv)
    assert rc == 3
    assert "above the limit" in err


def test_huge_edge_list_header_is_exit_3(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("1000000000 1\n0 1\n")
    with time_limit(10):
        rc, _, err = run(capsys, "analyze", str(f))
    assert rc == 3
    assert "above the limit" in err


@pytest.mark.parametrize(
    "last, rc, message",
    [("?", 3, "4097 is above the limit"), ("@", 2, "nonzero padding bits")],
    ids=["well-formed", "bad-padding"],
)
def test_huge_graph6_file_is_refused_at_once(tmp_path, capsys, last, rc, message):
    # 4,097 vertices: 1,398,443 body bytes, the last with two padding bits
    f = tmp_path / "huge.g6"
    f.write_text("~@?@" + "?" * 1398442 + last + "\n")
    with time_limit(1):
        got, _, err = run(capsys, "analyze", str(f))
    assert got == rc
    assert message in err


def test_census_out_of_range_is_exit_3(capsys):
    rc, _, _ = run(capsys, "census", "forests", "--n-max", "12")
    assert rc == 3


@pytest.mark.parametrize("survey", ["forests", "cherries"])
def test_census_zero_n_max_is_exit_3(capsys, survey):
    # 0 is out of range, not "use the default"
    rc, out, _ = run(capsys, "census", survey, "--n-max", "0")
    assert rc == 3
    assert out == ""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_census_oracle_non_positive_count_is_exit_3(capsys, count):
    rc, out, err = run(capsys, "census", "oracle", "--count", count)
    assert rc == 3
    assert out == ""
    assert "count" in err


def test_fatal_budget_exhaustion_is_exit_4(capsys, monkeypatch):
    def blow_up(g, node_budget=None):
        raise SizeLimitExceeded(7)

    monkeypatch.setattr("qsym.cli.classify_with_complement", blow_up)
    rc, _, err = run(capsys, "analyze", "--gallery", "c5")
    assert rc == 4
    assert "budget" in err


# ---------------------------------------------------------------------------
# product / construct


def test_product_corona_example(capsys):
    rc, out, _ = run(capsys, "product", "corona", "--gallery", "c3", "--gallery", "p2")
    assert rc == 0
    g = parse_graph("edges", out)
    assert g.n == 12
    assert g.edge_count == 18


@pytest.mark.parametrize("kind,order", [
    ("cartesian", 8),
    ("direct", 8),
    ("strong", 8),
    ("lex", 8),
])
def test_binary_products_run(capsys, kind, order):
    rc, out, _ = run(capsys, "product", kind, "--gallery", "k2", "--gallery", "c4")
    assert rc == 0
    assert parse_graph("edges", out).n == order


def test_product_above_the_order_cap_is_exit_3(capsys):
    rc, out, err = run(capsys, "product", "cartesian", "--edges", "65", "--edges", "65")
    assert (rc, out) == (3, "")
    assert "vertex count 4225 is above the limit" in err


def test_product_needs_two_graphs(capsys):
    rc, _, err = run(capsys, "product", "direct", "--gallery", "k2")
    assert rc == 3
    assert "two graphs" in err


def test_construct_free_emits_graph_and_trace(capsys):
    rc, out, _ = run(capsys, "construct", "free", "--gallery", "k2", "--gallery", "k2")
    assert rc == 0
    graph_text, _, trace_text = out.partition("{")
    g = parse_graph("edges", graph_text)
    assert g.n == 7
    trace = json.loads("{" + trace_text)
    assert trace["final_order"] == 7
    ops = [s["op"] for s in trace["steps"]]
    assert ops == ["corona_k1", "disjoint_union", "cone"]


@pytest.mark.parametrize("kind", ["free", "tensor"])
def test_construct_with_zero_vertex_factors_returns(capsys, kind):
    with time_limit(2):
        doc = run_json(
            capsys, "construct", kind, "--edges", "0", "--edges", "0", "--json"
        )
    assert doc["construction"]["final_order"] == 0
    assert doc["construction"]["steps"] == []


def test_construct_json_document(capsys):
    doc = run_json(
        capsys, "construct", "tensor", "--gallery", "k2", "--gallery", "k2", "--json"
    )
    assert doc["construction"]["final_order"] == 12
    g = parse_graph("edges", doc["graph"]["data"])
    assert g.n == 12


def test_construct_cone_single_step(capsys):
    doc = run_json(capsys, "construct", "cone", "--edges", "2;", "--json")
    steps = doc["construction"]["steps"]
    assert [s["op"] for s in steps] == ["cone"]
    assert steps[0]["order"] == 3
    g = parse_graph("edges", doc["graph"]["data"])
    assert are_isomorphic(g, gallery("p2"))


def test_construct_corona_k1(capsys):
    doc = run_json(capsys, "construct", "corona-k1", "--gallery", "c3", "--json")
    assert doc["construction"]["steps"][0]["op"] == "corona_k1"
    assert parse_graph("edges", doc["graph"]["data"]).n == 6


def test_construct_out_splits_graph_and_trace(tmp_path, capsys):
    target = tmp_path / "built.txt"
    rc, out, _ = run(
        capsys, "construct", "wreath",
        "--gallery", "c3", "--gallery", "k2", "--out", str(target),
    )
    assert rc == 0
    # the graph went to the file; stdout carries only the trace
    g = parse_graph("edges", target.read_text())
    assert g.n == 9
    trace = json.loads(out)
    assert trace["final_order"] == 9


def test_construct_graph6_output(capsys):
    rc, out, _ = run(capsys, "gallery", "k4", "--format", "graph6")
    assert rc == 0
    assert out == "C~\n"


# ---------------------------------------------------------------------------
# gallery / census / pattern


def test_gallery_listing(capsys):
    rc, out, _ = run(capsys, "gallery")
    assert rc == 0
    for name in ("sc", "fig7", "t0", "cherry2"):
        assert name in out


def test_gallery_emits_graph(capsys):
    rc, out, _ = run(capsys, "gallery", "c5")
    assert parse_graph("edges", out).n == 5


def test_census_forests_csv(capsys):
    rc, out, _ = run(capsys, "census", "forests", "--n-max", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,trees,forests")
    assert lines[1].split(",")[0] == "1"
    assert len(lines) == 6


def test_census_cherries_csv(capsys):
    rc, out, _ = run(capsys, "census", "cherries", "--n-max", "6")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_n = {int(r[0]): int(r[5]) for r in rows}
    assert by_n[4] == 1  # the 4-star carries three cherries; the path none
    assert by_n[3] == 0


def test_census_oracle_runs_clean(capsys):
    rc, out, _ = run(capsys, "census", "oracle", "--count", "40", "--seed", "7")
    assert rc == 0
    assert out.splitlines()[0].endswith("violations")


def test_census_with_violations_is_exit_1(capsys, monkeypatch):
    from qsym import cli
    from qsym.census import check_forest_dichotomy, write_csv

    found = ("n=3: forest #0 first", "n=4: forest #1 second", "n=4: forest #2 third")
    bad = dataclasses.replace(check_forest_dichotomy(4), violations=found)
    monkeypatch.setattr(cli, "check_forest_dichotomy", lambda n_max: bad)
    rc, out, err = run(capsys, "census", "forests", "--n-max", "4")
    assert rc == 1
    csv = io.StringIO()
    write_csv(bad, csv)
    assert out == csv.getvalue()
    assert [row.split(",")[-1] for row in out.splitlines()] == [
        "violations", "0", "0", "1", "2"
    ]
    assert err.splitlines() == [f"violation: {v}" for v in found]


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.csv"
    rc, out, _ = run(capsys, "census", "forests", "--n-max", "4", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("n,")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--edges", "3;0 1"),
        ("pattern", "--edges", "3;0 1"),
        ("census", "forests", "--n-max", "3"),
        ("gallery", "c5"),
        ("gallery",),
    ],
)
def test_unwritable_out_is_exit_3(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 3
    assert out == ""
    assert err == f"qsym: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("command", ["analyze", "pattern"])
def test_unknown_input_format_is_rejected(tmp_path, capsys, command):
    p = tmp_path / "p2.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "bogus", str(p)])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_product_reads_edges_when_format_names_dot(capsys):
    # --format is the output format there; dot cannot be read
    rc, out, _ = run(
        capsys, "product", "cartesian", "--edges", "2;0 1", "--edges", "2;0 1",
        "--format", "dot",
    )
    assert rc == 0
    assert out.startswith("graph")


def test_pattern_text(capsys):
    rc, out, _ = run(capsys, "pattern", "--gallery", "fig7")
    assert rc == 0
    assert "forced cells" in out
    assert "blocks:" in out


def test_pattern_json(capsys):
    doc = run_json(capsys, "pattern", "--gallery", "fig7", "--json")
    assert doc["pattern"]["forced_count"] > 0
    sizes = sorted(len(b) for b in doc["pattern"]["blocks"])
    assert sum(sizes) == 6


def test_analyze_pattern_flag(capsys):
    doc = run_json(capsys, "analyze", "--gallery", "fig7", "--pattern")
    assert doc["pattern"]["forced_count"] > 0
    assert "." in doc["pattern"]["rendered"]


# ---------------------------------------------------------------------------
# installation


def test_console_script_is_wired_up():
    proc = subprocess.run(
        [sys.executable, "-m", "qsym.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("qsym ")


def test_module_invocation_matches_api(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "qsym.cli", "analyze", "--gallery", "k4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    rc, out, _ = run(capsys, "analyze", "--gallery", "k4")
    assert json.loads(out)["verdicts"] == doc["verdicts"]

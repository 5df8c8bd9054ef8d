"""The four CLI subcommands: flags, JSON output, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excfact import covering_from_json, format_edge_list, verify_covering
from excfact.budget import check_budget, time_budget
from excfact.cli import main
from excfact.families import complete, cycle, path, petersen, star

FIXTURE = Path(__file__).parent / "data" / "incoherent_2_3.g6"


@pytest.fixture()
def petersen_file(tmp_path):
    target = tmp_path / "petersen.el"
    target.write_text(format_edge_list(petersen()))
    return str(target)


@pytest.fixture()
def star_file(tmp_path):
    target = tmp_path / "k13.el"
    target.write_text(format_edge_list(star(3)))
    return str(target)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_petersen_with_witness(capsys, petersen_file):
    code, out, _ = _run(
        capsys, ["index", "--graph", petersen_file, "--l", "4", "--m", "5", "--witness"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["format_version"] == 1
    assert blob["value"] == 4
    assert blob["checks"] == {"lower_bound": True, "verified": True}
    witness = covering_from_json(blob["witness"])
    assert verify_covering(petersen(), witness, 4, 5)


def test_index_infinite_exit_code(capsys, star_file):
    code, out, _ = _run(capsys, ["index", "--graph", star_file, "--l", "2", "--m", "2"])
    assert code == 2
    assert json.loads(out)["value"] == "infinity"


def test_index_unbounded_token(capsys, petersen_file):
    code, out, _ = _run(capsys, ["index", "--graph", petersen_file, "--l", "3", "--m", "inf"])
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_index_methods_agree(capsys, petersen_file):
    values = {}
    for method in ("formula", "exc", "oracle"):
        code, out, _ = _run(
            capsys,
            ["index", "--graph", petersen_file, "--l", "4", "--m", "5", "--method", method],
        )
        assert code == 0
        values[method] = json.loads(out)["value"]
    assert set(values.values()) == {4}


def test_index_rejects_an_inverted_window(capsys, tmp_path):
    graph = tmp_path / "p4.el"
    graph.write_text(format_edge_list(path(4)))
    for method in ("formula", "exc", "oracle"):
        code, out, err = _run(capsys, ["index", "--graph", str(graph), "--l", "2", "--m", "1", "--method", method])
        assert (code, out, err) == (1, "", "error: invalid size window [2, 1]\n"), method


def test_index_reads_graph6_files(capsys):
    code, out, _ = _run(capsys, ["index", "--graph", str(FIXTURE), "--l", "2", "--m", "3"])
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_analyze_compatibility(capsys, petersen_file):
    code, out, _ = _run(capsys, ["analyze", "--graph", petersen_file, "--compat", "--max-m", "5"])
    assert code == 0
    blob = json.loads(out)["compatibility"]
    assert blob["com"] == 4
    assert blob["f_table"] == {"1": 1, "2": 2, "3": 3, "4": 4, "5": 4}


def test_analyze_coherence_fixture(capsys):
    code, out, _ = _run(
        capsys, ["analyze", "--graph", str(FIXTURE), "--coherence", "--l", "2", "--m", "3"]
    )
    assert code == 0
    blob = json.loads(out)["coherence"]
    assert blob["coherent"] is False and blob["lhs"] == 3 and blob["rhs"] == 4


def test_analyze_coherence_diagonal(capsys, tmp_path):
    target = tmp_path / "c4.el"
    target.write_text(format_edge_list(cycle(4)))
    code, out, _ = _run(
        capsys, ["analyze", "--graph", str(target), "--coherence", "--l", "2", "--m", "2"]
    )
    assert code == 0
    assert json.loads(out)["coherence"]["coherent"] is True


def test_analyze_requires_a_report(capsys, petersen_file):
    code, _, err = _run(capsys, ["analyze", "--graph", petersen_file])
    assert code == 1 and "nothing to do" in err


#: every integer flag, after the flags its subcommand needs to parse
_INTEGER_FLAGS = {
    "index": (["--l", "1", "--m", "1"], ["--l", "--m", "--budget-ms"]),
    "analyze": (["--compat"], ["--max-m", "--l", "--m", "--budget-ms"]),
    "sweep": ([], ["--max-vertices", "--max-m", "--seed", "--budget-ms"]),
}
#: tokens Python's int() reads but the graph formats' digit rule does not
_NOT_DECIMAL = ["1_0", " 1", "\u0661", "-1", "+1"]


def _bad_integer_cases(commands):
    return [
        pytest.param([command, *needed, flag, token], f"argument {flag}:", id=f"{command} {flag} {token!r}")
        for command in commands
        for needed, flags in [_INTEGER_FLAGS[command]]
        for flag in flags
        for token in _NOT_DECIMAL
    ]


def _assert_one_error_line(code, out, err, message):
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["index", "--l", "1", "--m", "abc"], "argument --m: expects ASCII decimal digits or 'inf'"),
        (["index", "--l", "0", "--m", "1"], "--l must be at least 1"),
        (["analyze", "--coherence"], "--coherence requires --l and --m"),
        # rejected before the graph is read or the budget starts, so no report is built
        (["analyze", "--compat", "--coherence", "--budget-ms", "0"], "--coherence requires --l and --m"),
        (["index", "--l", "1", "--m", "1_0"], "argument --m: expects ASCII decimal digits or 'inf'"),
        *_bad_integer_cases(_INTEGER_FLAGS),
    ],
)
def test_usage_errors_exit_one_with_the_message(capsys, tmp_path, flags, message):
    # the graph file is missing, so each error is found before any file is read
    graph = [] if flags[0] == "sweep" else ["--graph", str(tmp_path / "missing.el")]
    _assert_one_error_line(*_run(capsys, [*flags, *graph]), message)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["index", "--l", "0", "--m", "1"], "--l must be at least 1"),
        (["index", "--l", "1", "--m", "abc"], "argument --m: expects ASCII decimal digits or 'inf'"),
        (["index", "--l", "1", "--m", "1_0"], "argument --m: expects ASCII decimal digits or 'inf'"),
        *_bad_integer_cases(["index"]),
    ],
)
def test_index_checks_its_window_flags_before_reading_the_graph(capsys, tmp_path, flags, message):
    missing = tmp_path / "missing.el"
    _assert_one_error_line(*_run(capsys, [*flags, "--graph", str(missing)]), message)


@pytest.mark.parametrize("command", [[], ["index"], ["analyze"], ["sweep"], ["render"]])
def test_help_prints_the_usage_and_exits_zero(capsys, command):
    code, out, err = _run(capsys, [*command, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: excfact {' '.join(command)}".rstrip())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--graph", "missing.el", "--l", "1"], "the following arguments are required: --m"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["index", "--graph", "missing.el", "--l", "1", "--m", "1", "--method", "fast"], "argument --method: invalid choice"),
    ],
)
def test_parser_errors_leave_by_the_one_error_line(capsys, argv, message):
    _assert_one_error_line(*_run(capsys, argv), message)


def test_a_budget_past_float_range_sets_no_deadline():
    with time_budget(10**400):
        check_budget()


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--l", "4", "--m", "5", "--witness"],
        ["analyze", "--compat", "--coherence", "--l", "2", "--m", "4"],
        ["sweep", "--max-vertices", "3", "--max-m", "3"],
    ],
)
def test_a_400_digit_budget_means_no_limit(petersen_file, argv):
    graph = [] if argv[0] == "sweep" else ["--graph", petersen_file]
    huge, default = (_run_subprocess([*argv, *graph, "--budget-ms", budget]) for budget in ("9" * 400, "10000"))
    assert (huge.returncode, huge.stdout) == (0, default.stdout)
    assert "Traceback" not in huge.stderr and len(huge.stderr.splitlines()) == len(default.stderr.splitlines())


@pytest.mark.parametrize("where", ["flag", "edge list"])
def test_a_number_past_ints_digit_limit_is_one_short_error_line(capsys, tmp_path, where):
    nines = "9" * 5000
    graph = tmp_path / "g.el"
    graph.write_text(f"0 {nines}\n" if where == "edge list" else "0 1\n")
    argv = ["index", "--graph", str(graph), "--l", "1", "--m", "2"]
    if where == "flag":
        argv += ["--budget-ms", nines]
    code, out, err = _run(capsys, argv)
    prefix = "argument --budget-ms" if where == "flag" else "line 1"
    _assert_one_error_line(code, out, err, f"{prefix}: a 5000-digit number has too many digits")
    assert len(err) < 100


def test_sweep_clean_scope_prints_nothing(capsys):
    code, out, err = _run(capsys, ["sweep", "--max-vertices", "4", "--max-m", "4"])
    assert code == 0 and out == ""
    assert len(err.splitlines()) == 1 and "0 discrepancies" in err


def test_render_single_edge(capsys, tmp_path):
    graph = tmp_path / "one.el"
    graph.write_text("0 1\n")
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"matchings": [[[0, 1]]]}))
    code, out, _ = _run(capsys, ["render", "--graph", str(graph), "--witness", str(witness)])
    assert code == 0
    assert out.startswith("graph covering {")
    assert '0 -- 1 [label="1"' in out


def test_render_accepts_index_output(capsys, petersen_file, tmp_path):
    code, out, _ = _run(
        capsys, ["index", "--graph", petersen_file, "--l", "4", "--m", "5", "--witness"]
    )
    witness = tmp_path / "witness.json"
    witness.write_text(out)
    code, out, _ = _run(capsys, ["render", "--graph", petersen_file, "--witness", str(witness)])
    assert code == 0
    assert out.count(" -- ") == 15
    assert all("label=" in line for line in out.splitlines() if " -- " in line)


def test_index_rejects_a_huge_vertex_count(capsys, tmp_path):
    target = tmp_path / "huge.el"
    target.write_text("n 30000000\n0 1\n")
    code, out, err = _run(capsys, ["index", "--graph", str(target), "--l", "1", "--m", "1"])
    assert code == 1
    assert out == ""
    assert "vertex count 30000000" in err


def test_sparse_edges_on_many_vertices_stay_within_budget(capsys, tmp_path):
    """Forty disjoint edges spread over the largest vertex range: every edge
    needs its own matching test at l = nu, and each must follow the edges."""
    target = tmp_path / "sparse.el"
    target.write_text("n 258047\n" + "".join(f"{6000 * i} {6000 * i + 1}\n" for i in range(40)))
    argv = ["index", "--graph", str(target), "--l", "40", "--m", "40", "--budget-ms", "2000"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["value"] == 1


def test_render_rejects_invalid_witness(capsys, tmp_path):
    graph = tmp_path / "c4.el"
    graph.write_text(format_edge_list(cycle(4)))
    witness = tmp_path / "bad.json"
    witness.write_text(json.dumps({"matchings": [[[0, 1]]]}))  # misses three edges
    code, _, err = _run(capsys, ["render", "--graph", str(graph), "--witness", str(witness)])
    assert code == 1 and "not covered" in err


def test_render_reports_an_integer_past_ints_digit_limit(capsys, tmp_path):
    graph = tmp_path / "p3.el"
    graph.write_text(format_edge_list(path(3)))
    witness = tmp_path / "witness.json"
    witness.write_text('{"matchings": [[[0, 1' + "0" * 5000 + "]]]}")
    _assert_one_error_line(*_run(capsys, ["render", "--graph", str(graph), "--witness", str(witness)]),
                           "cannot read witness JSON: ")


def test_input_errors_exit_one(capsys, tmp_path):
    code, _, err = _run(capsys, ["index", "--graph", str(tmp_path / "nope.el"), "--l", "1", "--m", "1"])
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.el"
    bad.write_text("0 0\n")
    code, _, _ = _run(capsys, ["index", "--graph", str(bad), "--l", "1", "--m", "1"])
    assert code == 1
    code, _, _ = _run(capsys, ["index", "--graph", str(bad)])  # missing flags
    assert code == 1


def test_undecodable_and_deeply_nested_files_exit_one(capsys, tmp_path):
    graph = tmp_path / "k13.el"
    graph.write_text(format_edge_list(star(3)))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for suffix in (".g6", ".el"):
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"\xff\xfe\x00bad")
        code, _, err = _run(capsys, ["index", "--graph", str(bad), "--l", "1", "--m", "1"])
        assert code == 1 and err.startswith("error: cannot read")
        code, _, err = _run(capsys, ["render", "--graph", str(bad), "--witness", str(deep)])
        assert code == 1 and err.startswith("error: cannot read")
    for witness in (tmp_path / "bad.el", deep):
        code, _, err = _run(capsys, ["render", "--graph", str(graph), "--witness", str(witness)])
        assert code == 1 and err.startswith("error: cannot read")


def test_oracle_enumeration_cap_exits_one(capsys, tmp_path):
    graph = tmp_path / "p40.el"
    graph.write_text(format_edge_list(path(40)))
    code, _, err = _run(capsys, ["index", "--graph", str(graph), "--l", "1", "--m", "inf", "--method", "oracle"])
    assert code == 1 and err == "error: more than 1000000 matchings\n"


def test_oracle_deep_enumeration_stops_on_budget(capsys, tmp_path):
    """A perfect matching of a 2,400-vertex path is 1,200 edges deep."""
    graph = tmp_path / "p2400.el"
    graph.write_text(format_edge_list(path(2400)))
    argv = ["index", "--graph", str(graph), "--l", "1200", "--m", "1200", "--method", "oracle"]
    code, out, _ = _run(capsys, [*argv, "--budget-ms", "300"])
    assert code == 3 and json.loads(out)["outcome"] == "budget_exceeded"


_GRAPH_TEXT = st.one_of(
    st.binary(max_size=40),
    st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n"), max_size=40).map(str.encode),
    st.text(st.sampled_from("0123456789 n#-\n"), max_size=40).map(str.encode),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["matchings", "witness", "x"]), inner, max_size=3),
    max_leaves=20,
)


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(
    content=_GRAPH_TEXT,
    suffix=st.sampled_from([".g6", ".el"]),
    method=st.sampled_from(["formula", "exc", "oracle"]),
    l=st.integers(1, 3),
    m=st.sampled_from(["1", "2", "3", "inf"]),
)
def test_fuzzed_graph_files_exit_with_a_documented_code(content, suffix, method, l, m):
    with TemporaryDirectory() as tmp:
        graph = Path(tmp) / f"graph{suffix}"
        graph.write_bytes(content)
        argv = ["index", "--graph", str(graph), "--l", str(l), "--m", m, "--method", method]
        assert _quiet_main([*argv, "--budget-ms", "200"]) in {0, 1, 2, 3}


@settings(max_examples=100, deadline=None)
@given(witness=_JSON)
def test_fuzzed_witness_json_exits_with_a_documented_code(witness):
    with TemporaryDirectory() as tmp:
        graph = Path(tmp) / "k13.el"
        graph.write_text(format_edge_list(star(3)))
        target = Path(tmp) / "witness.json"
        target.write_text(json.dumps(witness))
        assert _quiet_main(["render", "--graph", str(graph), "--witness", str(target)]) in {0, 1}


def _run_subprocess(args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "excfact.cli", *args], capture_output=True, text=True, timeout=timeout
    )


def test_budget_exceeded_exit_code(tmp_path):
    graph = tmp_path / "petersen.el"
    graph.write_text(format_edge_list(petersen()))
    proc = _run_subprocess(
        ["index", "--graph", str(graph), "--l", "4", "--m", "5", "--budget-ms", "0"]
    )
    assert proc.returncode == 3
    blob = json.loads(proc.stdout)
    assert blob["outcome"] == "budget_exceeded"
    assert blob["chromatic_index_bracket"] == [3, 4]


def test_oracle_budget_exceeded_exit_code(tmp_path):
    graph = tmp_path / "petersen.el"
    graph.write_text(format_edge_list(petersen()))
    proc = _run_subprocess(
        ["index", "--graph", str(graph), "--l", "4", "--m", "5", "--method", "oracle", "--budget-ms", "0"]
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["outcome"] == "budget_exceeded"


def test_oracle_budget_covers_the_json_report(tmp_path):
    # the oracle answers K40 at [1,1] at once, but the report's lower bound
    # needs chi'(K40), a search far longer than the budget
    graph = tmp_path / "k40.el"
    graph.write_text(format_edge_list(complete(40)))
    proc = _run_subprocess(
        ["index", "--graph", str(graph), "--l", "1", "--m", "1", "--method", "oracle", "--budget-ms", "1500"],
        timeout=60,
    )
    assert proc.returncode in (0, 3)
    if proc.returncode == 3:
        assert json.loads(proc.stdout)["outcome"] == "budget_exceeded"


def test_analyze_budget_exceeded_exit_code(tmp_path):
    graph = tmp_path / "petersen.el"
    graph.write_text(format_edge_list(petersen()))
    proc = _run_subprocess(["analyze", "--graph", str(graph), "--compat", "--budget-ms", "0"])
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"format_version": 1, "outcome": "budget_exceeded"}
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_sweep_budget_exceeded_exit_code():
    proc = _run_subprocess(["sweep", "--max-vertices", "5", "--budget-ms", "0"])
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"format_version": 1, "outcome": "budget_exceeded"}
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_sweep_at_large_max_m_stops_on_budget():
    """Windows are visited one at a time with a budget check each, so a
    sweep with 1,280,800 windows on each of the zero- and one-vertex graphs
    stops on the budget at once rather than after building every window."""
    start = time.monotonic()
    proc = _run_subprocess(["sweep", "--max-vertices", "1", "--max-m", "1600", "--budget-ms", "100"])
    elapsed = time.monotonic() - start
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {"format_version": 1, "outcome": "budget_exceeded"}
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("flags", [["--max-m", "0"], ["--max-m", "-1"], ["--max-vertices", "-2"]])
def test_sweep_that_would_compare_nothing_exits_1(flags):
    proc = _run_subprocess(["sweep", *flags])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_repeated_runs_are_byte_identical(tmp_path):
    graph = tmp_path / "petersen.el"
    graph.write_text(format_edge_list(petersen()))
    commands = [
        ["index", "--graph", str(graph), "--l", "4", "--m", "5", "--witness"],
        ["analyze", "--graph", str(graph), "--compat", "--max-m", "5"],
        ["analyze", "--graph", str(FIXTURE), "--coherence", "--l", "2", "--m", "3"],
        ["sweep", "--max-vertices", "3", "--max-m", "3", "--seed", "7"],
    ]
    for argv in commands:
        first = _run_subprocess(argv)
        second = _run_subprocess(argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout

    witness = tmp_path / "witness.json"
    witness.write_text(_run_subprocess(commands[0]).stdout)
    render = ["render", "--graph", str(graph), "--witness", str(witness)]
    assert _run_subprocess(render).stdout == _run_subprocess(render).stdout

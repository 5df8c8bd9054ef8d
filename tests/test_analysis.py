"""Compatibility thresholds and coherence reports."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from excfact import (
    BudgetExceededError,
    ParameterError,
    coherence_report,
    compatibility_function,
    compatibility_index,
    compatibility_report,
    excessive_m_index,
    is_lm_compatible,
    parse_graph6,
)
from excfact import analysis
from excfact.analysis import (
    coherence_report_to_json,
    compatibility_report_to_json,
    f_table_csv,
)
from excfact.budget import time_budget
from excfact.coloring import chromatic_index
from excfact.families import cycle, empty, path, petersen, star
from excfact.oracle import enumerate_labeled_graphs
from oracles import max_matching_size_bruteforce

FIXTURE = Path(__file__).parent / "data" / "incoherent_2_3.g6"
COMPAT_TABLES = Path(__file__).parent.parent / "scripts" / "compat_tables.py"


def _small_graphs(max_vertices):
    for n in range(max_vertices + 1):
        yield from enumerate_labeled_graphs(n)


def _graphs_with_edges_and_petersen():
    return [g for g in _small_graphs(5) if g.edges] + [petersen()]


def test_l_equal_one_is_always_compatible():
    for g in _small_graphs(4):
        if not g.edges:
            continue
        for m in range(1, 5):
            assert is_lm_compatible(g, 1, m)


def test_petersen_compatibility_facts(petersen_graph):
    assert is_lm_compatible(petersen_graph, 4, 5)
    assert not is_lm_compatible(petersen_graph, 5, 5)
    assert compatibility_index(petersen_graph) == 4
    assert compatibility_function(petersen_graph, 5) == 4
    for m in range(1, 5):
        assert compatibility_function(petersen_graph, m) == m


def test_compatibility_index_small_graphs():
    assert compatibility_index(cycle(4)) == 2
    assert compatibility_index(star(3)) == 1
    assert compatibility_index(empty(3)) == 0


def test_compatibility_function_errors():
    with pytest.raises(ParameterError):
        compatibility_function(empty(2), 1)
    with pytest.raises(ParameterError):
        compatibility_function(cycle(4), 0)
    with pytest.raises(ParameterError):
        compatibility_report(cycle(4), 0)


def test_compatibility_function_scans_no_l_above_the_matching_number(monkeypatch, petersen_graph):
    tried = []
    real = analysis.is_lm_compatible
    monkeypatch.setattr(analysis, "is_lm_compatible", lambda g, l, m: tried.append(l) or real(g, l, m))
    assert compatibility_function(petersen_graph, 50) == 4
    # |E| = 15 and chi' = 4 settle l <= 3; nu = 5: no [l,50]-covering exists for l > 5
    assert tried == [4, 5]


def test_sizes_up_to_the_ceiling_quotient_are_compatible_without_a_scan(monkeypatch):
    """Every l <= floor(|E|/chi') is in the ceiling regime, so compatible;
    the index reads them off that arithmetic instead of checking them."""
    tried = []
    real = analysis.is_lm_compatible
    monkeypatch.setattr(analysis, "is_lm_compatible", lambda g, l, m: tried.append(l) or real(g, l, m))
    for g in _graphs_with_edges_and_petersen():
        q = g.edge_count // chromatic_index(g)
        assert all(real(g, l, l) for l in range(1, q + 1))
        tried.clear()
        assert compatibility_index(g) >= q
        assert all(l > q for l in tried)


def test_compatibility_function_is_min_of_m_and_com(petersen_graph):
    """f(m) = min(m, com), against the definition: the largest l <= m, and
    <= nu since no larger matching exists, with the graph [l,m]-compatible."""
    for g in _graphs_with_edges_and_petersen():
        nu = max_matching_size_bruteforce(g)
        com = compatibility_index(g)
        for m in range(1, nu + 3):
            reference = max(l for l in range(1, min(m, nu) + 1) if is_lm_compatible(g, l, m))
            assert compatibility_function(g, m) == min(m, com) == reference


@pytest.mark.parametrize(
    ("g", "nu", "com", "scanned"),
    [(petersen(), 5, 4, [(4, 4), (5, 5)]), (cycle(5), 2, 2, [(2, 2)]), (star(3), 1, 1, [])],
    ids=["petersen", "C5", "star3"],
)
def test_compatibility_report_scans_single_sizes_up_to_the_first_failure(monkeypatch, g, nu, com, scanned):
    """The scan starts past floor(|E|/chi'): 15 // 4 = 3, 5 // 3 = 1, 3 // 3 = 1."""
    windows = []
    real = analysis.is_lm_compatible
    monkeypatch.setattr(analysis, "is_lm_compatible", lambda g, l, m: windows.append((l, m)) or real(g, l, m))
    report = compatibility_report(g, nu)
    assert report.com == com and dict(report.rows()) == {m: min(m, com) for m in range(1, nu + 1)}
    assert windows == scanned


def test_compatibility_is_downward_closed_in_l():
    for g in _small_graphs(4):
        if not g.edges:
            continue
        for m in range(1, 5):
            flags = [is_lm_compatible(g, l, m) for l in range(1, m + 1)]
            assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_compatibility_function_nondecreasing_small():
    for g in _small_graphs(4):
        if not g.edges:
            continue
        values = [compatibility_function(g, m) for m in range(1, 7)]
        assert values == sorted(values)


def test_function_hits_m_exactly_up_to_the_index():
    for g in _small_graphs(4):
        if not g.edges:
            continue
        com = compatibility_index(g)
        for m in range(1, 6):
            assert (compatibility_function(g, m) == m) == (m <= com)


def test_compatibility_report_shapes(petersen_graph):
    report = compatibility_report(petersen_graph, 5)
    assert report.com == 4 and not report.edgeless
    assert dict(report.rows()) == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4}
    blob = compatibility_report_to_json(report)
    assert blob["f_table"]["5"] == 4
    assert f_table_csv(report).splitlines()[:2] == ["m,f", "1,1"]
    edgeless = compatibility_report(empty(3), 4)
    assert edgeless.com == 0 and edgeless.edgeless and dict(edgeless.rows()) == {}
    assert compatibility_report_to_json(edgeless) == {"com": 0, "f_table": {}, "edgeless": True}
    assert f_table_csv(edgeless) == "m,f\n"


def test_compatibility_report_reuses_f_of_nu_past_nu(monkeypatch, petersen_graph):
    calls = []
    real = analysis.is_lm_compatible
    monkeypatch.setattr(analysis, "is_lm_compatible", lambda g, l, m: calls.append(m) or real(g, l, m))
    short = compatibility_report(petersen_graph, 5)
    n_short = len(calls)
    long = compatibility_report(petersen_graph, 200)  # nu = 5
    assert len(calls) - n_short == n_short
    assert dict(long.rows()) == {**dict(short.rows()), **{m: 4 for m in range(6, 201)}}


def test_compatibility_report_stops_on_budget():
    """With every memo warm, only the writer's walk over the rows, which
    checks the budget once per m, can notice the deadline."""
    report = compatibility_report(petersen(), 10**5)
    with pytest.raises(BudgetExceededError), time_budget(0):
        compatibility_report_to_json(report)
    with pytest.raises(BudgetExceededError), time_budget(0):
        f_table_csv(report)


def test_analyses_of_a_long_path_skip_the_ceiling_regime():
    """path(10_000): |E| = 9999 and chi' = 2, so every size up to 4999 is
    settled by arithmetic; a scan from l = 1 builds a witness at each.  The
    one perfect matching misses every other edge, so no size-5000 covering
    exists: [1, 10000] is strictly incoherent, 2 against ceil(9999 / 4999)."""
    g = path(10_000)
    with time_budget(2000):
        assert compatibility_report(g, 5).com == 4999
        report = coherence_report(g, 1, 10_000)
    assert (report.lhs, report.rhs, report.coherent) == (2, 3, False)


def _compat_tables_script():
    spec = importlib.util.spec_from_file_location("compat_tables", COMPAT_TABLES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_compat_tables_script_rejects_max_m_below_one(capsys):
    script = _compat_tables_script()
    with pytest.raises(SystemExit) as exited:
        script.main(["--max-m", "0"])
    assert exited.value.code == 2 and "--max-m must be at least 1" in capsys.readouterr().err


def test_compat_tables_script_reads_max_m_as_ascii_digits(capsys):
    script = _compat_tables_script()
    with pytest.raises(SystemExit) as exited:
        script.main(["--max-m", "1_0"])
    assert exited.value.code == 2 and "argument --max-m: expects ASCII decimal digits" in capsys.readouterr().err


def test_coherence_report_scans_no_size_above_nu(petersen_graph):
    excessive_m_index.cache_clear()
    report = coherence_report(petersen_graph, 1, 10**4)
    assert excessive_m_index.cache_info().currsize <= 5  # nu = 5
    assert (report.lhs, report.rhs) == (4, 4)


def test_coherence_rhs_is_the_best_fixed_size_over_the_window():
    for g in _graphs_with_edges_and_petersen():
        nu = max_matching_size_bruteforce(g)
        for l in range(1, 7):
            for m in range(l, 7):
                top = min(m, max(l, nu))
                expected = min(excessive_m_index(g, i).value for i in range(l, top + 1))
                assert coherence_report(g, l, m).rhs == expected


def test_coherence_diagonal_is_trivial():
    for g in _small_graphs(4):
        for m in range(1, 5):
            assert coherence_report(g, m, m).coherent


def test_petersen_coherent_yet_incompatible_at_five(petersen_graph):
    report = coherence_report(petersen_graph, 5, 5)
    assert report.coherent and report.lhs == report.rhs == 5
    assert not is_lm_compatible(petersen_graph, 5, 5)


def test_coherence_definition_matches_characterization_small():
    for g in _small_graphs(4):
        for l in range(1, 5):
            for m in range(l, 5):
                report = coherence_report(g, l, m)  # asserts agreement internally
                assert report.coherent == (report.lhs == report.rhs)
                assert report.lhs <= report.rhs


def test_incoherence_fixture():
    g = parse_graph6(FIXTURE.read_text())
    assert g.vertex_count <= 8
    report = coherence_report(g, 2, 3)
    assert not report.coherent
    assert report.lhs == 3 and report.rhs == 4
    assert excessive_m_index(g, 2).value == 4
    assert excessive_m_index(g, 3).value == 4
    assert report.characterization_holds
    # strictly incoherent yet compatible: the two notions are independent
    assert is_lm_compatible(g, 2, 3)


def test_coherence_json():
    blob = coherence_report_to_json(coherence_report(star(3), 2, 3))
    assert blob == {
        "l": 2,
        "m": 3,
        "coherent": True,
        "lhs": "infinity",
        "rhs": "infinity",
        "characterization_holds": False,
    }

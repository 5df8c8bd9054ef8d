"""Tests of the tracer and of the metric names the benchmark declares.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json

from worker import ROOT, MemoLedger, import_excfact

import_excfact()

import workloads  # noqa: E402
from excfact import excessive  # noqa: E402
from excfact.families import petersen  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_end_to_end_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END_UNITS


def test_declared_per_layer_metrics_match_the_tracer():
    empty = {"hits_misses": {}, "excessive_peak_entries": 0}
    produced = {name: unit for name, (_, unit) in layer_metrics(Tracer(), empty, 1, None).items()}
    produced["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == produced


def traced_index(tracer: Tracer, ledger: MemoLedger) -> dict:
    tracer.reset()
    ledger.reset()
    result = excessive.excessive_lm_index(petersen(), 4, 4)
    ledger.clear()
    assert result.rule == "FORMULA_EXC_L"
    return {**tracer.counts(), "memo": ledger.summary()}


def test_traced_counts_repeat_and_self_time_is_bounded():
    original = excessive.excessive_lm_index
    ledger = MemoLedger(workloads.memo_functions())
    tracer = Tracer()
    tracer.install()
    try:
        first = traced_index(tracer, ledger)
        for name in tracer.calls:
            assert 0 <= tracer.self_time[name] <= tracer.total[name] + 1e-9
        second = traced_index(tracer, ledger)
    finally:
        tracer.uninstall()
    assert excessive.excessive_lm_index is original
    assert first == second
    assert first["calls"]["excessive_lm_index"] == 1
    assert first["search_nodes"]["excessive"] > 0
    assert first["memo"]["hits_misses"]["excfact.matching._forced_value"][1] > 0


def test_memo_discovery_finds_the_index_memo():
    names = {f"{f.__module__}.{f.__qualname__}" for f in workloads.memo_functions()}
    assert "excfact.excessive.excessive_lm_index" in names

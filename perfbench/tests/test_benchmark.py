"""The benchmark's own tests: every workload at a tiny size, and every checker
fed a deliberately wrong answer.

    python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from grcat import braidings, cocycles, cohomology
from grcat.roots import Root

import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_tiny(capsys, name, trace):
    code, doc = _main(capsys, "--workload", name, "--size", "tiny", "--seconds", "0",
                      "--trace", trace)
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_same_seed_same_inputs():
    first = workloads.build("coboundary12", 7, "tiny", spans.Tracer(False))
    again = workloads.build("coboundary12", 7, "tiny", spans.Tracer(False))
    other = workloads.build("coboundary12", 8, "tiny", spans.Tracer(False))

    def answers(ops):  # the witnesses (first item) of coboundary queries, None for ratios
        return [str(out and out[0]) for out in (op.body() for op in ops)]
    assert answers(first) == answers(again) != answers(other)


def _one_cell_changed(build_table):
    def wrong(params, *rest):
        t = build_table(params, *rest)
        values = list(t.values)
        values[-1] = values[-1] * Root.of(1, 7)
        return cocycles.CocycleTable(t.group, values)
    return wrong


def _wrong_class(classify):
    def wrong(t, *rest):
        p = classify(t, *rest)
        diag = ((p.diag[0] + 1) % p.group.orders[0],) + tuple(p.diag[1:])
        return cocycles.CocycleParams(p.group, diag, p.pairs, p.triples)
    return wrong


def _one_entry_shifted(enumerate_braidings):
    def wrong(params):
        found = list(enumerate_braidings(params))
        if found:
            r = [list(row) for row in found[0].r]
            r[0][0] = r[0][0] * Root.of(1, 2 * params.group.orders[0] ** 2)
            found[0] = braidings.QuasiBicharacter(params.group, r)
        return found
    return wrong


def _accepts_everything(verify_hexagons):
    def wrong(params, R):
        verify_hexagons(params, R)
        return None
    return wrong


def _witness_shifted(is_bar_coboundary):
    def wrong(t, *rest):
        w = is_bar_coboundary(t, *rest)
        if w is not None:
            key = next(k for k in w if not (k[0].is_identity() or k[1].is_identity()))
            w[key] = w[key] * Root.of(1, 5)
        return w
    return wrong


@pytest.mark.parametrize("name, module, attr, make_wrong, kinds", [
    ("census", cocycles, "build_table", _one_cell_changed, {"census.class"}),
    ("classify", cohomology, "classify", _wrong_class,
     {"classify.table", "classify.cochain"}),
    ("census", braidings, "enumerate_braidings", _one_entry_shifted,
     {"census.enumerate", "census.oracle"}),
    # the candidate-grid oracle decides through verify_hexagons as well
    ("census", braidings, "verify_hexagons", _accepts_everything,
     {"census.hexagons", "census.oracle"}),
    ("coboundary12", cohomology, "is_bar_coboundary", _witness_shifted,
     {"coboundary12.coboundary"}),
])
def test_wrong_answer_is_a_failed_operation(monkeypatch, capsys, name, module, attr,
                                            make_wrong, kinds):
    monkeypatch.setattr(module, attr, make_wrong(getattr(module, attr)))
    ops = workloads.build(name, 1, "tiny", spans.Tracer(False))
    _, failures = run.run_round(ops, spans.Tracer(False))
    assert failures, "a wrong answer passed every check"
    assert {kind for kind, _, _ in failures} <= kinds
    assert all(is_wrong for _, _, is_wrong in failures)

    code, doc = _main(capsys, "--workload", name, "--size", "tiny", "--seconds", "0")
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == len(failures)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

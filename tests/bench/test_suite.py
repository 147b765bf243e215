"""The suite end to end on the smoke preset, its report, and compare."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.bench.suite.compare import compare, verdict
from repro.bench.suite.inputs import WORKLOADS
from repro.bench.suite.metrics import END_TO_END, PER_LAYER, tail
from repro.bench.suite.procs import ROOT, SUITE_DIR, child_env

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def _spec():
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _names_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


def test_benchmark_json_lists_exactly_the_suite_metrics():
    spec = _spec()
    # service_ingest is run and reported but not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in WORKLOADS if w != "service_ingest"
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "report.json"
    done = subprocess.run(
        [sys.executable, "-m", "repro.bench.suite", "--preset", "smoke",
         "--seconds", "1", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, env=child_env(str(out.parent)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr.decode()[-3000:]
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh), done.stdout.decode()


def test_smoke_report_metric_names_and_units_match_benchmark_json(smoke_report):
    report, stdout = smoke_report
    spec = _spec()
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        [run] = entry["runs"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0, name
        assert [(k, v["unit"]) for k, v in run["metrics"].items()] == _names_units(
            spec["end_to_end"]
        )
        assert all(v["value"] > 0 for v in run["metrics"].values()), name
        traced = entry["traced"]
        assert traced["correct"], name
        assert [(k, v["unit"]) for k, v in traced["metrics"].items()] == _names_units(
            spec["per_layer"]
        )
    for metric in END_TO_END:
        assert metric.name in stdout


def test_smoke_trace_attributes_work_to_the_expected_layers(smoke_report):
    report, _ = smoke_report
    layers = {
        name: {k: v["value"] for k, v in e["traced"]["metrics"].items()}
        for name, e in report["workloads"].items()
    }
    char, twig = layers["figs_characterize"], layers["figs_twig"]
    ingest, fetch = layers["service_ingest"], layers["service_fetch"]
    # The characterization path fans out and never profiles or plans.
    assert char["experiments.fanout_s"] > 0 and char["uarch.serial_runs"] == 0
    assert char["profiling.collect_s"] == 0 and char["core.plan_s"] == 0
    # Twig's path profiles serially, plans, and runs in-process.
    assert twig["uarch.serial_runs"] > 0 and twig["core.plan_s"] > 0
    assert twig["experiments.fanout_s"] == 0
    # Neither regeneration gates plans; the service gates every build.
    assert char["staticcheck.verify_s"] == twig["staticcheck.verify_s"] == 0
    assert ingest["staticcheck.verify_s"] > 0 and ingest["journal.record_s"] > 0
    assert fetch["http.encode_plan_s"] > 0 and fetch["persist.plan_decode_s"] > 0
    assert ingest["persist.restore_s"] > 0 and fetch["persist.restore_s"] > 0


def test_compare_reads_a_report_against_itself_as_unchanged(smoke_report):
    report, _ = smoke_report
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    rows = compare(report, report, bounds)
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert {r[-1] for r in rows} == {"unchanged"}


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert verdict(base, base, 0.1, "lower") == "unchanged"
    assert verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "regression"
    assert verdict(base, [v * 0.9 for v in base], 0.1, "lower") == "gain"
    assert verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "regression"
    # Too few pairs to claim a gain.
    assert verdict(base[:5], [v * 0.9 for v in base[:5]], 0.1, "lower") == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert verdict(noisy, noisy, 0.1, "lower") == "unresolved"
    # Wide spread, but every run of B beats every run of A: not worse.
    assert verdict(noisy, [v / 10 for v in noisy], 0.1, "lower") == "unchanged"


@pytest.mark.parametrize("n, expected", [
    (150, 0.90 * 149),  # p90
    (100, 0.90 * 99),   # p90: exactly 10 beyond
    (74, 0.86 * 73),    # p86: the highest with 10 beyond
    (20, 9.5),          # the median
    (8, 3.5),           # too few for any: the median
])
def test_tail_is_the_highest_percentile_with_ten_values_beyond(n, expected):
    assert tail([float(v) for v in range(n)]) == pytest.approx(expected)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    """Only BENCHMARK.json and the suite's own files: no result, exit != 0."""
    suite = tmp_path / "src" / "repro" / "bench" / "suite"
    shutil.copytree(SUITE_DIR, suite, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in child_env(str(tmp_path)).items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(suite / "run.py"), "--workload", "figs_twig",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == b""

"""The per-pass summary of scripts/flag_scan.py on hand-built records, and
the reasons it gives for flagged rows."""

import importlib.util
import pathlib
from dataclasses import replace

import numpy as np

from depthlab.estimators import EstimatorResult
from depthlab.simlab import (BiasRecord, ContaminationSpec, gen_contaminated,
                             read_records_csv, replicate_seed,
                             write_records_csv)

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "flag_scan.py"
SPEC = importlib.util.spec_from_file_location("flag_scan", PATH)
flag_scan = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(flag_scan)


def row(estimator, replicate=0, k=0, flag=False):
    b = float("inf") if flag else 2.0
    return BiasRecord(estimator, 2, 20, 0.2, k, replicate, 2.0, 1.0, b, 2.0,
                      flag)


def test_parse_range():
    assert flag_scan.parse_range("1-3,7") == [1, 2, 3, 7]
    assert flag_scan.parse_range("4") == [4]


def test_flagged_counts_per_estimator_in_row_order(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv([row("SCOV"), row("MCD", flag=True), row("SE", flag=True),
                       row("MCD", replicate=1, flag=True), row("MM", k=5),
                       row("MM", k=15, flag=True)], path)
    counts = flag_scan.flagged(path)
    assert counts == {"MCD": 2, "SE": 1, "MM": 1}
    assert list(counts) == ["MCD", "SE", "MM"]
    assert flag_scan.describe(counts) == "MCD 2, SE 1, MM 1"


def test_clean_pass_reads_none(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv([row("SCOV"), row("MVE")], path)
    assert flag_scan.flagged(path) == {}
    assert flag_scan.describe({}) == "none"


def test_scan_pass_simulates_the_pass_config(tmp_path):
    tiny = flag_scan.workloads.Workload(
        name="tiny", kind="grid", why="", p=(2,), n=(12,), epsilon=(0.2,),
        k=(0,), replicates=1)
    assert flag_scan.scan_pass(tiny, 3, 1, tmp_path) == {}
    text = (tmp_path / "pass.cfg").read_text()
    assert "seed = 3001" in text
    records = read_records_csv(tmp_path / "records.csv")
    assert [r.estimator for r in records] == list(flag_scan.workloads.ESTIMATORS)


def test_reason_of_a_raised_fit(tmp_path):
    # grid_p5 seed 7 pass 3 (config seed 7003) flags this SE row: its MVE
    # start is degenerate, with 12 of 50 rows on the mass.
    rec = BiasRecord("SE", 5, 50, 0.2, 25, 0, float("nan"), float("nan"),
                     float("inf"), float("inf"), True)
    path = tmp_path / "records.csv"
    write_records_csv([row("SCOV"), rec], path)
    assert flag_scan.reasons(path, 7003) == [
        "SE: p 5, n 50, eps 0.2, k 25, replicate 0, 12 of 50 rows on the "
        "mass; ValueError: degenerate MVE start"]


def test_reason_of_an_unconverged_fit(tmp_path, monkeypatch):
    seen = []

    def fit(estimator, data, stream):
        seen.append((estimator, data.copy()))
        return EstimatorResult(estimator, np.zeros(2), np.diag([2.0, 1e-3]),
                               iterations=500, converged=False, singular=True)

    monkeypatch.setattr(flag_scan, "run_estimator", fit)
    rec = row("ROCKE", replicate=1, k=15, flag=True)
    assert flag_scan.explain(rec, 3001).endswith(
        "replicate 1, 4 of 20 rows on the mass; converged False, "
        "singular True, lambda_p 0.001")
    # The re-fit sees the replicate's data, generated as simlab does.
    spec = ContaminationSpec(p=2, n=20, epsilon=0.2, k=15, seed=3001)
    data = gen_contaminated(replace(spec, seed=replicate_seed(spec, 1)))
    assert seen[0][0] == "ROCKE" and np.array_equal(seen[0][1], data)
    assert int(np.all(data == 15.0, axis=1).sum()) == 4

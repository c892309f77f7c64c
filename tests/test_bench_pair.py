"""The summary of scripts/bench_pair.py on hand-built run records."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
SPEC = importlib.util.spec_from_file_location("bench_pair", PATH)
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

END_TO_END = [{"name": "throughput_per_s", "better": "higher"},
              {"name": "task_p50_s", "better": "lower"}]


def record(side, seed, throughput=None, p50=None, digests=None, trace=0,
           workload="w", failed=0, attempted=100):
    """One run as bench_pair stores it; no metrics means the run printed
    no result."""
    result = None
    if throughput is not None:
        result = {"correct": True, "failed": failed, "attempted": attempted,
                  "metrics": {"throughput_per_s": {"value": throughput},
                              "task_p50_s": {"value": p50}}}
    return {"workload": workload, "seed": seed, "trace": trace, "side": side,
            "records_sha256": digests or {}, "result": result}


def test_spread_quartiles_and_single_run():
    assert bench_pair.spread([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}
    assert bench_pair.spread([2.0]) == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "runs": 1}


def test_wins_count_pairs_and_ties_for_neither():
    runs = []
    for seed, (tp, tc), (pp, pc) in zip(
            (1, 2, 3), ((1.0, 2.0), (2.0, 2.0), (3.0, 1.0)),
            ((0.5, 0.5), (0.5, 0.4), (0.5, 0.6))):
        runs += [record("parent", seed, tp, pp), record("change", seed, tc, pc)]
    entry = bench_pair.summarize(runs, END_TO_END)["w"]
    assert entry["throughput_per_s"]["change_wins"] == "1 of 3"
    assert entry["task_p50_s"]["change_wins"] == "1 of 3"
    assert entry["throughput_per_s"]["parent"]["median"] == 2.0
    assert entry["throughput_per_s"]["change"]["median"] == 2.0
    assert entry["seeds"] == [1, 2, 3] and entry["correct"]
    assert "records_equal_on_common_passes" not in entry
    assert "passes_per_seed" not in entry
    assert "passes_one_side_only" not in entry
    assert entry["failed_share"]["change"] == {
        "failed": 0, "attempted": 300, "share": 0.0}


def test_only_pairs_both_sides_finished_are_compared():
    # Seed 2 has no change result: it is left out of the pairs, the
    # quartiles and the digest comparison, and the workload is not correct.
    runs = [record("parent", 1, 1.0, 0.5, {"pass0": "a", "pass1": "b"}),
            record("change", 1, 3.0, 0.2,
                   {"pass0": "a", "pass1": "c", "pass2": "d"}),
            record("parent", 2, 9.0, 0.1, {"pass0": "e"}),
            record("change", 2)]
    entry = bench_pair.summarize(runs, END_TO_END)["w"]
    assert entry["throughput_per_s"]["change_wins"] == "1 of 1"
    assert entry["throughput_per_s"]["parent"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0, "runs": 1}
    assert entry["records_equal_on_common_passes"] == "1 of 2 passes"
    assert not entry["correct"]


def test_failed_share_and_passes_per_seed():
    # The change finishes more passes and fails more fits on seed 1; seed 3
    # has no parent result, so its failures are left out of both shares.
    runs = [record("parent", 1, 1.0, 0.5, {"pass0": "a", "pass1": "b"},
                   failed=0, attempted=280),
            record("change", 1, 2.0, 0.4,
                   {"pass0": "a", "pass1": "b", "pass2": "c"},
                   failed=2, attempted=420),
            record("parent", 2, 1.0, 0.5, {"pass0": "d"},
                   failed=4, attempted=140),
            record("change", 2, 1.0, 0.5, {"pass0": "d"},
                   failed=4, attempted=140),
            record("parent", 3),
            record("change", 3, 1.0, 0.5, {"pass0": "e"},
                   failed=9, attempted=140)]
    entry = bench_pair.summarize(runs, END_TO_END)["w"]
    assert entry["failed_share"] == {
        "parent": {"failed": 4, "attempted": 420, "share": 0.009524},
        "change": {"failed": 6, "attempted": 560, "share": 0.010714}}
    assert entry["passes_per_seed"] == {
        "parent": {"1": 2, "2": 1},
        "change": {"1": 3, "2": 1, "3": 1}}
    assert entry["records_equal_on_common_passes"] == "3 of 3 passes"
    assert entry["passes_one_side_only"] == {"parent": [], "change": [[1, 2]]}


def test_passes_one_side_only_lists_each_side_by_seed_and_pass():
    # Each side reaches passes the other does not; seed 3 ran on one side
    # only, so it has no pair and lists nothing.
    runs = [record("parent", 1, 1.0, 0.5, {f"pass{i}": "a" for i in range(12)}),
            record("change", 1, 2.0, 0.4, {f"pass{i}": "a" for i in range(10)}),
            record("parent", 2, 1.0, 0.5, {"pass0": "b"}),
            record("change", 2, 2.0, 0.4, {f"pass{i}": "b" for i in range(3)}),
            record("change", 3, 2.0, 0.4, {"pass0": "c", "pass1": "d"})]
    entry = bench_pair.summarize(runs, END_TO_END)["w"]
    assert entry["passes_one_side_only"] == {
        "parent": [[1, 10], [1, 11]], "change": [[2, 1], [2, 2]]}


def test_traced_runs_keep_metrics_nonzero_on_either_side():
    runs = [record("parent", 1, 1.0, 0.0, trace=1),
            record("change", 1, 2.0, 0.0, trace=1)]
    entry = bench_pair.summarize(runs, END_TO_END)["w"]
    assert entry["traced"] == {"seed_1": {"parent": {"throughput_per_s": 1.0},
                                          "change": {"throughput_per_s": 2.0}}}
    assert "throughput_per_s" not in entry


def test_parent_revision_is_required(capsys):
    with pytest.raises(SystemExit):
        bench_pair.main(["--out", "unused.json", "--seeds", "w=1"])
    assert "--parent" in capsys.readouterr().err

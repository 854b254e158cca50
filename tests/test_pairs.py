import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _rows(path):
    return {(r["comparison"], r["workload"], r["metric"]): r
            for r in pairs.summarize(pairs.load_records(path), END_TO_END)}


def test_the_summary_of_bench_11_pins_its_medians_and_win_counts():
    rows = _rows(ROOT / "BENCH_11.json")
    assert len(rows) == 4 * len(END_TO_END)
    # (parent median, change median, wins, pairs)
    expected = {
        ("4824942 -> 4b330d2", "ffd_stack", "wall_s"): (2.3721, 2.3595, 2, 8),
        ("4824942 -> 4b330d2", "ffd_stack", "peak_rss_mb"): (170.12, 138.73, 8, 8),
        ("4824942 -> 4b330d2", "pseudo_label", "wall_s"): (2.1925, 2.1446, 8, 12),
        ("4824942 -> 4b330d2", "pseudo_label", "setup_s"): (0.79381, 0.31593, 12, 12),
        ("4824942 -> 4b330d2", "affine_xmod", "wall_s"): (0.24489, 0.24303, 3, 8),
        ("4824942 -> 4b330d2", "affine_xmod", "dice_mean"): (0.85865, 0.85865, 0, 8),
        ("bd6d19d -> 4824942", "ffd_stack", "wall_s"): (3.1273, 2.5677, 8, 8),
        ("bd6d19d -> 4824942", "ffd_stack", "setup_s"): (1.0669, 0.97796, 5, 8),
    }
    for key, (parent, change, wins, n) in expected.items():
        row = rows[key]
        assert row["parent"] == pytest.approx(parent, rel=1e-4), key
        assert row["change"] == pytest.approx(change, rel=1e-4), key
        assert (row["wins"], row["pairs"]) == (wins, n), key
    assert all(row["passes"] for row in rows.values())
    row = rows[("bd6d19d -> 4824942", "ffd_stack", "wall_s")]
    assert row["rel"] == pytest.approx(2.5677 / 3.1273 - 1.0, rel=1e-3)
    assert row["parent_iqr"] == pytest.approx(0.4754, rel=1e-3)


def _record(side, pair, wall, correct=True, exit=0):
    metrics = {spec["name"]: {"value": 1.0, "unit": spec["unit"]} for spec in END_TO_END}
    metrics["wall_s"]["value"] = wall
    return dict(side=side, pair=pair, run_order=0, argv=["--workload", "ffd_stack"],
                exit=exit, meta_line={}, comparison="a -> b", tree_commit=side,
                result_line={"correct": correct, "metrics": metrics})


def test_a_change_worse_than_its_bound_does_not_pass():
    records = [_record("parent", k, 1.0) for k in range(4)]
    records += [_record("change", k, w) for k, w in enumerate((1.3, 1.26, 1.4, 0.9))]
    row = next(r for r in pairs.summarize(records, END_TO_END) if r["metric"] == "wall_s")
    # wall_s's bound is 0.25: a median 28 % above the parent's fails it
    assert row["change"] == pytest.approx(1.28) and row["wins"] == 1
    assert not row["passes"]


@pytest.mark.parametrize("bad", [dict(correct=False), dict(exit=1), dict(exit=-1)])
def test_the_summary_exits_one_when_a_run_failed(tmp_path, capsys, bad):
    path = tmp_path / "records.json"
    records = [_record("parent", 0, 1.0), _record("change", 0, 0.9)]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert pairs.main(["--summary", str(path)]) == 0
    failed = _record("change", 1, 5.0, **bad)
    if bad.get("exit") == -1:  # a run that timed out printed no result line
        failed["result_line"] = None
    records += [failed, _record("parent", 1, 1.2), _record("parent", 2, 1.4),
                _record("change", 2, 1.1)]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert pairs.main(["--summary", str(path)]) == 1
    assert "wall_s" in capsys.readouterr().out
    # the failed run and its pair count in no median, win or range
    row = next(r for r in pairs.summarize(records, END_TO_END) if r["metric"] == "wall_s")
    assert (row["parent"], row["change"]) == (pytest.approx(1.2), pytest.approx(1.0))
    assert (row["wins"], row["pairs"], row["left_out"]) == (2, 2, 1)
    assert row["parent_iqr"] == pytest.approx(0.2) and row["passes"]


def test_a_parent_median_of_zero_gives_no_relative_change():
    records = [_record("parent", 0, 0.0), _record("change", 0, 0.1)]
    row = next(r for r in pairs.summarize(records, END_TO_END) if r["metric"] == "wall_s")
    assert math.isnan(row["rel"]) and not row["passes"]


def test_pairs_alternate_and_cycle_the_seeds(monkeypatch, tmp_path):
    runs = []

    def fake_run(tree, argv):
        runs.append((tree, argv[3]))
        return 0, {"meta": {}}, _record(tree, 0, 1.0)["result_line"]

    monkeypatch.setattr(pairs, "_run", fake_run)
    out = tmp_path / "out.json"
    trees = {side: side for side in pairs.SIDES}
    commits = {"parent": "1" * 40, "change": "2" * 40}
    pairs.run_pairs(trees, commits, ["ffd_stack"], ["1", "heldout"], 2, 15.0, out)
    assert runs == [("parent", "1"), ("change", "1"), ("change", "heldout"),
                    ("parent", "heldout"), ("parent", "1"), ("change", "1"),
                    ("change", "heldout"), ("parent", "heldout")]
    records = pairs.load_records(out)
    assert [(r["side"], r["pair"], r["run_order"]) for r in records] == [
        (side, k // 2, k) for k, (side, _) in enumerate(runs)]
    assert all(r["comparison"] == "1111111 -> 2222222" and len(r["loadavg"]) == 3
               and r["argv"][-2:] == ["--seconds", "15"] for r in records)
    # a second call appends pairs 4 and 5, numbered and ordered after these
    runs.clear()
    assert len(pairs.run_pairs(trees, commits, ["ffd_stack"], ["1", "heldout"], 1, 15.0,
                               out)) == 12
    assert runs == [("parent", "1"), ("change", "1"), ("change", "heldout"),
                    ("parent", "heldout")]
    assert [(r["pair"], r["run_order"]) for r in pairs.load_records(out)[8:]] == [
        (4, 8), (4, 9), (5, 10), (5, 11)]

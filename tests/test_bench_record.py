"""tools/bench_record.py's summaries and its `--compare` on a recorded file.

The recorder runs perfbench and its probe processes only from the command
line; these tests cover the arithmetic it writes into BENCH_<pr>.json and
the table `--compare` prints from such a file.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH_33 = ROOT / "BENCH_33.json"


@pytest.mark.parametrize("values, iqr", [
    ([], 0.0),
    ([5.0], 0.0),
    ([1.0, 2.0, 3.0, 4.0, 5.0], 2.0),
    ([4.0, 1.0, 3.0, 2.0], 1.5),  # inclusive quartiles 1.75 and 3.25, in any order
])
def test_iqr(values, iqr):
    assert bench_record._iqr(values) == iqr


def _pair(parent: dict, change: dict) -> dict:
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


METRICS = [
    {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "never_read", "unit": "s", "better": "lower", "bound": 0.1},
]


def test_summarize_counts_wins_in_each_better_direction_and_ties_for_neither():
    pairs = [
        # lower time wins, higher rate wins
        _pair({"time_s": 2.0, "rate_per_s": 10.0}, {"time_s": 1.0, "rate_per_s": 20.0}),
        # ties in both
        _pair({"time_s": 2.0, "rate_per_s": 10.0}, {"time_s": 2.0, "rate_per_s": 10.0}),
        # losses in both
        _pair({"time_s": 2.0, "rate_per_s": 10.0}, {"time_s": 3.0, "rate_per_s": 5.0}),
        # a metric only one side read is left out of that metric's pairs
        _pair({"time_s": 2.0}, {"time_s": 0.5, "rate_per_s": 40.0}),
    ]
    out = bench_record.summarize(pairs, METRICS)
    assert sorted(out) == ["rate_per_s", "time_s"]
    time_s, rate = out["time_s"], out["rate_per_s"]
    assert time_s["wins"] == "2/4" and rate["wins"] == "1/3"
    assert (time_s["unit"], time_s["better"], time_s["bound"]) == ("s", "lower", 0.25)
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.1)
    assert time_s["parent"] == {"median": 2.0, "iqr": 0.0, "values": [2.0] * 4}
    assert time_s["change"]["values"] == [1.0, 2.0, 3.0, 0.5]
    assert time_s["change"]["median"] == 1.5 and time_s["ratio"] == 0.75
    assert rate["change"] == {"median": 10.0, "iqr": 7.5, "values": [20.0, 10.0, 5.0]}
    assert rate["ratio"] == 1.0


def test_summarize_gives_no_ratio_over_a_zero_parent_median():
    out = bench_record.summarize([_pair({"time_s": 0.0}, {"time_s": 1.0})], METRICS)
    assert out["time_s"]["ratio"] is None and out["time_s"]["wins"] == "0/1"


def test_summarize_probe_skips_a_failed_run():
    good = {"cluster_seconds": 0.5, "cluster_sha256": "c"}
    runs = {"parent": [good, None, {**good, "cluster_seconds": 0.7}], "change": [None, good, None]}
    out = bench_record.summarize_probe(runs, "clustering_s")
    assert out["unit"] == "s" and out["better"] == "lower" and out["runs"] == 3
    assert out["parent"] == {"min": 0.5, "median": 0.6, "values": [0.5, 0.7], "sha256": ["c"]}
    assert out["change"] == {"min": 0.5, "median": 0.5, "values": [0.5], "sha256": ["c"]}
    assert out["ratio"] == 0.5 / 0.6


def test_summarize_probe_with_every_run_of_a_side_failed():
    runs = {"parent": [{"seconds": 1.0, "sha256": "n"}], "change": [None]}
    out = bench_record.summarize_probe(runs, "novel_members_3000_generics_s")
    assert out["change"] == {"min": None, "median": None, "values": [], "sha256": []}
    assert out["ratio"] is None


def _probe_rows(text: str) -> dict[str, str]:
    return {line.split(":")[0].removeprefix("probe "): line
            for line in text.splitlines() if line.startswith("probe ")}


def test_compare_a_recorded_file_with_itself(capsys):
    assert bench_record.compare(str(BENCH_33), str(BENCH_33)) == 0
    printed = capsys.readouterr().out
    recorded = json.loads(BENCH_33.read_text(encoding="utf-8"))
    rows = _probe_rows(printed)
    assert sorted(rows) == sorted(recorded["probes"])
    assert all(row.endswith("B/A change 1.0000") for row in rows.values())
    for workload, metrics in recorded["end_to_end"].items():
        for name in metrics:
            assert any(line.split()[:2] == [workload, name] for line in printed.splitlines())


def test_compare_prints_a_probe_the_older_file_lacks(tmp_path, capsys):
    recorded = json.loads(BENCH_33.read_text(encoding="utf-8"))
    newer = copy.deepcopy(recorded)
    newer["probes"]["clustering_traced_peak_mb"] = newer["probes"]["clustering_peak_rss_mb"]
    path = tmp_path / "newer.json"
    path.write_text(json.dumps(newer), encoding="utf-8")
    assert bench_record.compare(str(BENCH_33), str(path)) == 0
    rows = _probe_rows(capsys.readouterr().out)
    assert sorted(rows) == sorted(newer["probes"])
    assert rows["clustering_traced_peak_mb"].startswith(
        "probe clustering_traced_peak_mb: A ratio -,")

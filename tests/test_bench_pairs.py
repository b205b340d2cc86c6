"""scripts/bench_pairs.py: the summary of canned pair results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"tokens_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}


def _pairs(parent, change, name="tokens_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_summary_counts_wins_in_the_metric_direction():
    pairs = _pairs([100, 110, 120, 130, 140], [150, 105, 160, 170, 180])
    (line,) = bench_pairs.summarize(pairs, BETTER)
    assert line == (
        "tokens_per_s: parent median 120 (quartiles 110 to 130), "
        "change median 160 (+33.3%), change better in 4 of 5 pairs, "
        "better than the parent's quartiles"
    )
    lower = _pairs([30.0, 31.0, 32.0, 33.0, 34.0], [29.0, 31.5, 31.8, 32.9, 35.0], "peak_rss_mb")
    (line,) = bench_pairs.summarize(lower, BETTER)
    assert line.endswith("change better in 3 of 5 pairs, within the parent's quartiles")
    assert "parent median 32 (quartiles 31 to 33), change median 31.8 (-0.6%)" in line
    worse = _pairs([30.0, 31.0, 32.0, 33.0, 34.0], [33.5, 33.6, 33.7, 33.8, 33.9], "peak_rss_mb")
    (line,) = bench_pairs.summarize(worse, BETTER)
    assert line.endswith("change better in 1 of 5 pairs, worse than the parent's quartiles")


def test_summary_reads_workload_prefixed_names():
    pairs = [({"raw-wide/setup_s": p, "raw-wide/tokens_per_s": 1.0},
              {"raw-wide/setup_s": c, "raw-wide/tokens_per_s": 1.0})
             for p, c in [(0.10, 0.08), (0.11, 0.07), (0.12, 0.09)]]
    setup, tokens = bench_pairs.summarize(pairs, BETTER)
    assert setup.startswith("raw-wide/setup_s: parent median 0.11 (quartiles 0.105 to 0.115)")
    assert setup.endswith("change better in 3 of 3 pairs, better than the parent's quartiles")
    # Equal values are no win either way.
    assert tokens.endswith("change better in 0 of 3 pairs, within the parent's quartiles")


def test_one_pair_or_one_checkout_is_a_usage_error(tmp_path, capsys):
    for argv in (["a", "b", "--workload", "raw-wide", "--pairs", "1"],
                 [str(tmp_path), str(tmp_path), "--workload", "raw-wide"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2

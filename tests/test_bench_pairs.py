"""scripts/bench_pairs.py: the summary of canned pair results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# As in BENCHMARK.json's end_to_end list.
END_TO_END = {
    "tokens_per_s": {"name": "tokens_per_s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def _pairs(parent, change, name="tokens_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_summary_counts_wins_in_the_metric_direction():
    pairs = _pairs([100, 110, 120, 130, 140], [150, 105, 160, 170, 180])
    (line,) = bench_pairs.summarize(pairs, END_TO_END)
    assert line == (
        "tokens_per_s: parent median 120 (quartiles 110 to 130), "
        "change median 160 (+33.3%), change better in 4 of 5 pairs, "
        "better than the parent's quartiles: no regression"
    )
    lower = _pairs([30.0, 31.0, 32.0, 33.0, 34.0], [29.0, 31.5, 31.8, 32.9, 35.0], "peak_rss_mb")
    (line,) = bench_pairs.summarize(lower, END_TO_END)
    assert line.endswith("change better in 3 of 5 pairs, within the parent's quartiles: "
                         "no regression")
    assert "parent median 32 (quartiles 31 to 33), change median 31.8 (-0.6%)" in line
    worse = _pairs([30.0, 31.0, 32.0, 33.0, 34.0], [33.5, 33.6, 33.7, 33.8, 33.9], "peak_rss_mb")
    (line,) = bench_pairs.summarize(worse, END_TO_END)
    assert line.endswith("change better in 1 of 5 pairs, worse than the parent's quartiles: "
                         "no regression")


def test_summary_reads_workload_prefixed_names():
    pairs = [({"raw-wide/setup_s": p, "raw-wide/tokens_per_s": 1.0},
              {"raw-wide/setup_s": c, "raw-wide/tokens_per_s": 1.0})
             for p, c in [(0.10, 0.08), (0.11, 0.07), (0.12, 0.09)]]
    setup, tokens = bench_pairs.summarize(pairs, END_TO_END)
    assert setup.startswith("raw-wide/setup_s: parent median 0.11 (quartiles 0.105 to 0.115)")
    # Three wins in three pairs are too few pairs for a gain.
    assert setup.endswith("change better in 3 of 3 pairs, better than the parent's quartiles: "
                          "no regression")
    # Equal values are no win either way.
    assert tokens.endswith("change better in 0 of 3 pairs, within the parent's quartiles: "
                           "no regression")


def _verdict(parent, change, name="tokens_per_s"):
    (line,) = bench_pairs.summarize(_pairs(parent, change, name), END_TO_END)
    return line.rsplit(": ", 1)[1]


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25 to 106.75


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_spread():
    assert _verdict(PARENT, [p + 10 for p in PARENT[:9]] + [90]) == "gain"
    # Eight wins in ten, with a tie and a loss: no gain, however far the median moved.
    assert _verdict(PARENT, [p + 50 for p in PARENT[:8]] + [108, 90]) == "no regression"
    # Ten wins, but the median moved by 4, less than the parent's quartile spread of 4.5.
    assert _verdict(PARENT, [p + 4 for p in PARENT]) == "no regression"
    # Lower is better for peak RSS: a change that reads higher in every pair is no gain.
    assert _verdict(PARENT, [p + 5 for p in PARENT], "peak_rss_mb") == "no regression"
    assert _verdict(PARENT, [p - 5 for p in PARENT], "peak_rss_mb") == "gain"


def test_regressed_is_a_median_worse_by_more_than_the_bound():
    # tokens_per_s may fall by a quarter of the parent's median (104.5), peak RSS by a tenth.
    assert _verdict(PARENT, [78] * 10) == "regressed"
    assert _verdict(PARENT, [79] * 10) == "no regression"
    assert _verdict(PARENT, [115] * 10, "peak_rss_mb") == "regressed"
    assert _verdict(PARENT, [114] * 10, "peak_rss_mb") == "no regression"


def test_unresolved_is_a_parent_spread_wider_than_the_bound():
    # Quartiles 95.25 to 104.75 around a median of 100: a spread of 9.5%,
    # inside peak RSS's bound of 10%.
    wide = [90, 94, 95, 96, 100, 100, 104, 105, 106, 110]
    assert _verdict(wide, wide, "peak_rss_mb") == "no regression"
    wider = [80, 90, 94, 95, 100, 100, 105, 106, 110, 120]  # quartiles 94.25 to 105.75
    assert _verdict(wider, wider, "peak_rss_mb") == "unresolved"
    assert _verdict(wider, wider) == "no regression"  # tokens_per_s's bound is 25%
    # Unless every change run beats every parent run, even by less than the spread.
    skewed = [100] * 7 + [130, 140, 150]  # median 100, quartiles 100 to 122.5
    assert _verdict(skewed, [99] * 10, "peak_rss_mb") == "no regression"
    assert _verdict(skewed, [99] * 9 + [101], "peak_rss_mb") == "unresolved"


def test_one_pair_or_one_checkout_is_a_usage_error(tmp_path, capsys):
    for argv in (["a", "b", "--workload", "raw-wide", "--pairs", "1"],
                 [str(tmp_path), str(tmp_path), "--workload", "raw-wide"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2


def test_a_checkout_with_cached_bytecode_is_refused_before_any_run(tmp_path, monkeypatch):
    """Cached bytecode under either src/ lowers that side's setup_s and
    peak_rss_mb, so main exits 1 naming the directory and runs nothing."""
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("ran"))
    for side in ("parent", "change"):
        parent, change = tmp_path / side / "parent", tmp_path / side / "change"
        for tree in (parent, change):
            (tree / "src" / "pkg").mkdir(parents=True)
        cache = (parent if side == "parent" else change) / "src" / "pkg" / "__pycache__"
        cache.mkdir()
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(parent), str(change), "--workload", "raw-wide"])
        assert isinstance(exc.value.code, str) and exc.value.code.startswith(f"{cache}: ")


def test_main_reads_the_bounds_of_the_change_benchmark(tmp_path, capsys, monkeypatch):
    """The bounds come from the change's BENCHMARK.json, which is read and
    left as it was; the sides alternate which runs first."""
    benchmark = _PATH.parents[1] / "BENCHMARK.json"
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_bytes(benchmark.read_bytes())
    ran = []

    def canned(checkout, workload, seconds, seed):
        ran.append(Path(checkout).name)
        value = 100.0 + len(ran) if checkout == str(parent) else 70.0
        return {"tokens_per_s": value}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    assert bench_pairs.main([str(parent), str(change), "--workload", "raw-wide",
                             "--pairs", "4"]) == 0
    assert ran == ["parent", "change", "change", "parent"] * 2
    *_, verdict, delta = capsys.readouterr().out.splitlines()
    assert verdict.startswith("tokens_per_s: ") and verdict.endswith(": regressed")
    assert delta == "net src/ lines: +0"
    assert (change / "BENCHMARK.json").read_bytes() == benchmark.read_bytes()


def test_src_line_delta_counts_the_files_that_differ(tmp_path):
    """Each src/**/*.py file whose bytes differ, with its line count on
    each side (0 where absent), and the net change; other files are left out."""
    trees = {
        "parent": {"a.py": "x\n" * 3, "same.py": "s\n", "pkg/gone.py": "g\n" * 3,
                   "pkg/edit.py": "e\n", "notes.txt": "n\n"},
        "change": {"a.py": "x\n" * 5, "same.py": "s\n", "pkg/new.py": "n\n" * 2,
                   "pkg/edit.py": "f\n", "notes.txt": "n\n" * 9},
    }
    for side, files in trees.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert bench_pairs.src_line_delta(str(tmp_path / "parent"), str(tmp_path / "change")) == [
        "src/a.py: 3 -> 5 lines (+2)",
        "src/pkg/edit.py: 1 -> 1 lines (+0)",
        "src/pkg/gone.py: 3 -> 0 lines (-3)",
        "src/pkg/new.py: 0 -> 2 lines (+2)",
        "net src/ lines: +1",
    ]

"""Tests of the benchmark's own code: input generation, checks, span maths.

Run with: python3 -m pytest fanbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.SPECS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = gen.generate(workload, 3, str(tmp_path / "a"))
    second = gen.generate(workload, 3, str(tmp_path / "b"))
    other = gen.generate(workload, 4, str(tmp_path / "c"))
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert set(_files(tmp_path / "a")) == set(_files(tmp_path / "c"))
    assert set(_files(tmp_path / "a")) >= {"slang.txt", "dict.txt"}


def test_workload_shapes(tmp_path):
    """The properties each workload was chosen for hold on a fresh seed."""
    wide, _ = gen.generate("raw-wide", 11, str(tmp_path / "w"))
    cv, _ = gen.generate("analyzed-cv", 11, str(tmp_path / "c"))
    pre, _ = gen.generate("preanalyzed-eval", 11, str(tmp_path / "p"))
    # Long tail versus heavy head.
    assert wide["distinct_ratio"] > 0.2
    assert cv["distinct_ratio"] < 0.15
    # Both analysis routes carry load on analyzed-cv, neither elsewhere.
    assert 0.3 < cv["table_hit_share"] < 0.7
    assert wide["table_hit_share"] == pre["table_hit_share"] == 0.0
    for shape in (wide, cv, pre):
        assert shape["tokens"] > 10_000


def test_preanalyzed_documents_carry_up_to_three_suffixes(tmp_path):
    gen.generate("preanalyzed-eval", 2, str(tmp_path))
    lengths = set()
    with open(tmp_path / "test.jsonl", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            assert len(doc["analyses"]) >= 8
            lengths.update(len(a["suffixes"]) for a in doc["analyses"])
    assert lengths == {0, 1, 2, 3}


def test_turkish_casing_round_trips():
    for word in ("ılık", "izmir", "şeker", "çöğ"):
        upper = gen.turkish_upper(word)
        assert upper.replace("I", "ı").replace("İ", "i").lower() == word
        assert gen.capitalize(word)[1:] == word[1:]


def test_self_times_subtract_children():
    spans = [
        ["cli.score", 0.0, 10.0, None],
        ["corpus.load", 1.0, 3.0, 0],
        ["scorer.score", 4.0, 9.0, 0],
        ["kernels.tokenize", 5.0, 6.0, 2],
    ]
    selfs = run.self_times(spans)
    assert selfs["cli"] == pytest.approx(3.0)
    assert selfs["corpus"] == pytest.approx(2.0)
    assert selfs["scorer"] == pytest.approx(4.0)
    assert selfs["kernels"] == pytest.approx(1.0)


def test_build_check_compares_totals_with_generated_tokens():
    expect = {"fake_train_tokens": 10, "valid_train_tokens": 7, "lexicon_terms": 5}
    good = b'{"class":"RAW","unique_terms":5,"fake_total":10,"valid_total":7,"out":"raw.lex"}'
    assert run.check_output("build-lexicon", good, expect)["fake_total"] == 10
    with pytest.raises(run.CheckError):
        run.check_output("build-lexicon", good.replace(b":10", b":11"), expect)


def test_score_check_wants_one_line_per_document():
    expect = {"test_ids": ["t1", "t2"]}
    line = b'{"id":"%s","class":"RAW","label":"FAKE"}\n'
    assert run.check_output("score", line % b"t1" + line % b"t2", expect) == {
        "labels": ["FAKE", "FAKE"]
    }
    with pytest.raises(run.CheckError):
        run.check_output("score", line % b"t1", expect)


def test_evaluate_check_wants_totals_equal_to_test_size():
    classes = gen.CLASSES.split(",")
    cm = '{"tp":1,"fn":1,"fp":0,"tn":1}'
    body = ",".join(f'"{c}":{{"confusion":{cm}}}' for c in classes)
    stdout = ('{"results":{%s}}' % body).encode()
    run.check_output("evaluate", stdout, {"test_ids": ["a", "b", "c"]})
    with pytest.raises(run.CheckError):
        run.check_output("evaluate", stdout, {"test_ids": ["a", "b"]})


def test_peak_rss_is_each_childs_own(tmp_path):
    """Neither the parent's peak nor an earlier big child's shows in a small child's."""
    held = bytearray(150_000_000)
    held[::4096] = b"x" * len(held[::4096])
    launcher = run.Launcher()
    try:
        big = [sys.executable, "-c", "x = bytearray(120_000_000)"]
        _, _, big_mb, _, _ = launcher.run(big, tmp_path)
        code, _, small_mb, _, _ = launcher.run([sys.executable, "-c", "pass"], tmp_path)
    finally:
        launcher.close()
    del held
    assert code == 0
    assert big_mb > 120
    assert small_mb < 60


def test_clock_scales_by_the_calibrations_around_each_interval(monkeypatch):
    readings = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(readings))
    clock = hostspeed.Clock()
    ref = hostspeed.REFERENCE_S
    assert clock.scale(1.0) == pytest.approx(ref / 0.04)  # mean of 0.02 and 0.06
    assert clock.scale(2.0) == pytest.approx(2.0 * ref / 0.05)
    assert clock.calibrations == [0.02, 0.06, 0.04]

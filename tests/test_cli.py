import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import fanlex.corpus
from fanlex.cli import build_parser, main
from fanlex.config import RunConfig, load_config_file
from fanlex.corpus import Label, load_corpus, save_corpus
from fanlex.lexicon import RAW_POS_SEPARATOR, CountMode, TermPipeline, load_lexicon
from fanlex.morph import Locale, compose_text
from fanlex.scorer import TermSetMode, explain
from synth import separable_corpus

CLASS_NAMES = ["RAW", "ROOT", "RAW_POS", "SUFFIX"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FANLEX_CONFIG", raising=False)


@pytest.fixture
def cli_files(tmp_path):
    rng = random.Random(13)
    train = separable_corpus(rng, 8, 8, prefix="tr")
    test = separable_corpus(rng, 4, 4, prefix="te")
    paths = {
        "fake": tmp_path / "fake.jsonl",
        "valid": tmp_path / "valid.jsonl",
        "test": tmp_path / "test.jsonl",
        "mixed": tmp_path / "mixed.jsonl",
        "dir": tmp_path,
    }
    save_corpus(train.filter(Label.FAKE), str(paths["fake"]))
    save_corpus(train.filter(Label.VALID), str(paths["valid"]))
    save_corpus(test, str(paths["test"]))
    save_corpus(train, str(paths["mixed"]))
    return paths


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build(capsys, cli_files, model_class="RAW", extra=()):
    out = cli_files["dir"] / f"lex-{model_class}.jsonl"
    code, stdout, _ = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            model_class,
            "--out",
            out,
            *extra,
        ],
    )
    assert code == 0
    return out, json.loads(stdout)


def test_build_lexicon(capsys, cli_files):
    out, payload = build(capsys, cli_files)
    assert payload["class"] == "RAW"
    assert payload["count_mode"] == "TOKEN_FREQ"
    assert payload["out"] == str(out)
    assert payload["unique_terms"] == (
        payload["common_terms"] + payload["only_fake"] + payload["only_valid"]
    )
    lex = load_lexicon(str(out))
    assert len(lex.entries) == payload["unique_terms"]
    assert lex.fake_total == payload["fake_total"]


def test_build_lexicon_rejects_mislabeled(capsys, cli_files):
    code, _, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["mixed"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            cli_files["dir"] / "x.jsonl",
        ],
    )
    assert code == 2
    assert "labeled VALID" in err


def test_build_lexicon_empty_split_is_domain_error(capsys, cli_files, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            empty,
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            tmp_path / "x.jsonl",
        ],
    )
    assert code == 3
    assert "empty training split" in err


def test_build_lexicon_missing_file(capsys, cli_files):
    code, _, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["dir"] / "nope.jsonl",
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            cli_files["dir"] / "x.jsonl",
        ],
    )
    assert code == 2
    assert "error:" in err


def test_score_jsonl_schema(capsys, cli_files):
    raw_lex, _ = build(capsys, cli_files, "RAW")
    root_lex, _ = build(capsys, cli_files, "ROOT")
    code, stdout, _ = run(
        capsys,
        [
            "score",
            "--lexicon",
            raw_lex,
            "--lexicon",
            root_lex,
            "--input",
            cli_files["test"],
        ],
    )
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 8 * 2
    rows = [json.loads(line) for line in lines]
    for row in rows:
        assert set(row) == {
            "id",
            "class",
            "fake_score",
            "valid_score",
            "label",
            "unknown_terms",
        }
    # Document order, lexicon flag order.
    assert [r["class"] for r in rows[:2]] == ["RAW", "ROOT"]
    assert rows[0]["id"] == rows[1]["id"] == "tef0"
    # Separable corpus: every prediction matches the id prefix.
    for row in rows:
        expected = "FAKE" if row["id"].startswith("tef") else "VALID"
        assert row["label"] == expected


def test_score_out_file(capsys, cli_files, tmp_path):
    lex, _ = build(capsys, cli_files, "RAW")
    out = tmp_path / "scores.jsonl"
    code, stdout, _ = run(
        capsys,
        ["score", "--lexicon", lex, "--input", cli_files["test"], "--out", out],
    )
    assert code == 0
    assert stdout == ""
    assert len(out.read_text(encoding="utf-8").splitlines()) == 8


def test_score_explain_report(capsys, cli_files):
    lex, _ = build(capsys, cli_files, "RAW")
    code, _, err = run(
        capsys,
        ["score", "--lexicon", lex, "--input", cli_files["test"], "--explain", "3"],
    )
    assert code == 0
    assert "top terms" in err
    assert "delta" in err


def test_score_rejects_negative_explain(capsys, cli_files):
    lex, _ = build(capsys, cli_files, "RAW")
    code, _, err = run(
        capsys,
        ["score", "--lexicon", lex, "--input", cli_files["test"], "--explain", "-1"],
    )
    assert code == 2
    assert "--explain" in err


@pytest.mark.parametrize("explain", [[], ["--explain", "0"]])
def test_score_report_without_explain_is_refused(capsys, cli_files, tmp_path, explain):
    lex, _ = build(capsys, cli_files, "RAW")
    report = tmp_path / "report.txt"
    out = tmp_path / "scores.jsonl"
    # The input does not exist: the refusal comes before it is read.
    argv = ["score", "--lexicon", lex, "--input", "missing.jsonl", "--out", out]
    code, stdout, err = run(capsys, [*argv, "--report", report, *explain])
    assert code == 2
    assert "--report needs --explain" in err
    assert stdout == ""
    assert not report.exists() and not out.exists()


def _plain_copy(src, dst):
    """The corpus at src without its analyses, so scoring must analyze it."""
    rows = [json.loads(line) for line in src.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        row.pop("analyses", None)
    dst.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return dst


def test_score_explain_analyzes_each_document_once(capsys, cli_files, monkeypatch):
    raw_lex, _ = build(capsys, cli_files, "RAW")
    root_lex, _ = build(capsys, cli_files, "ROOT")
    plain = _plain_copy(cli_files["test"], cli_files["dir"] / "plain.jsonl")
    calls: Counter = Counter()
    real = TermPipeline.terms

    def counting(self, doc):
        calls[doc.id] += 1
        return real(self, doc)

    monkeypatch.setattr(TermPipeline, "terms", counting)
    code, stdout, err = run(
        capsys,
        [
            "score",
            "--lexicon",
            raw_lex,
            "--lexicon",
            root_lex,
            "--input",
            plain,
            "--explain",
            "3",
        ],
    )
    assert code == 0
    assert "top terms" in err
    ids = [doc.id for doc in load_corpus(str(plain)).documents]
    assert calls == Counter(ids)


def test_score_explain_report_equals_explain(capsys, cli_files, tmp_path):
    lexicon_paths = [build(capsys, cli_files, c)[0] for c in ("RAW", "RAW_POS", "SUFFIX")]
    report = tmp_path / "explain.txt"
    argv = ["score", "--input", cli_files["test"], "--explain", "2", "--report", report]
    for path in lexicon_paths:
        argv += ["--lexicon", path]
    code, _, _ = run(capsys, argv)
    assert code == 0
    blocks = report.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
    scale = RunConfig().display_scale
    expected = []
    for doc in load_corpus(str(cli_files["test"])).documents:
        for lex in [load_lexicon(str(p)) for p in lexicon_paths]:
            rows = [
                [
                    c.term.replace(RAW_POS_SEPARATOR, "/"),
                    f"{c.fake_score * scale:.4f}",
                    f"{c.valid_score * scale:.4f}",
                    f"{c.delta * scale:+.4f}",
                ]
                for c in explain(doc, lex, 2)
            ]
            expected.append((f"doc {doc.id} [{lex.model_class.value}]", rows))
    got = []
    for block in blocks:
        lines = block.split("\n")
        got.append((lines[0].split(" top terms")[0], [line.split() for line in lines[3:]]))
    assert got == expected
    assert all(rows for _, rows in got)


def test_score_duplicate_lexicon_class_is_domain_error(capsys, cli_files):
    raw_lex, _ = build(capsys, cli_files, "RAW")
    code, stdout, err = run(
        capsys,
        ["score", "--lexicon", raw_lex, "--lexicon", raw_lex, "--input", cli_files["test"]],
    )
    assert code == 3
    assert stdout == ""
    assert "duplicate lexicon class" in err


@pytest.mark.parametrize("target", ["build-lexicon --out", "score --out", "--report"])
def test_failed_write_keeps_old_file(capsys, cli_files, monkeypatch, tmp_path, target):
    lex, _ = build(capsys, cli_files, "RAW")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "target"
    path.write_bytes(b"old bytes\n")
    if target == "build-lexicon --out":
        argv = ["build-lexicon", "--fake", cli_files["fake"], "--valid", cli_files["valid"]]
        argv += ["--class", "RAW", "--out", path]
    elif target == "score --out":
        argv = ["score", "--lexicon", lex, "--input", cli_files["test"], "--out", path]
    else:
        argv = ["score", "--lexicon", lex, "--input", cli_files["test"]]
        argv += ["--explain", "2", "--report", path]

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "replace refused" in err
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in out_dir.iterdir()] == ["target"]


@pytest.mark.parametrize("target", ["build-lexicon --out", "score --out", "--report"])
def test_write_error_names_target(capsys, cli_files, tmp_path, target):
    path = tmp_path / "missing" / "target"
    if target == "build-lexicon --out":
        argv = ["build-lexicon", "--fake", cli_files["fake"], "--valid", cli_files["valid"]]
        argv += ["--class", "RAW", "--out", path]
    else:
        lex, _ = build(capsys, cli_files, "RAW")
        argv = ["score", "--lexicon", lex, "--input", cli_files["test"]]
        argv += ["--out", path] if target == "score --out" else ["--explain", "2", "--report", path]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert f"No such file or directory: '{path}'\n" in err
    assert ".tmp" not in err


def test_score_tampered_lexicon_is_format_error(capsys, cli_files):
    lex, _ = build(capsys, cli_files, "RAW")
    text = lex.read_text(encoding="utf-8")
    lex.write_text(text.replace('"fc":1', '"fc":3', 1), encoding="utf-8")
    code, _, err = run(
        capsys, ["score", "--lexicon", lex, "--input", cli_files["test"]]
    )
    assert code == 4
    assert "checksum" in err


def test_score_undecodable_lexicon_is_format_error(capsys, cli_files):
    lex = cli_files["dir"] / "bad.lex"
    lex.write_bytes(b"\xff\xfe\n")
    code, _, err = run(
        capsys, ["score", "--lexicon", lex, "--input", cli_files["test"]]
    )
    assert code == 4
    assert "bad.lex: not valid UTF-8" in err


@pytest.mark.parametrize(
    "model_class,analysis",
    [
        ("ROOT", {"root": 5, "pos": "Noun"}),
        ("RAW_POS", {"root": "ev", "pos": 7}),
        ("SUFFIX", {"root": "ev", "pos": "Noun", "suffixes": [3]}),
    ],
)
def test_build_lexicon_bad_rule_table_is_input_error(
    capsys, tmp_path, write_jsonl, model_class, analysis
):
    fake = write_jsonl("fake.jsonl", [{"id": "f", "text": "ev evde", "label": "FAKE"}])
    valid = write_jsonl("valid.jsonl", [{"id": "v", "text": "ev", "label": "VALID"}])
    table = write_jsonl("table.jsonl", [{"surface": "ev", "analyses": [analysis]}])
    out = tmp_path / "x.lex"
    code, _, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            fake,
            "--valid",
            valid,
            "--class",
            model_class,
            "--rule-table",
            table,
            "--out",
            out,
        ],
    )
    assert code == 2
    assert "table.jsonl:1: bad analysis" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--smoothing", "nan"],
        ["--smoothing", "inf"],
        ["--smoothing", "1e308"],
        ["--display-scale", "inf"],
    ],
)
def test_build_lexicon_rejects_non_finite_flag(capsys, cli_files, flags):
    out = cli_files["dir"] / "lex-nan.jsonl"
    code, stdout, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            out,
            *flags,
        ],
    )
    assert code == 2
    assert "finite" in err
    assert stdout == ""
    assert not out.exists()


def test_build_lexicon_rejects_non_finite_config(capsys, cli_files, write_text):
    conf = write_text("inf.conf", "smoothing = inf\n")
    out = cli_files["dir"] / "lex-inf.jsonl"
    code, stdout, err = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            out,
            "--config",
            conf,
        ],
    )
    assert code == 2
    assert "finite" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e308"])
def test_score_non_finite_lexicon_smoothing_is_format_error(capsys, cli_files, value):
    lex, _ = build(capsys, cli_files, "RAW")
    text = lex.read_text(encoding="utf-8")
    assert '"smoothing":0.0' in text
    lex.write_text(text.replace('"smoothing":0.0', f'"smoothing":{value}', 1), encoding="utf-8")
    code, stdout, err = run(
        capsys, ["score", "--lexicon", lex, "--input", cli_files["test"]]
    )
    assert code == 4
    assert "smoothing" in err
    assert stdout == ""


def test_evaluate(capsys, cli_files):
    code, stdout, err = run(
        capsys,
        [
            "evaluate",
            "--train-fake",
            cli_files["fake"],
            "--train-valid",
            cli_files["valid"],
            "--test",
            cli_files["test"],
        ],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["classes"] == CLASS_NAMES
    assert payload["config"]["count_mode"] == "TOKEN_FREQ"
    for name in CLASS_NAMES:
        result = payload["results"][name]
        assert result["metrics"]["accuracy"] == 1.0
        assert result["confusion"]["tp"] == 4
        assert result["confusion"]["tn"] == 4
    assert "precision" in err
    assert "== RAW ==" in err


def test_evaluate_class_subset(capsys, cli_files):
    code, stdout, _ = run(
        capsys,
        [
            "evaluate",
            "--train-fake",
            cli_files["fake"],
            "--train-valid",
            cli_files["valid"],
            "--test",
            cli_files["test"],
            "--classes",
            "raw,suffix",
        ],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["classes"] == ["RAW", "SUFFIX"]
    assert set(payload["results"]) == {"RAW", "SUFFIX"}


def test_evaluate_duplicate_classes(capsys, cli_files):
    code, _, err = run(
        capsys,
        [
            "evaluate",
            "--train-fake",
            cli_files["fake"],
            "--train-valid",
            cli_files["valid"],
            "--test",
            cli_files["test"],
            "--classes",
            "RAW,RAW",
        ],
    )
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("command", ["evaluate", "cross-validate"])
@pytest.mark.parametrize("spelling", ["", ","])
def test_empty_classes_is_input_error(capsys, cli_files, command, spelling):
    if command == "evaluate":
        argv = ["evaluate", "--train-fake", cli_files["fake"]]
        argv += ["--train-valid", cli_files["valid"], "--test", cli_files["test"]]
    else:
        argv = ["cross-validate", "--input", cli_files["mixed"], "--folds", "2"]
    code, stdout, err = run(capsys, [*argv, "--classes", spelling])
    assert code == 2
    assert stdout == ""
    assert "--classes names no model class" in err


def test_evaluate_leakage(capsys, cli_files):
    code, _, err = run(
        capsys,
        [
            "evaluate",
            "--train-fake",
            cli_files["fake"],
            "--train-valid",
            cli_files["valid"],
            "--test",
            cli_files["mixed"],
        ],
    )
    assert code == 3
    assert "shared between train and test" in err


def test_evaluate_empty_test(capsys, cli_files, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(
        capsys,
        [
            "evaluate",
            "--train-fake",
            cli_files["fake"],
            "--train-valid",
            cli_files["valid"],
            "--test",
            empty,
        ],
    )
    assert code == 3
    assert "empty" in err


def test_cross_validate(capsys, cli_files):
    code, stdout, err = run(
        capsys,
        [
            "cross-validate",
            "--input",
            cli_files["mixed"],
            "--folds",
            "4",
            "--classes",
            "RAW,ROOT",
            "--seed",
            "11",
        ],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["folds"] == 4
    assert payload["config"]["seed"] == 11
    assert len(payload["per_fold"]) == 4 * 2
    assert payload["means"]["RAW"]["accuracy"] == 1.0
    assert "mean" in err


def test_cross_validate_bad_fold_count(capsys, cli_files):
    code, _, err = run(
        capsys,
        ["cross-validate", "--input", cli_files["mixed"], "--folds", "1"],
    )
    assert code == 3
    assert "folds" in err


def test_corpus_stats(capsys, cli_files, write_text):
    path = write_text(
        "tiny.jsonl",
        '{"id":"a","text":"Bir iki üç. Dört.","label":"FAKE","source":"aa"}\n'
        '{"id":"b","text":"Beş altı.","label":"VALID"}\n',
    )
    code, stdout, err = run(capsys, ["corpus-stats", "--input", path])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["doc_count_by_label"] == {"FAKE": 1, "VALID": 1}
    assert payload["mean_tokens_per_doc"] == 3.0
    assert payload["mean_sentences_per_doc"] == 1.5
    assert payload["token_total"] == 6
    assert payload["groups"] == [
        {"source": "(none)", "label": "VALID", "count": 1},
        {"source": "aa", "label": "FAKE", "count": 1},
    ]
    assert "mean tokens/doc" in err


def test_verify_corpus(capsys, write_text):
    corpus = write_text(
        "v.jsonl",
        '{"id":"a","text":"Bu çok fena lan. Bu iyi.","label":"FAKE","source":"x"}\n'
        '{"id":"b","text":"Ccok fenna 47.","label":"VALID","source":"y"}\n',
    )
    slang = write_text("slang.txt", "lan\nçok fena\n")
    words = write_text("dict.txt", "bu\nçok\nfena\niyi\n")
    code, stdout, err = run(
        capsys,
        ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", words],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["overall"]["slang_per_sentence"] == pytest.approx(2 / 3)
    assert payload["overall"]["misspelling_per_sentence"] == pytest.approx(2 / 3)
    assert payload["groups"] == [
        {
            "source": "x",
            "label": "FAKE",
            "slang_per_sentence": 1.0,
            "misspelling_per_sentence": 0.0,
        },
        {
            "source": "y",
            "label": "VALID",
            "slang_per_sentence": 0.0,
            "misspelling_per_sentence": 2.0,
        },
    ]
    assert "x (FAKE)" in err
    assert "overall" in err


def test_verify_corpus_without_sentences_is_domain_error(capsys, write_text):
    corpus = write_text(
        "v.jsonl",
        '{"id":"a","text":"","label":"FAKE","source":"x"}\n'
        '{"id":"b","text":"  ","title":"","label":"VALID"}\n',
    )
    slang = write_text("slang.txt", "lan\n")
    words = write_text("dict.txt", "bu\n")
    code, stdout, err = run(
        capsys,
        ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", words],
    )
    assert code == 3
    assert stdout == ""
    assert "no sentences" in err


def test_verify_corpus_tokenizes_each_document_once(capsys, write_text, monkeypatch):
    docs = [
        {"id": "a", "text": "Bu çok fena lan. Bu iyi.", "label": "FAKE", "source": "x"},
        {"id": "b", "text": "Ccok fenna 47.", "label": "VALID", "source": "y"},
        {"id": "c", "text": "", "label": "FAKE", "source": "z"},
        {"id": "d", "title": "Başlık", "text": "iyi lan", "label": "FAKE", "source": "x"},
    ]
    corpus = write_text("v.jsonl", "".join(json.dumps(d) + "\n" for d in docs))
    slang = write_text("slang.txt", "lan\nçok fena\n")
    words = write_text("dict.txt", "bu\nçok\nfena\niyi\n")
    calls: Counter = Counter()
    real = fanlex.corpus.normalized_tokens

    def counting(text, *args, **kwargs):
        calls[text] += 1
        return real(text, *args, **kwargs)

    monkeypatch.setattr(fanlex.corpus, "normalized_tokens", counting)
    code, _, _ = run(
        capsys,
        ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", words],
    )
    assert code == 0
    texts = [compose_text(d.get("title"), d["text"], True) for d in docs]
    assert calls == Counter(texts)


def test_inspect_term(capsys, cli_files):
    raw_lex, _ = build(capsys, cli_files, "RAW")
    pos_lex, _ = build(capsys, cli_files, "RAW_POS")
    code, stdout, _ = run(
        capsys,
        [
            "inspect-term",
            "--term",
            "FRAUDCORE",
            "--pos",
            "Noun",
            "--lexicon",
            raw_lex,
            "--lexicon",
            pos_lex,
        ],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["term"] == "FRAUDCORE"
    raw_hit, pos_hit = payload["results"]
    assert raw_hit["class"] == "RAW"
    assert raw_hit["found"] is True
    assert raw_hit["term"] == "fraudcore"
    assert raw_hit["valid_count"] == 0
    assert pos_hit["found"] is True
    assert pos_hit["term"] == "fraudcore\x01Noun"


def test_inspect_term_not_found(capsys, cli_files):
    raw_lex, _ = build(capsys, cli_files, "RAW")
    code, stdout, _ = run(
        capsys, ["inspect-term", "--term", "yok", "--lexicon", raw_lex]
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["results"][0] == {"class": "RAW", "found": False}


def test_report_flag_redirects_tables(capsys, cli_files, tmp_path):
    report = tmp_path / "report.txt"
    out, _ = build(capsys, cli_files, "RAW", extra=["--report", report])
    text = report.read_text(encoding="utf-8")
    assert "unique terms" in text
    # Nothing went to stderr.
    _, _, err = run(capsys, ["inspect-term", "--term", "x", "--lexicon", out, "--report", str(tmp_path / "r2.txt")])
    assert err == ""


def test_config_file_and_env(capsys, cli_files, write_text, monkeypatch):
    conf = write_text("run.conf", "count_mode = doc_presence\nsmoothing = 0.5\n")
    out = cli_files["dir"] / "lex-conf.jsonl"
    code, stdout, _ = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            out,
            "--config",
            conf,
        ],
    )
    assert code == 0
    assert json.loads(stdout)["count_mode"] == "DOC_PRESENCE"
    lex = load_lexicon(str(out))
    assert lex.smoothing == 0.5

    # The same file picked up through the environment variable.
    monkeypatch.setenv("FANLEX_CONFIG", conf)
    out2 = cli_files["dir"] / "lex-env.jsonl"
    code, stdout, _ = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            out2,
        ],
    )
    assert code == 0
    assert json.loads(stdout)["count_mode"] == "DOC_PRESENCE"

    # Explicit flags beat the file.
    out3 = cli_files["dir"] / "lex-flag.jsonl"
    code, stdout, _ = run(
        capsys,
        [
            "build-lexicon",
            "--fake",
            cli_files["fake"],
            "--valid",
            cli_files["valid"],
            "--class",
            "RAW",
            "--out",
            out3,
            "--count-mode",
            "TOKEN_FREQ",
        ],
    )
    assert code == 0
    assert json.loads(stdout)["count_mode"] == "TOKEN_FREQ"


def test_bad_config_file(capsys, cli_files, write_text):
    conf = write_text("bad.conf", "wat = 1\n")
    code, _, err = run(
        capsys,
        [
            "corpus-stats",
            "--input",
            cli_files["mixed"],
            "--config",
            conf,
        ],
    )
    assert code == 2
    assert "unknown config key" in err


# One row per RunConfig field: a value other than the default, its
# config-file text and its command-line flags.
SETTINGS = [
    ("locale", Locale.GENERIC, "generic", ["--locale", "GENERIC"]),
    ("count_mode", CountMode.DOC_PRESENCE, "Doc_Presence", ["--count-mode", "DOC_PRESENCE"]),
    ("term_set_mode", TermSetMode.MULTISET, "multiset", ["--term-set-mode", "MULTISET"]),
    ("smoothing", 0.5, "0.5", ["--smoothing", "0.5"]),
    ("seed", 7, "7", ["--seed", "7"]),
    ("include_title", False, "0", ["--no-title"]),
    ("display_scale", 2.5, "2.5", ["--display-scale", "2.5"]),
]


def test_settings_table_names_every_field():
    assert [row[0] for row in SETTINGS] == [f.name for f in fields(RunConfig)]


@pytest.mark.parametrize("name,value,text,flags", SETTINGS, ids=[r[0] for r in SETTINGS])
def test_setting_round_trips(capsys, cli_files, write_text, name, value, text, flags):
    expected = RunConfig(**{name: value}).to_dict()
    conf = write_text("one.conf", f"{name} = {text}\n")
    evaluate = ["evaluate", "--train-fake", cli_files["fake"],
                "--train-valid", cli_files["valid"], "--test", cli_files["test"]]
    for extra in (flags, ["--config", conf]):
        code, stdout, _ = run(capsys, [*evaluate, *extra])
        assert code == 0
        assert json.loads(stdout)["config"] == expected
    # The reported key and value, read back as a config line.
    again = write_text("again.conf", f"{name} = {expected[name]}\n")
    assert load_config_file(again) == {name: value}


REQUIRED = {
    "build-lexicon": ["--fake", "f", "--valid", "v", "--class", "RAW", "--out", "o"],
    "score": ["--lexicon", "l", "--input", "i"],
    "evaluate": ["--train-fake", "f", "--train-valid", "v", "--test", "t"],
    "cross-validate": ["--input", "i"],
    "corpus-stats": ["--input", "i"],
    "verify-corpus": ["--input", "i", "--slang", "s", "--dictionary", "d"],
    "inspect-term": ["--term", "t", "--lexicon", "l"],
}
ANALYZING = ["build-lexicon", "score", "evaluate", "cross-validate"]


@pytest.mark.parametrize("command", ANALYZING)
def test_analyzing_commands_take_analyzer_files(command):
    args = build_parser().parse_args(
        [command, *REQUIRED[command], "--rule-table", "t.jsonl", "--suffix-rules", "s.tsv"]
    )
    assert (args.rule_table, args.suffix_rules) == ("t.jsonl", "s.tsv")


@pytest.mark.parametrize("flag", ["--rule-table", "--suffix-rules"])
@pytest.mark.parametrize("command", sorted(set(REQUIRED) - set(ANALYZING)))
def test_other_commands_refuse_analyzer_files(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, "missing.jsonl"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} missing.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--locale", "turkish"],
         "argument --locale: invalid choice: 'turkish' (choose from 'TURKISH', 'GENERIC')"),
        (["--smoothing", "abc"], "argument --smoothing: invalid float value: 'abc'"),
        # A config file refuses a number with the digit separator; so do flags.
        (["--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
        (["--smoothing", "1_0.5"], "argument --smoothing: invalid float value: '1_0.5'"),
    ],
)
def test_bad_setting_flag_is_usage_error(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", *REQUIRED["evaluate"], *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "command,flag", [("cross-validate", "--folds"), ("score", "--explain")]
)
def test_folds_and_explain_refuse_digit_separator(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, "0_3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid int value: '0_3'" in err


@pytest.mark.parametrize("command", ["score", "inspect-term"])
def test_zero_total_lexicon_is_format_error(capsys, cli_files, command):
    # Entries that agree with a zero fake_total pass every other check.
    lex = cli_files["dir"] / "zero.lex"
    header = {"format": "fanlex-lexicon", "version": 1, "class": "RAW",
              "count_mode": "TOKEN_FREQ", "fake_total": 0, "valid_total": 2}
    entry = {"t": "yok", "fc": 0, "vc": 2}
    lex.write_text(f"{json.dumps(header)}\n{json.dumps(entry)}\n", encoding="utf-8")
    if command == "score":
        argv = ["score", "--lexicon", lex, "--input", cli_files["test"]]
    else:
        argv = ["inspect-term", "--term", "yok", "--lexicon", lex]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"error: {lex}: fake_total 0 is not > 0\n"


def test_unknown_model_class_usage_error(cli_files):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fanlex",
            "build-lexicon",
            "--fake",
            str(cli_files["fake"]),
            "--valid",
            str(cli_files["valid"]),
            "--class",
            "STEM",
            "--out",
            str(cli_files["dir"] / "x.jsonl"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "unknown model class" in proc.stderr


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "fanlex", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("fanlex ")


def test_score_byte_determinism(cli_files):
    env_lex = str(cli_files["dir"] / "det.jsonl")
    base = [
        sys.executable,
        "-m",
        "fanlex",
        "build-lexicon",
        "--fake",
        str(cli_files["fake"]),
        "--valid",
        str(cli_files["valid"]),
        "--class",
        "SUFFIX",
        "--out",
        env_lex,
    ]
    first = subprocess.run(base, capture_output=True)
    assert first.returncode == 0
    lex_bytes = Path(env_lex).read_bytes()
    second = subprocess.run(base, capture_output=True)
    assert second.returncode == 0
    assert Path(env_lex).read_bytes() == lex_bytes
    assert first.stdout == second.stdout

    score = [
        sys.executable,
        "-m",
        "fanlex",
        "score",
        "--lexicon",
        env_lex,
        "--input",
        str(cli_files["test"]),
    ]
    runs = [subprocess.run(score, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


# main builds only the subparser of the command that runs; the rest get
# their names and help lines only. Everything a user sees must equal the
# parser with every subparser built.


def _exit_output(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_one_subparser_parses_as_all(command):
    argv = [command, *REQUIRED[command]]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("case", ["help", "unknown flag", "no flags"])
@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_one_subparser_prints_as_all(capsys, command, case):
    argv = {
        "help": [command, "--help"],
        "unknown flag": [command, *REQUIRED[command], "--bogus"],
        "no flags": [command],
    }[case]
    full = _exit_output(capsys, build_parser().parse_args, argv)
    assert full[0] == (0 if case == "help" else 2)
    assert _exit_output(capsys, main, argv) == full


@pytest.mark.parametrize(
    "argv,code",
    [(["--help"], 0), (["--version"], 0), (["bogus"], 2), ([], 2), (["-h", "evaluate"], 0),
     (["evaluat", "--test", "t"], 2)],
)
def test_top_level_output_unchanged(capsys, argv, code):
    full = _exit_output(capsys, build_parser().parse_args, argv)
    assert full[0] == code
    assert _exit_output(capsys, main, argv) == full


# hashlib maps OpenSSL's libcrypto; only commands that read or write a
# lexicon file load it.

_HASHLIB_PROBE = """
import sys
before = "hashlib" in sys.modules
import fanlex.cli
for argv in {runs!r}:
    assert fanlex.cli.main(argv) == 0, argv
print(before, "hashlib" in sys.modules)
"""


def _loads_hashlib(runs) -> tuple[bool, bool]:
    proc = subprocess.run(
        [sys.executable, "-c", _HASHLIB_PROBE.format(runs=runs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()[-2:]
    return before == "True", after == "True"


def test_start_up_does_not_load_hashlib(cli_files, write_text):
    slang = write_text("slang.txt", "lan\n")
    words = write_text("dict.txt", "bir\n")
    mixed, test = str(cli_files["mixed"]), str(cli_files["test"])
    before, after = _loads_hashlib(
        [
            ["cross-validate", "--input", mixed, "--folds", "2"],
            ["evaluate", "--train-fake", str(cli_files["fake"]),
             "--train-valid", str(cli_files["valid"]), "--test", test],
            ["corpus-stats", "--input", mixed],
            ["verify-corpus", "--input", mixed, "--slang", slang, "--dictionary", words],
        ]
    )
    # The interpreter's site hooks may load hashlib before fanlex does.
    assert before or not after


def test_lexicon_files_load_hashlib(cli_files):
    lex = str(cli_files["dir"] / "h.lex")
    build = ["build-lexicon", "--fake", str(cli_files["fake"]),
             "--valid", str(cli_files["valid"]), "--class", "RAW", "--out", lex]
    assert _loads_hashlib([build])[1]


# Raw stdout bytes of the commands whose records are NamedTuples: json.loads
# would not see a change of key order or number formatting.

PIN_DOCS = [
    {"id": "f1", "text": "Şok iddia! Vergi yok, herkes kaçtı.", "label": "FAKE", "source": "a"},
    {"id": "f2", "text": "Şok haber: vergi kalktı. İnanılmaz!", "label": "FAKE", "source": "a"},
    {"id": "f3", "title": "Yalan", "text": "Herkes kaçtı, şok iddia yayıldı.", "label": "FAKE",
     "source": "b"},
    {"id": "f4", "text": "İnanılmaz iddia: vergi yok.", "label": "FAKE"},
    {"id": "v1", "text": "Bakanlık vergi oranını açıkladı.", "label": "VALID", "source": "a"},
    {"id": "v2", "text": "Meclis yeni bütçeyi onayladı. Oran değişmedi.", "label": "VALID",
     "source": "b"},
    {"id": "v3", "title": "Bütçe", "text": "Bakanlık bütçe oranını açıkladı.", "label": "VALID",
     "source": "b"},
    {"id": "v4", "text": "Meclis vergi oranını onayladı.", "label": "VALID"},
]
PIN_TEST_ONLY = [
    {"id": "t1", "text": "Bakanlık şok iddia açıkladı.", "label": "VALID"},
    {"id": "t2", "text": "Meclis oranını onayladı, vergi yok.", "label": "FAKE"},
    {"id": "t3", "text": "Herkes bütçeyi konuştu.", "label": "FAKE"},
]
PIN_RUNS = {
    "inspect-term-found": ["inspect-term", "--term", "Vergi", "--lexicon", "@RAW",
                           "--lexicon", "@ROOT"],
    "inspect-term-missing": ["inspect-term", "--term", "uzay", "--lexicon", "@RAW"],
    "corpus-stats": ["corpus-stats", "--input", "@all"],
    "verify-corpus": ["verify-corpus", "--input", "@all", "--slang", "@slang",
                      "--dictionary", "@dict"],
    "evaluate": ["evaluate", "--train-fake", "@fake", "--train-valid", "@valid",
                 "--test", "@test", "--classes", "RAW,ROOT"],
    "cross-validate": ["cross-validate", "--input", "@all", "--folds", "2",
                       "--classes", "RAW,SUFFIX"],
}
PIN_STDOUT = {
    "inspect-term-found": (
        '{"term":"Vergi","results":[{"class":"RAW","found":true,"term":"vergi",'
        '"fake_count":2,"valid_count":1,"fake_score":0.11764705882352941,'
        '"valid_score":0.06666666666666667},{"class":"ROOT","found":true,'
        '"term":"vergi","fake_count":2,"valid_count":1,'
        '"fake_score":0.11764705882352941,"valid_score":0.06666666666666667}]}\n'
    ),
    "inspect-term-missing": (
        '{"term":"uzay","results":[{"class":"RAW","found":false}]}\n'
    ),
    "corpus-stats": (
        '{"doc_count_by_label":{"FAKE":4,"VALID":4},"mean_tokens_per_doc":5.0,'
        '"mean_sentences_per_doc":1.625,"token_total":40,'
        '"groups":[{"source":"(none)","label":"FAKE","count":1},{"source":"(none)",'
        '"label":"VALID","count":1},{"source":"a","label":"FAKE","count":2},'
        '{"source":"a","label":"VALID","count":1},{"source":"b","label":"FAKE",'
        '"count":1},{"source":"b","label":"VALID","count":2}]}\n'
    ),
    "verify-corpus": (
        '{"overall":{"slang_per_sentence":0.23076923076923078,'
        '"misspelling_per_sentence":1.8461538461538463},'
        '"groups":[{"source":"(none)","label":"FAKE","slang_per_sentence":0.0,'
        '"misspelling_per_sentence":2.0},{"source":"(none)","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":3.0},{"source":"a",'
        '"label":"FAKE","slang_per_sentence":0.5,"misspelling_per_sentence":1.0},'
        '{"source":"a","label":"VALID","slang_per_sentence":0.0,'
        '"misspelling_per_sentence":2.0},{"source":"b","label":"FAKE",'
        '"slang_per_sentence":0.5,"misspelling_per_sentence":1.5},{"source":"b",'
        '"label":"VALID","slang_per_sentence":0.0,'
        '"misspelling_per_sentence":2.5}]}\n'
    ),
    "evaluate": (
        '{"config":{"locale":"TURKISH","count_mode":"TOKEN_FREQ",'
        '"term_set_mode":"DISTINCT","smoothing":0.0,"seed":0,"include_title":true,'
        '"display_scale":1.0},"classes":["RAW","ROOT"],'
        '"results":{"RAW":{"confusion":{"tp":2,"fn":1,"fp":1,"tn":1},'
        '"metrics":{"precision":0.6666666666666666,"recall":0.6666666666666666,'
        '"accuracy":0.6,"f1":0.6666666666666666}},"ROOT":{"confusion":{"tp":1,'
        '"fn":2,"fp":1,"tn":1},"metrics":{"precision":0.5,'
        '"recall":0.3333333333333333,"accuracy":0.4,"f1":0.4}}}}\n'
    ),
    "cross-validate": (
        '{"config":{"locale":"TURKISH","count_mode":"TOKEN_FREQ",'
        '"term_set_mode":"DISTINCT","smoothing":0.0,"seed":0,"include_title":true,'
        '"display_scale":1.0},"folds":2,"classes":["RAW","SUFFIX"],'
        '"per_fold":[{"fold":0,"class":"RAW","precision":1.0,"recall":1.0,'
        '"accuracy":1.0,"f1":1.0},{"fold":0,"class":"SUFFIX","precision":0.5,'
        '"recall":1.0,"accuracy":0.5,"f1":0.6666666666666666},{"fold":1,'
        '"class":"RAW","precision":1.0,"recall":1.0,"accuracy":1.0,"f1":1.0},'
        '{"fold":1,"class":"SUFFIX","precision":0.5,"recall":1.0,"accuracy":0.5,'
        '"f1":0.6666666666666666}],"means":{"RAW":{"precision":1.0,"recall":1.0,'
        '"accuracy":1.0,"f1":1.0},"SUFFIX":{"precision":0.5,"recall":1.0,'
        '"accuracy":0.5,"f1":0.6666666666666666}}}\n'
    ),
}


@pytest.fixture
def pin_files(capsys, tmp_path, write_jsonl, write_text):
    fake = [d for d in PIN_DOCS if d["label"] == "FAKE"]
    valid = [d for d in PIN_DOCS if d["label"] == "VALID"]
    paths = {
        "all": write_jsonl("all.jsonl", PIN_DOCS),
        "fake": write_jsonl("fake.jsonl", fake[:3]),
        "valid": write_jsonl("valid.jsonl", valid[:3]),
        "test": write_jsonl("test.jsonl", fake[3:] + valid[3:] + PIN_TEST_ONLY),
        "slang": write_text("slang.txt", "şok\nşok iddia\n"),
        "dict": write_text("dict.txt", "vergi\nyok\nherkes\nbakanlık\n"),
    }
    for model_class in ("RAW", "ROOT"):
        paths[model_class] = str(tmp_path / f"{model_class}.lex")
        argv = ["build-lexicon", "--fake", paths["fake"], "--valid", paths["valid"],
                "--class", model_class, "--out", paths[model_class]]
        assert run(capsys, argv)[0] == 0
    return paths


@pytest.mark.parametrize("name", sorted(PIN_RUNS))
def test_stdout_bytes_are_pinned(capsys, pin_files, name):
    argv = [pin_files[a[1:]] if a.startswith("@") else a for a in PIN_RUNS[name]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == PIN_STDOUT[name]

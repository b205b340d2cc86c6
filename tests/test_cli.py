import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest

import fanlex.cli
import fanlex.corpus
import fanlex.evaluation
import fanlex.morph
from fanlex.cli import COMMANDS, _resolve_analyzer, _resolve_config, build_parser, main
from fanlex.config import FIELD_TYPES, RunConfig, load_config_file
from fanlex.corpus import Label, load_corpus, save_corpus
from fanlex.errors import AnalysisError
from fanlex.lexicon import RAW_POS_SEPARATOR, CountMode, TermPipeline, load_lexicon
from fanlex.morph import AnalyzerRuleTable, Locale, MorphAnalysis, compose_text
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


@pytest.mark.parametrize(
    "command, fake_flag, valid_flag, extra",
    [
        ("build-lexicon", "--fake", "--valid",
         lambda files: ["--class", "RAW", "--out", files["dir"] / "out.lex"]),
        ("evaluate", "--train-fake", "--train-valid", lambda files: ["--test", files["test"]]),
    ],
)
def test_training_corpus_reports_the_first_fault_it_reads(
    capsys, cli_files, command, fake_flag, valid_flag, extra
):
    """The training corpora are checked as they are read: a VALID document
    on line 1 of the fake corpus is reported before invalid JSON on line 3."""
    valid_lines = cli_files["valid"].read_text(encoding="utf-8").splitlines()
    fake = cli_files["dir"] / "bad-fake.jsonl"
    fake.write_text(f"{valid_lines[0]}\n{valid_lines[1]}\n{{not json\n", encoding="utf-8")
    first_id = json.loads(valid_lines[0])["id"]
    code, out, err = run(
        capsys, [command, fake_flag, fake, valid_flag, cli_files["valid"], *extra(cli_files)]
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: {fake_flag} corpus contains a document labeled VALID: {first_id!r}\n"
    )
    assert not (cli_files["dir"] / "out.lex").exists()


def test_build_lexicon_reads_the_valid_corpus_before_an_empty_fake_one(
    capsys, cli_files, tmp_path
):
    """An empty --fake is reported only once --valid is read, so a parse
    error in --valid comes first."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    valid = tmp_path / "valid.jsonl"
    text = cli_files["valid"].read_text(encoding="utf-8")
    valid.write_text(text + "{not json\n", encoding="utf-8")
    bad_line = text.count("\n") + 1
    code, out, err = run(
        capsys,
        ["build-lexicon", "--fake", empty, "--valid", valid, "--class", "RAW",
         "--out", tmp_path / "x.lex"],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {valid}:{bad_line}: invalid JSON (")
    assert not (tmp_path / "x.lex").exists()


def test_evaluate_reads_both_training_splits_before_the_test_corpus(
    capsys, cli_files, tmp_path
):
    """An empty --train-fake is reported once both training splits are read,
    before --test is read, so invalid JSON in --test is not reached."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    test = tmp_path / "test.jsonl"
    test.write_text("{not json\n", encoding="utf-8")
    code, out, err = run(
        capsys,
        ["evaluate", "--train-fake", empty, "--train-valid", cli_files["valid"], "--test", test],
    )
    assert (code, out, err) == (3, "", "error: empty training split: fake\n")


def test_verify_corpus_reads_the_word_lists_before_the_corpus(capsys, write_text):
    """A slang list of punctuation alone is reported before invalid JSON in --input."""
    code, out, err = run(
        capsys,
        ["verify-corpus", "--input", write_text("v.jsonl", "{not json\n"),
         "--slang", write_text("slang.txt", "!!!\n"),
         "--dictionary", write_text("dict.txt", "bu\n")],
    )
    assert (code, out, err) == (3, "", "error: slang list is empty\n")


def test_score_fails_whole_on_a_late_malformed_line(capsys, cli_files, tmp_path):
    """score scores each document as it is read, yet a malformed line after
    good ones exits 2 with nothing on stdout and --out left as it was."""
    lex, _ = build(capsys, cli_files)
    text = cli_files["test"].read_text(encoding="utf-8")
    broken = tmp_path / "broken.jsonl"
    broken.write_text(text + "{not json\n", encoding="utf-8")
    bad_line = text.count("\n") + 1
    out = tmp_path / "scores.jsonl"
    out.write_bytes(b"earlier bytes\n")
    for extra in ([], ["--out", out]):
        code, stdout, err = run(capsys, ["score", "--lexicon", lex, "--input", broken, *extra])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {broken}:{bad_line}: invalid JSON (")
    assert out.read_bytes() == b"earlier bytes\n"


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


# The commands that take --out; every_command leaves it off.
OUT_COMMANDS = ("build-lexicon", "score")


@pytest.fixture
def every_command(capsys, cli_files, write_text):
    """One argv per subcommand on the cli_files inputs; score explains."""
    lex = str(build(capsys, cli_files, "RAW")[0])
    slang = write_text("slang.txt", "lan\n")
    words = write_text("dict.txt", "bir\n")
    fake, valid, test, mixed = (str(cli_files[k]) for k in ("fake", "valid", "test", "mixed"))
    return {
        "build-lexicon": ["build-lexicon", "--fake", fake, "--valid", valid, "--class", "RAW"],
        "score": ["score", "--lexicon", lex, "--input", test, "--explain", "2"],
        "evaluate": ["evaluate", "--train-fake", fake, "--train-valid", valid, "--test", test],
        "cross-validate": ["cross-validate", "--input", mixed, "--folds", "2"],
        "corpus-stats": ["corpus-stats", "--input", mixed],
        "verify-corpus": ["verify-corpus", "--input", mixed, "--slang", slang,
                          "--dictionary", words],
        "inspect-term": ["inspect-term", "--term", "x", "--lexicon", lex],
    }


@pytest.mark.parametrize("command", list(COMMANDS))
def test_failed_report_prints_and_replaces_nothing(capsys, cli_files, every_command, command):
    out = cli_files["dir"] / "out.txt"
    out.write_bytes(b"old bytes\n")
    outs = {"build-lexicon": ["--out", cli_files["dir"] / "new.lex"], "score": ["--out", out]}
    argv = [*every_command[command], *outs.get(command, [])]
    before = sorted(p.name for p in cli_files["dir"].iterdir())
    report = cli_files["dir"] / "missing" / "report.txt"
    code, stdout, err = run(capsys, [*argv, "--report", report])
    assert code == 2
    assert stdout == ""
    assert err == f"error: [Errno 2] No such file or directory: '{report}'\n"
    assert sorted(p.name for p in cli_files["dir"].iterdir()) == before
    assert out.read_bytes() == b"old bytes\n"


def _run_to(stdout, argv):
    """Run the CLI in a child process writing stdout to the given file."""
    argv = [sys.executable, "-m", "fanlex", *map(str, argv)]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_closed_stdout_pipe_is_io_error(cli_files, every_command, command):
    read_end, write_end = os.pipe()
    os.close(read_end)
    outs = {"build-lexicon": ["--out", cli_files["dir"] / "new.lex"]}
    argv = [*every_command[command], *outs.get(command, [])]
    try:
        proc = _run_to(write_end, argv)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


def test_full_disk_on_stdout_is_io_error_after_files_are_replaced(cli_files):
    """Stdout is written after the files, so an --out file stays replaced."""
    out = cli_files["dir"] / "new.lex"
    out.write_bytes(b"old bytes\n")
    argv = ["build-lexicon", "--fake", cli_files["fake"], "--valid", cli_files["valid"],
            "--class", "RAW", "--out", out]
    with open("/dev/full", "wb") as full:
        proc = _run_to(full, argv)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"
    assert load_lexicon(str(out)).model_class.value == "RAW"


def _corpus_with_id(cli_files, tmp_path, doc_id):
    """The first test document again, under doc_id."""
    doc = json.loads(cli_files["test"].read_text(encoding="utf-8").splitlines()[0])
    path = tmp_path / "renamed.jsonl"
    path.write_text(json.dumps({**doc, "id": doc_id}) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", ["stdout", "--report", "--out"])
def test_unencodable_stdout_prints_and_replaces_nothing(capsys, cli_files, tmp_path, case):
    """Stdout is encoded before any file is written. An --out path with a
    byte that is not UTF-8, which the stdout echoes, cannot be encoded,
    and a lone surrogate in a document id is refused when the corpus
    loads: exit 2, nothing printed or replaced."""
    lex, _ = build(capsys, cli_files, "RAW")
    test = _corpus_with_id(cli_files, tmp_path, "t\ud800")
    out = tmp_path / "new\udcff.lex"
    out.write_bytes(b"old bytes\n")
    argv = {
        "stdout": ["score", "--lexicon", lex, "--input", test],
        "--report": ["score", "--lexicon", lex, "--input", test, "--explain", "1",
                     "--report", tmp_path / "r.txt"],
        "--out": ["build-lexicon", "--fake", cli_files["fake"], "--valid", cli_files["valid"],
                  "--class", "RAW", "--out", out],
    }[case]
    before = sorted(p.name for p in tmp_path.iterdir())
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    if case == "--out":
        assert err.startswith("error: 'utf-8' codec can't encode character '\\ud")
    else:
        assert err == f"error: {test}:1: string holds a lone surrogate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert out.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("field", ["id", "root", "surface"])
def test_lone_surrogate_in_json_input_names_the_line(capsys, cli_files, tmp_path, field):
    """UTF-8 text holds no surrogate, but a JSON escape can spell one,
    which no output could encode: the loader refuses it, naming the line."""
    lex, _ = build(capsys, cli_files, "RAW")
    bad = tmp_path / "bad.jsonl"
    analysis = {"raw": "kitaplar", "root": "kitap\ud800", "pos": "Noun"}
    line = {
        "id": {"id": "t\ud800", "text": "kitaplar", "label": "VALID"},
        "root": {"id": "f1", "text": "kitaplar", "label": "FAKE", "analyses": [analysis]},
        "surface": {"surface": "kitap\ud800", "analyses": [{"root": "kitap", "pos": "Noun"}]},
    }[field]
    bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
    build_root = ["build-lexicon", "--valid", cli_files["valid"], "--class", "ROOT",
                  "--out", tmp_path / "x.lex"]
    argv = {
        "id": ["score", "--lexicon", lex, "--input", bad],
        "root": [*build_root, "--fake", bad],
        "surface": [*build_root, "--fake", cli_files["fake"], "--rule-table", bad],
    }[field]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err == f"error: {bad}:1: string holds a lone surrogate\n"


def test_surrogate_pair_in_json_input_loads(capsys, cli_files, tmp_path):
    lex, _ = build(capsys, cli_files, "RAW")
    test = _corpus_with_id(cli_files, tmp_path, "t\U0001F600")
    assert "\\ud83d\\ude00" in test.read_text(encoding="utf-8")
    code, stdout, _ = run(capsys, ["score", "--lexicon", lex, "--input", test])
    assert code == 0
    assert json.loads(stdout)["id"] == "t\U0001F600"


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_the_locale(capsys, cli_files, tmp_path, encoding):
    lex, _ = build(capsys, cli_files, "RAW")
    test = _corpus_with_id(cli_files, tmp_path, "ışık-ş1")
    argv = [sys.executable, "-m", "fanlex", "score", "--lexicon", str(lex), "--input", str(test),
            "--explain", "1"]
    runs = [
        subprocess.run(argv, capture_output=True, env={**os.environ, "PYTHONIOENCODING": name})
        for name in ("utf-8", encoding)
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout.decode("utf-8"))["id"] == "ışık-ş1"
    # The --explain report on stderr is UTF-8 too.
    assert runs[0].stderr == runs[1].stderr
    assert "ışık-ş1".encode("utf-8") in runs[0].stderr


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_report_and_out_naming_one_file_is_refused(
    capsys, cli_files, every_command, monkeypatch, command
):
    monkeypatch.chdir(cli_files["dir"])
    Path("same.txt").write_bytes(b"old bytes\n")
    # The inputs are gone: the refusal comes before any is read.
    for name in ("fake", "valid", "test"):
        cli_files[name].unlink()
    argv = [*every_command[command], "--out", "same.txt", "--report", "./same.txt"]
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert err == "error: --report and --out name the same file\n"
    assert Path("same.txt").read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_never_overwrite_inputs(
    capsys, cli_files, every_command, write_text, monkeypatch, command
):
    conf = write_text("run.conf", "seed = 0\n")
    argv = [*every_command[command], "--config", conf]
    if command in ANALYZING:
        table = write_text("table.jsonl", "")
        rules = write_text("rules.tsv", "lar\tA3pl\n")
        argv += ["--rule-table", table, "--suffix-rules", rules]
    inputs = [(flag, value) for flag, value in zip(argv, argv[1:]) if os.path.isfile(value)]
    assert len(inputs) >= 2
    takes_out = command in OUT_COMMANDS
    fresh = str(cli_files["dir"] / "fresh.txt")
    fresh_out = ["--out", fresh] if takes_out else []
    for out in ["--report", "--out"] if takes_out else ["--report"]:
        for flag, path in inputs:
            before = Path(path).read_bytes()
            extra = [out, path] if out == "--out" else [*fresh_out, out, path]
            code, stdout, err = run(capsys, [*argv, *extra])
            assert (code, stdout) == (2, "")
            assert err == f"error: {out} and {flag} name the same file\n"
            assert Path(path).read_bytes() == before
    # The config file named by the environment is an input too.
    monkeypatch.setenv("FANLEX_CONFIG", conf)
    code, stdout, err = run(capsys, [*every_command[command], *fresh_out, "--report", conf])
    assert (code, stdout) == (2, "")
    assert err == "error: --report and $FANLEX_CONFIG name the same file\n"
    assert not Path(fresh).exists()


def _written(write):
    """The text a file writer of a handler's Outputs writes."""
    fh = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    write(fh)
    fh.flush()
    return fh.buffer.getvalue().decode("utf-8")


def test_handlers_return_outputs_and_write_nothing(capsys, cli_files, every_command):
    assert list(every_command) == list(COMMANDS)
    out = str(cli_files["dir"] / "out.txt")
    before = sorted(cli_files["dir"].iterdir())
    capsys.readouterr()
    for command, argv in every_command.items():
        takes_out = command in OUT_COMMANDS
        args = build_parser().parse_args([*argv, "--out", out] if takes_out else argv)
        stdout, report, files = COMMANDS[command][1](args, _resolve_config(args))
        assert (stdout == "") is (command == "score")
        assert report
        assert list(files) == ([out] if takes_out else [])
        assert all(_written(write).startswith("{") for write in files.values())
        assert capsys.readouterr() == ("", "")
        assert sorted(cli_files["dir"].iterdir()) == before


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


def test_score_rejects_non_finite_display_scale(capsys, cli_files):
    lex, _ = build(capsys, cli_files, "RAW")
    out = cli_files["dir"] / "scores.jsonl"
    argv = ["score", "--lexicon", lex, "--input", cli_files["test"], "--out", out]
    code, stdout, err = run(capsys, [*argv, "--display-scale", "inf"])
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


def _classes_argv(cli_files, command):
    """A run of a command that takes --classes, without that flag."""
    if command == "evaluate":
        return ["evaluate", "--train-fake", cli_files["fake"], "--train-valid",
                cli_files["valid"], "--test", cli_files["test"]]
    return ["cross-validate", "--input", cli_files["mixed"], "--folds", "2"]


@pytest.mark.parametrize("command", ["evaluate", "cross-validate"])
@pytest.mark.parametrize("spelling", ["", ","])
def test_empty_classes_is_input_error(capsys, cli_files, command, spelling):
    code, stdout, err = run(capsys, [*_classes_argv(cli_files, command), "--classes", spelling])
    assert code == 2
    assert stdout == ""
    assert "--classes names no model class" in err


@pytest.mark.parametrize("command", ["evaluate", "cross-validate"])
def test_unknown_classes_name_is_usage_error(cli_files, command):
    argv = [*_classes_argv(cli_files, command), "--classes", "RAW,foo"]
    proc = subprocess.run(
        [sys.executable, "-m", "fanlex", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown model class 'foo'" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def _evaluate_peak(tmp_path, scale):
    """evaluate's traced peak on 40 * scale training documents per split,
    drawn from one seeded 300-word vocabulary, and 10 test documents."""
    rng = random.Random(3)
    letters = "abcçdefgğhıijklmnoöprsştuüvyz"
    words = ["".join(rng.choices(letters, k=rng.randint(4, 9))) for _ in range(300)]
    paths = []
    for name, label, n in (("f", "FAKE", 40 * scale), ("v", "VALID", 40 * scale), ("t", "FAKE", 10)):
        path = tmp_path / f"{name}.jsonl"
        rows = ({"id": f"{name}{i}", "text": " ".join(rng.choices(words, k=80)) + ".",
                 "label": label} for i in range(n))
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        paths.append(path)
    argv = ["evaluate", "--train-fake", paths[0], "--train-valid", paths[1], "--test", paths[2],
            "--report", tmp_path / "report.txt"]
    tracemalloc.start()
    try:
        assert main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_does_not_grow_with_training_documents(capsys, tmp_path):
    """evaluate counts each training document as it reads it: on four times
    the documents over the same vocabulary its traced peak grows by 1.2-1.3x,
    where holding the corpora took 2.2x."""
    _evaluate_peak(tmp_path, 1)  # first-run allocations, such as compiled regexes
    once, four_times = _evaluate_peak(tmp_path, 1), _evaluate_peak(tmp_path, 4)
    capsys.readouterr()
    assert four_times <= 1.6 * once


def _open_files(paths):
    """Which of paths this process holds open, where /proc/self/fd tells."""
    if not os.path.isdir("/proc/self/fd"):
        return set()
    wanted = {os.path.realpath(p) for p in paths}
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            held.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the fd listing itself, closed by now
            pass
    return wanted & held


@pytest.mark.parametrize(
    "command, fault",
    [("evaluate", "late-label"), ("evaluate", "wrong-split"), ("evaluate", "analysis"),
     ("evaluate", "leakage"), ("verify-corpus", "late-label"), ("verify-corpus", "late-byte"),
     ("corpus-stats", "late-label"), ("cross-validate", "late-label"),
     ("cross-validate", "analysis")],
)
def test_streams_close_their_files_on_a_late_fault(
    capsys, cli_files, write_text, monkeypatch, command, fault
):
    """A run that fails part-way through a corpus leaves no corpus file open
    once main returns, and no ResourceWarning once garbage is collected."""
    lines = cli_files["test"].read_text(encoding="utf-8").splitlines()
    files = {"fake": cli_files["fake"], "valid": cli_files["valid"], "test": cli_files["test"]}
    if fault == "late-label":  # a label that is neither FAKE nor VALID, on the last line
        files["test"] = write_text("late.jsonl", "\n".join(lines[:-1] + [
            json.dumps({**json.loads(lines[-1]), "label": "MAYBE"})]) + "\n")
    elif fault == "wrong-split":  # a VALID document late in the fake training split
        fake_lines = cli_files["fake"].read_text(encoding="utf-8").splitlines()
        valid_doc = json.dumps({**json.loads(lines[-1]), "label": "VALID"})
        files["fake"] = write_text("wrong.jsonl", "\n".join(fake_lines + [valid_doc]) + "\n")
    elif fault == "analysis":  # the analyzer fails on the plain text of the last test document
        last = {k: v for k, v in json.loads(lines[-1]).items() if k != "analyses"}
        files["test"] = write_text(
            "odd.jsonl", "\n".join(lines[:-1] + [json.dumps({**last, "text": "bozuk"})]) + "\n"
        )
        real = fanlex.morph.analyze_token

        def failing(token, *args):
            if token == "bozuk":
                raise AnalysisError(f"token {token!r} rejected")
            return real(token, *args)

        monkeypatch.setattr(fanlex.morph, "analyze_token", failing)
    elif fault == "leakage":
        files["test"] = cli_files["mixed"]
    elif fault == "late-byte":  # an undecodable byte in --dictionary, after its first block
        files["dictionary"] = write_text("dict.txt", "bu\n" * fanlex.corpus._BLOCK)
        with open(files["dictionary"], "ab") as fh:
            fh.write(b"\xff\n")
    argv = {
        "evaluate": ["evaluate", "--train-fake", files["fake"], "--train-valid", files["valid"],
                     "--test", files["test"]],
        "verify-corpus": ["verify-corpus", "--input", files["test"],
                          "--slang", write_text("slang.txt", "lan\n"),
                          "--dictionary", files.get("dictionary") or write_text("dict.txt", "bu\n")],
        "corpus-stats": ["corpus-stats", "--input", files["test"]],
        "cross-validate": ["cross-validate", "--input", files["test"], "--folds", "2"],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
        still_open = _open_files(files.values())
        gc.collect()
    assert (code, out) == ({"leakage": 3}.get(fault, 2), "")
    if fault == "late-byte":
        assert err.startswith(f"error: {files['dictionary']}: not valid UTF-8 text")
    assert still_open == set()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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


_EV = {"raw": "ev", "root": "ev", "pos": "Noun"}
_EVDE = {"raw": "evde", "root": "ev", "pos": "Noun", "suffixes": ["Loc"]}
_YOL = {"raw": "yol", "root": "yol", "pos": "Noun"}
_GELDI = {"raw": "geldi", "root": "gel", "pos": "Verb", "suffixes": ["Past"]}


def _analyzed_corpus(write_jsonl, name, rows):
    """A corpus of (label, analyses) rows."""
    return write_jsonl(
        name,
        [
            {"id": f"{name}{n}", "text": "x", "label": label, "analyses": analyses}
            for n, (label, analyses) in enumerate(rows)
        ],
    )


@pytest.fixture
def shared_analyses(write_jsonl, monkeypatch):
    """Three corpora that repeat analyses across files, and the list of
    items that corpus loading validates. The files hold 4 distinct
    analyses, 9 per file."""
    fake = _analyzed_corpus(write_jsonl, "f", [("FAKE", [_EV, _EVDE]), ("FAKE", [_EVDE, _EV])])
    valid = _analyzed_corpus(write_jsonl, "v", [("VALID", [_EV, _YOL]), ("VALID", [_GELDI])])
    test = _analyzed_corpus(
        write_jsonl,
        "t",
        [("FAKE", [_EVDE, {**_YOL, "suffixes": []}]), ("VALID", [_GELDI, _EV])],
    )
    validated = []
    real = fanlex.corpus.analysis_from_json

    def counting(item, *args):
        validated.append(item)
        return real(item, *args)

    monkeypatch.setattr(fanlex.corpus, "analysis_from_json", counting)
    return {"fake": fake, "valid": valid, "test": test, "validated": validated}


def test_evaluate_validates_each_distinct_analysis_once(capsys, shared_analyses):
    """evaluate's three loads share one intern table."""
    files = shared_analyses
    code, _, _ = run(
        capsys,
        ["evaluate", "--train-fake", files["fake"], "--train-valid", files["valid"],
         "--test", files["test"]],
    )
    assert code == 0
    assert len(files["validated"]) == 4


def test_build_lexicon_validates_each_distinct_analysis_once(
    capsys, shared_analyses, tmp_path
):
    files = shared_analyses
    code, _, _ = run(
        capsys,
        ["build-lexicon", "--fake", files["fake"], "--valid", files["valid"],
         "--class", "SUFFIX", "--out", tmp_path / "x.lex"],
    )
    assert code == 0
    assert len(files["validated"]) == 4


def _analyses_alive_before_and_at_scoring(capsys, monkeypatch, argv):
    """How many MorphAnalysis objects are alive before a successful run of
    argv, and at each _score_fold call, each counted after a collection."""
    alive = []
    real = fanlex.evaluation._score_fold

    def analyses_alive():
        gc.collect()
        return sum(isinstance(obj, MorphAnalysis) for obj in gc.get_objects())

    def checking(*args):
        alive.append(analyses_alive())
        return real(*args)

    monkeypatch.setattr(fanlex.evaluation, "_score_fold", checking)
    before = analyses_alive()
    assert run(capsys, argv)[0] == 0
    return before, alive


def test_evaluate_drops_the_intern_table_before_scoring(capsys, shared_analyses, monkeypatch):
    """Once the corpora are read, no MorphAnalysis of theirs is alive: the
    documents are gone, and so is the intern table their readers shared."""
    files = shared_analyses
    argv = ["evaluate", "--train-fake", files["fake"], "--train-valid", files["valid"],
            "--test", files["test"]]
    before, alive = _analyses_alive_before_and_at_scoring(capsys, monkeypatch, argv)
    assert alive == [before]


def test_evaluate_drops_the_analysis_memo_before_scoring(capsys, write_jsonl, monkeypatch):
    """On plain text, the pipeline's token -> analysis memo is gone before
    scoring: no MorphAnalysis made while the corpora were read is alive."""
    texts = {"f": ("FAKE", "Evlerde kitaplar var."), "v": ("VALID", "Yollar geldi."),
             "t": ("FAKE", "Kitaplar evde.")}
    files = {name: write_jsonl(f"{name}.jsonl", [{"id": name, "text": text, "label": label}])
             for name, (label, text) in texts.items()}
    argv = ["evaluate", "--train-fake", files["f"], "--train-valid", files["v"],
            "--test", files["t"], "--classes", "ROOT"]
    before, alive = _analyses_alive_before_and_at_scoring(capsys, monkeypatch, argv)
    assert alive == [before]


@pytest.mark.parametrize("flag", ["--fake", "--rule-table"])
def test_line_of_non_json_whitespace_is_invalid_json(capsys, tmp_path, write_text, flag):
    """Only JSON whitespace makes a blank line: a line holding U+00A0
    alone is refused like the same character after an object, while a
    line of spaces and tabs is still skipped."""
    lines = {
        "--fake": '{"id":"f","text":"ev","label":"FAKE"}\n',
        "--valid": '{"id":"v","text":"ev","label":"VALID"}\n',
        "--rule-table": '{"surface":"ev","analyses":[{"root":"ev","pos":"Noun"}]}\n',
    }

    def build_with(blank):
        argv = ["build-lexicon", "--class", "RAW", "--out", tmp_path / "x.lex"]
        for f, line in lines.items():
            argv += [f, write_text(f[2:], line + (f" \t\n{blank}\n" if f == flag else ""))]
        return run(capsys, argv)

    bad = tmp_path / flag[2:]
    assert build_with("\u00a0") == (2, "", f"error: {bad}:3: invalid JSON (Expecting value)\n")
    assert build_with("\t ")[0] == 0


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


def test_cross_validate_reports_an_analysis_fault_before_the_fold_count(
    capsys, cli_files, write_text, monkeypatch
):
    """cross-validate reads and analyzes its whole corpus before it deals the
    folds, so an analyzer failure on the last document exits 2 before a
    --folds larger than either label's share exits 3."""
    lines = cli_files["mixed"].read_text(encoding="utf-8").splitlines()
    last = {k: v for k, v in json.loads(lines[-1]).items() if k != "analyses"}
    odd = write_text(
        "odd.jsonl", "\n".join(lines[:-1] + [json.dumps({**last, "text": "bozuk"})]) + "\n"
    )
    real = fanlex.morph.analyze_token

    def failing(token, *args):
        if token == "bozuk":
            raise AnalysisError(f"token {token!r} rejected")
        return real(token, *args)

    monkeypatch.setattr(fanlex.morph, "analyze_token", failing)
    folds = ["--folds", str(len(lines))]
    code, out, err = run(capsys, ["cross-validate", "--input", cli_files["mixed"], *folds])
    assert (code, out) == (3, "")
    assert "fewer than k=" in err
    assert run(capsys, ["cross-validate", "--input", odd, *folds]) == (
        2, "", "error: token 0: token 'bozuk' rejected\n"
    )


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


def test_verify_corpus_normalizes_each_word_list_word_once(capsys, write_text, monkeypatch):
    corpus = write_text(
        "v.jsonl", '{"id":"a","text":"Bu çok fena lan. Σ İyi.","label":"FAKE"}\n'
    )
    slang = write_text("slang.txt", "\ufeff# argo\nlan\nÇOK  fena\n!!!\nlan\n")
    words = write_text("dict.txt", "bu\nçok\n\nfena\nİyi\n")
    calls: Counter = Counter()
    real = fanlex.corpus.normalize_token

    def counting(token, *args, **kwargs):
        calls[token] += 1
        return real(token, *args, **kwargs)

    lowered = []
    real_lower = fanlex.corpus._lower

    def lowering(text, *args):
        lowered.append(text)
        return real_lower(text, *args)

    monkeypatch.setattr(fanlex.corpus, "normalize_token", counting)
    monkeypatch.setattr(fanlex.corpus, "_lower", lowering)
    code, _, _ = run(
        capsys,
        ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", words],
    )
    assert code == 0
    # Slang entry by entry; the dictionary's alphanumeric words in one block.
    assert calls == Counter(["lan", "ÇOK", "fena", "!!!", "lan"])
    assert [w for block in lowered for w in block.split()] == ["bu", "çok", "fena", "İyi"]


def _verify_with(capsys, write_text, flag, content):
    """verify-corpus on a one-document corpus, the file of `flag` holding `content`."""
    files = {
        "--input": write_text("v.jsonl", '{"id":"a","text":"Bu lan.","label":"FAKE"}\n'),
        "--slang": write_text("slang.txt", "lan\n"),
        "--dictionary": write_text("dict.txt", "bu\n"),
    }
    Path(files[flag]).write_bytes(content)
    return files[flag], run(capsys, ["verify-corpus", *(x for f in files.items() for x in f)])


@pytest.mark.parametrize("flag", ["--slang", "--dictionary"])
def test_verify_corpus_undecodable_word_list_is_input_error(capsys, write_text, flag):
    path, (code, stdout, err) = _verify_with(capsys, write_text, flag, b"lan\n\xff\n")
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {path}: not valid UTF-8 text")


@pytest.mark.parametrize(
    "flag, message", [("--slang", "slang list is empty"), ("--dictionary", "dictionary is empty")]
)
def test_verify_corpus_word_list_of_no_word_is_domain_error(capsys, write_text, flag, message):
    content = "# yalnız noktalama\n!!!\n\n  !!!  ...\n".encode()
    _, result = _verify_with(capsys, write_text, flag, content)
    assert result == (3, "", f"error: {message}\n")


def _entries_per_line(path):
    """A word list's entries read line by line: stripped lines, without
    blank lines and lines starting with #, one leading BOM ignored."""
    with open(path, encoding="utf-8-sig") as fh:
        return [body for body in map(str.strip, fh) if body and not body.startswith("#")]


# Dictionary lines around a block boundary: comment and blank lines, and
# a # inside lines that are not comments, one after a next-line character
# (U+0085), which splits words but not lines. The corpus holds each word.
_BOUNDARY_LINES = {
    "crlf": "bu\nkelime\n# yorum\norta\n",
    "boundary": "bu\n\n  # yorum\n\n#gizli\n   \nkelime\n\t# orta\n",
    "bom": "bu\n# gizli\nkelime\n",
    "inner-hash": "bu\norta#gizli\nkelime #yorum\na # b\nc\x85# ek\n",
}


def _dictionary_text(case, cut):
    """A dictionary whose first block (_BLOCK characters, then the rest of
    the line) ends `cut` characters into the case's lines."""
    head = "# yorum\n" if case == "bom" else "ilk\n"
    head += "d" * (fanlex.corpus._BLOCK - len(head) - cut - 1) + "\n"
    text = head + _BOUNDARY_LINES[case] + "son\n"
    if case == "bom":
        text = "\ufeff" + text
    return text.replace("\n", "\r\n") if case == "crlf" else text


@pytest.mark.parametrize("case", list(_BOUNDARY_LINES))
def test_verify_corpus_dictionary_blocks_equal_per_line_reading(
    capsys, write_text, monkeypatch, case
):
    """verify-corpus bytes from the dictionary's blocks equal those from its
    entries read line by line, each normalized by _entry_words, wherever
    the first block ends."""
    corpus = write_text(
        "v.jsonl",
        '{"id":"a","text":"Bu kelime yorum gizli. Orta son ilk b lan.","label":"FAKE"}\n'
        '{"id":"b","text":"Orta#gizli a yorum ek.","label":"VALID","source":"s"}\n',
    )
    words = write_text("dict.txt", "")
    argv = ["verify-corpus", "--input", corpus, "--slang", write_text("s.txt", "lan\n"),
            "--dictionary", words]
    for cut in range(len(_BOUNDARY_LINES[case]) + 1):
        Path(words).write_bytes(_dictionary_text(case, cut).encode())
        for extra in ([], ["--locale", "GENERIC", "--no-title"]):
            blocks = run(capsys, argv + extra)
            with monkeypatch.context() as m:
                m.setattr(fanlex.cli, "_word_list_blocks", _entries_per_line)
                m.setattr(fanlex.corpus, "_dictionary_words", lambda entries, turkish: {
                    w for e in entries for w in fanlex.corpus._entry_words(e, turkish)})
                assert blocks == run(capsys, argv + extra)
            assert blocks[0] == 0


def test_verify_corpus_reads_both_word_lists_before_the_slang_check(capsys, write_text, tmp_path):
    """A slang list of punctuation alone is reported only once the dictionary
    is read, so a missing or undecodable dictionary is the first fault."""
    slang = write_text("slang.txt", "!!!\n")
    corpus = write_text("v.jsonl", '{"id":"a","text":"Bu lan.","label":"FAKE"}\n')
    missing = tmp_path / "missing.txt"
    code, out, err = run(
        capsys, ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", missing]
    )
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"bu\n" * fanlex.corpus._BLOCK + b"\xff\n")
    code, out, err = run(
        capsys, ["verify-corpus", "--input", corpus, "--slang", slang, "--dictionary", bad]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not valid UTF-8 text")


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
    assert [row[0] for row in SETTINGS] == list(RunConfig.__match_args__)


def _wrap_configs(monkeypatch, wrap):
    """Hand each handler wrap(config) for the config main resolves."""
    resolve = fanlex.cli._resolve_config
    monkeypatch.setattr(fanlex.cli, "_resolve_config", lambda args: wrap(resolve(args)))


@pytest.mark.parametrize("name,value,text,flags", SETTINGS, ids=[r[0] for r in SETTINGS])
def test_setting_round_trips(
    capsys, every_command, write_text, monkeypatch, name, value, text, flags
):
    expected = RunConfig(**{name: value}).to_dict()
    conf = write_text("one.conf", f"{name} = {text}\n")
    resolved = []
    _wrap_configs(monkeypatch, lambda cfg: resolved.append(cfg) or cfg)
    # The flag goes to a command that reads the setting; evaluate reads
    # neither seed nor display_scale, and no command that echoes its
    # config reads display_scale.
    flag_command = {"seed": "cross-validate", "display_scale": "inspect-term"}.get(name, "evaluate")
    for argv in ([*every_command[flag_command], *flags],
                 [*every_command["evaluate"], "--config", conf]):
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        assert resolved.pop().to_dict() == expected
        if argv[0] != "inspect-term":
            assert json.loads(stdout)["config"] == expected
    # The reported key and value, read back as a config line.
    again = write_text("again.conf", f"{name} = {expected[name]}\n")
    assert load_config_file(again) == {name: value}


class _ReadRecorder:
    """Stands in for a RunConfig and records which settings are read;
    to_dict, the config echo, reads nothing through it."""

    def __init__(self, config, reads):
        self._config = config
        self._reads = reads

    def __getattr__(self, name):
        if name in FIELD_TYPES:
            self._reads.add(name)
        return getattr(self._config, name)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_commands_take_flags_for_the_settings_they_read(
    capsys, cli_files, every_command, monkeypatch, command
):
    reads = set()
    _wrap_configs(monkeypatch, lambda cfg: _ReadRecorder(cfg, reads))
    argv = every_command[command]
    if command == "build-lexicon":
        argv = [*argv, "--out", cli_files["dir"] / "guard.lex"]
    elif command == "inspect-term":
        # A lookup that misses reads locale for its normalized fallback.
        argv = [*argv, "--term", "Bulunmayan"]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    assert reads == set(COMMANDS[command][2])
    # Each command's flags are its settings', in RunConfig field order.
    assert list(COMMANDS[command][2]) == [f for f in FIELD_TYPES if f in reads]


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--smoothing", "0.5"],
        ["score", "--count-mode", "DOC_PRESENCE"],
        ["build-lexicon", "--seed", "1"],
        ["corpus-stats", "--locale", "GENERIC"],
        ["inspect-term", "--term-set-mode", "MULTISET"],
        ["evaluate", "--display-scale", "2"],
    ],
    ids=" ".join,
)
def test_flag_for_an_unread_setting_is_usage_error(capsys, cli_files, every_command, argv):
    command, *flags = argv
    outs = ["--out", str(cli_files["dir"] / "out.txt")] if command in OUT_COMMANDS else []
    before = sorted(cli_files["dir"].iterdir())
    code, stdout, err = _exit_output(capsys, main, [*every_command[command], *outs, *flags])
    assert code == 2
    assert stdout == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert sorted(cli_files["dir"].iterdir()) == before


def test_config_file_sets_every_key_for_every_command(
    capsys, cli_files, every_command, write_text
):
    # A key a command does not read is ignored, where its flag is refused.
    conf = write_text("all.conf", "".join(f"{name} = {text}\n" for name, _, text, _ in SETTINGS))
    expected = RunConfig(**{name: value for name, value, _, _ in SETTINGS}).to_dict()
    for command, argv in every_command.items():
        outs = ["--out", cli_files["dir"] / f"{command}.out"] if command in OUT_COMMANDS else []
        code, stdout, err = run(capsys, [*argv, *outs, "--config", conf])
        assert code == 0, (command, err)
        if command in ("evaluate", "cross-validate"):
            assert json.loads(stdout)["config"] == expected


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


def test_analyzer_without_a_rule_table_is_a_table_of_the_suffix_rules(write_text):
    """With no analyzer file the analyzer equals the default table; with
    --suffix-rules alone it is a table of those rules and no entries."""
    args = build_parser().parse_args(["score", *REQUIRED["score"]])
    assert _resolve_analyzer(args, RunConfig()) == fanlex.morph.DEFAULT_RULE_TABLE
    rules = write_text("s.tsv", "ler\tPLU\n")
    args = build_parser().parse_args(["score", *REQUIRED["score"], "--suffix-rules", rules])
    assert _resolve_analyzer(args, RunConfig()) == AnalyzerRuleTable(suffix_rules=(("ler", "PLU"),))


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
        main(["cross-validate", *REQUIRED["cross-validate"], *flags])
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


@pytest.mark.parametrize("side", ["fake", "valid"])
@pytest.mark.parametrize("command", ["score", "inspect-term"])
def test_entry_sum_too_long_to_print_is_format_error(capsys, cli_files, command, side):
    # Two 4,300-digit counts add up to 4,301 digits, past the default
    # limit of int -> str, under a valid checksum and header totals of 1.
    big = int("9" * 4300)
    other = "valid" if side == "fake" else "fake"
    entries = [{"t": t, f"{side[0]}c": big, f"{other[0]}c": 1} for t in ("a", "b")]
    lines = [json.dumps(e, separators=(",", ":")) for e in entries]
    checksum = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    header = {"format": "fanlex-lexicon", "version": 1, "class": "RAW",
              "count_mode": "TOKEN_FREQ", f"{side}_total": 1, f"{other}_total": 2,
              "checksum": checksum}
    lex = cli_files["dir"] / "long.lex"
    lex.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")
    if command == "score":
        argv = ["score", "--lexicon", lex, "--input", cli_files["test"]]
    else:
        argv = ["inspect-term", "--term", "a", "--lexicon", lex]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"error: {lex}: {side}_total 1 does not match entry sum\n"


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


def test_output_does_not_depend_on_the_hash_seed(cli_files, write_text):
    """Every command's stdout, stderr and written files are the same bytes
    under two string hash seeds, so no set or dict order leaks into output."""
    out = cli_files["dir"] / "out"
    fake, valid, test, mixed = (cli_files[k] for k in ("fake", "valid", "test", "mixed"))
    slang = write_text("slang.txt", "fraudcore\nverity1\n")
    words = write_text("dict.txt", "veritycore\nfraud2\n")
    commands = [
        ["build-lexicon", "--fake", fake, "--valid", valid, "--class", "RAW_POS",
         "--out", out / "raw_pos.lex", "--report", out / "build.txt"],
        ["build-lexicon", "--fake", fake, "--valid", valid, "--class", "SUFFIX",
         "--out", out / "suffix.lex"],
        ["score", "--lexicon", out / "raw_pos.lex", "--lexicon", out / "suffix.lex",
         "--input", test, "--explain", "3", "--report", out / "score.txt"],
        ["evaluate", "--train-fake", fake, "--train-valid", valid, "--test", test,
         "--report", out / "evaluate.txt"],
        ["cross-validate", "--input", mixed, "--folds", "2", "--report", out / "cv.txt"],
        ["verify-corpus", "--input", mixed, "--slang", slang, "--dictionary", words,
         "--report", out / "verify.txt"],
        ["corpus-stats", "--input", mixed],
    ]

    def outputs(seed):
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed}
        streams = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "fanlex", *map(str, argv)],
                                  capture_output=True, env=env)
            assert proc.returncode == 0 and proc.stdout
            streams.append((proc.stdout, proc.stderr))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for p in out.iterdir():
            p.unlink()
        out.rmdir()
        return streams, files

    first = outputs("0")
    assert len(first[1]) == 7
    assert outputs("1") == first


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


# dataclasses imports inspect, and inspect ast, dis and tokenize: together
# the largest share of fanlex's import. No command needs them.
_START_UP_PROBE = """
import sys
names = ("dataclasses", "inspect")
before = [name for name in names if name in sys.modules]
import fanlex.cli
for argv in {runs!r}:
    assert fanlex.cli.main(argv) == 0, argv
try:
    fanlex.cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print([name for name in names if name in sys.modules and name not in before])
"""


def test_no_command_loads_dataclasses(every_command, cli_files):
    out = ["--out", str(cli_files["dir"] / "probe.lex")]
    runs = [[*argv, *out] if name == "build-lexicon" else argv
            for name, argv in every_command.items()]
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE.format(runs=runs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_module_runs_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "fanlex.cli", "--version"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, f"fanlex {fanlex.__version__}\n")
    proc = subprocess.run([sys.executable, "-m", "fanlex.cli", "bogus"], capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == b""


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
    "verify-corpus-generic": ["verify-corpus", "--input", "@all", "--slang", "@slang-mixed",
                              "--dictionary", "@dict-mixed", "--locale", "GENERIC"],
    "verify-corpus-turkish": ["verify-corpus", "--input", "@all", "--slang", "@slang-mixed",
                              "--dictionary", "@dict-mixed", "--locale", "TURKISH"],
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
    "verify-corpus-generic": (
        '{"overall":{"slang_per_sentence":0.38461538461538464,'
        '"misspelling_per_sentence":1.4615384615384615},'
        '"groups":[{"source":"(none)","label":"FAKE","slang_per_sentence":1.0,'
        '"misspelling_per_sentence":1.0},{"source":"(none)","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":1.0},'
        '{"source":"a","label":"FAKE","slang_per_sentence":0.75,'
        '"misspelling_per_sentence":0.75},{"source":"a","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":2.0},'
        '{"source":"b","label":"FAKE","slang_per_sentence":0.5,'
        '"misspelling_per_sentence":1.5},{"source":"b","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":2.25}]}\n'
    ),
    "verify-corpus-turkish": (
        '{"overall":{"slang_per_sentence":0.38461538461538464,'
        '"misspelling_per_sentence":1.1538461538461537},'
        '"groups":[{"source":"(none)","label":"FAKE","slang_per_sentence":1.0,'
        '"misspelling_per_sentence":1.0},{"source":"(none)","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":0.0},'
        '{"source":"a","label":"FAKE","slang_per_sentence":0.75,'
        '"misspelling_per_sentence":0.75},{"source":"a","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":1.0},'
        '{"source":"b","label":"FAKE","slang_per_sentence":0.5,'
        '"misspelling_per_sentence":1.5},{"source":"b","label":"VALID",'
        '"slang_per_sentence":0.0,"misspelling_per_sentence":1.75}]}\n'
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
        # Casing, edge punctuation and spacing that normalization undoes.
        "slang-mixed": write_text(
            "slang-mixed.txt",
            "\ufeff# argo\nŞOK\n  şok  iddia \n«İnanılmaz»\nΣΟΣ\n!!!\nşok\n",
        ),
        "dict-mixed": write_text(
            "dict-mixed.txt",
            "# sözlük\nVERGİ\n\"yok,\"\nHERKES\nIşık\nBAKANLIK\nMECLİS\n\n"
            "oranını  onayladı\n—\n",
        ),
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

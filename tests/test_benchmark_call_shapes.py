"""The public calls of fanbench/replay.py, in the shapes it makes them.

replay.py drives the traced benchmark run (fanbench/run.py --trace 1)
through the public API, not through the CLI, so a changed signature or
result field breaks that run and no CLI test. Each call below is written
as replay.py writes it, on a small corpus with a plain-text and a
pre-analyzed half, read from files as the benchmark reads its inputs.
"""

import json
import random
from collections import Counter

import pytest

import fanlex
from fanlex import Dataset, Label, ModelClass, RunConfig
from fanlex import _kernels
from synth import analyzed_corpus

CFG = RunConfig()
CLASSES = list(ModelClass)
WORDS = ["Vergi", "yok", "insanlara", "gidecek", "evlerden", "kitaplar", "47", "ışık"]


def _opts(analyzer=None) -> dict:
    return {"analyzer": analyzer, "locale": CFG.locale, "include_title": CFG.include_title}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Corpus, split and word-list files in the working directory."""
    rng = random.Random(5)
    docs = list(analyzed_corpus(rng, 4, 4, prefix="a", max_suffixes=4).documents)
    for i in range(8):
        label = Label.FAKE if i % 2 else Label.VALID
        text = " ".join(rng.choices(WORDS, k=12)) + "."
        docs.append(fanlex.Document(id=f"t{i}", title="Başlık", text=text, label=label))
    ds = Dataset(tuple(docs))
    monkeypatch.chdir(tmp_path)
    fanlex.save_corpus(ds, "corpus.jsonl")
    fanlex.save_corpus(Dataset(docs[:3] + docs[9:12:2]), "train_fake.jsonl")
    fanlex.save_corpus(Dataset(docs[4:7] + docs[8:11:2]), "train_valid.jsonl")
    fanlex.save_corpus(Dataset((docs[3], docs[7], *docs[12:])), "test.jsonl")
    (tmp_path / "slang.txt").write_text("yok\nvergi yok\n", encoding="utf-8")
    (tmp_path / "dict.txt").write_text("vergi\ninsanlara\n", encoding="utf-8")
    surfaces = {"yok": ("yok", "Adj", []), "evlerden": ("ev", "Noun", ["A3pl", "Abl"])}
    with open("table.jsonl", "w", encoding="utf-8") as fh:
        for surface, (root, pos, tags) in surfaces.items():
            analysis = {"root": root, "pos": pos, "suffixes": tags}
            fh.write(json.dumps({"surface": surface, "analyses": [analysis]}) + "\n")
    return tmp_path


def test_raw_wide_calls(inputs):
    assert fanlex.kernel_backend() in ("pure", "compiled")
    fake = fanlex.load_corpus("train_fake.jsonl")
    valid = fanlex.load_corpus("train_valid.jsonl")
    assert fake.filter(Label.FAKE) == fake and valid.filter(Label.VALID) == valid
    lex = fanlex.build_lexicon(
        fake, valid, ModelClass.RAW, CFG.count_mode, smoothing=CFG.smoothing, **_opts()
    )
    fanlex.save_lexicon(lex, "replay_raw.lex")
    stats = fanlex.lexicon_stats(lex)
    assert stats.unique_terms == len(lex.entries) > 0
    assert lex.fake_total > 0 and lex.valid_total > 0
    lexicons = [fanlex.load_lexicon("replay_raw.lex")]
    assert fanlex.merge_lexicons(lex, lex).fake_total == 2 * lex.fake_total
    test = fanlex.load_corpus("test.jsonl")
    table = fanlex.score_batch(test, lexicons, CFG.term_set_mode, **_opts())
    labels = [table[d.id][ModelClass.RAW].label.value for d in test.documents]
    assert set(labels) <= {"FAKE", "VALID"} and len(labels) == len(test)
    for doc in test.documents:
        for lx in lexicons:
            top = fanlex.explain(doc, lx, 3, **_opts())
            assert len(top) <= 3
            score = table[doc.id][lx.model_class]
            assert isinstance(score.fake_score, float)
            assert isinstance(score.valid_score, float)


def test_kernel_probe_calls(inputs):
    # replay.py composes title and body itself and calls the kernels directly.
    docs = fanlex.load_corpus("corpus.jsonl").documents
    texts = [f"{d.title}. {d.text}" if d.title else d.text for d in docs]
    turkish = CFG.locale is fanlex.Locale.TURKISH
    tokens = [_kernels.tokenize(t) for t in texts]
    assert all(isinstance(tok, str) and tok for toks in tokens for tok in toks)
    for t, toks in zip(texts, tokens):
        words = _kernels.normalized_tokens(t, turkish, letters_only=True)
        assert isinstance(words, list)
        assert words == [
            _kernels.normalize_token(tok, turkish) for tok in toks if _kernels.has_letter(tok)
        ]


def test_verify_calls(inputs):
    ds = fanlex.load_corpus("corpus.jsonl")
    slang = fanlex.load_word_list("slang.txt", CFG.locale)
    words = fanlex.load_word_list("dict.txt", CFG.locale)
    kw = {"locale": CFG.locale, "include_title": CFG.include_title}
    overall = fanlex.verify_stats(ds, slang, words, **kw)
    assert overall.slang_per_sentence > 0
    assert overall.misspelling_per_sentence > 0
    groups: dict = {}
    for doc in ds.documents:
        groups.setdefault((doc.source or "(none)", doc.label.value), []).append(doc)
    for key in sorted(groups):
        fanlex.verify_stats(Dataset(tuple(groups[key]), ds.split), slang, words, **kw)


def test_cross_validate_and_evaluate_calls(inputs):
    table = fanlex.load_rule_table("table.jsonl", CFG.locale)
    assert "yok" in table.entries
    ds = fanlex.load_corpus("corpus.jsonl")
    report = fanlex.cross_validate(ds, 2, CLASSES, CFG.seed, CFG, table)
    assert [(fm.fold, fm.model_class) for fm in report.per_fold] == [
        (fold, c) for fold in range(2) for c in CLASSES
    ]
    for fm in report.per_fold:
        m = fm.metrics
        assert all(0 <= v <= 1 for v in (m.precision, m.recall, m.accuracy, m.f1))
    train, test = fanlex.stratified_folds(ds, 2, CFG.seed)[0]
    fake, valid = train.filter(Label.FAKE), train.filter(Label.VALID)
    results = fanlex.evaluate_models(fake, valid, test, CLASSES, CFG, None)
    for c, r in results.items():
        cm = r.confusion
        assert cm.tp + cm.fn + cm.fp + cm.tn == len(test)


def test_analysis_and_term_calls(inputs):
    table = fanlex.load_rule_table("table.jsonl", CFG.locale)
    docs = fanlex.load_corpus("corpus.jsonl").documents
    analyses = [
        fanlex.analyze_document(
            d, table, locale=CFG.locale, include_title=CFG.include_title)
        for d in docs
    ]
    suffixed = [a.suffixes for doc_an in analyses for a in doc_an if a.suffixes]
    assert suffixed
    for tags in suffixed:
        runs = _kernels.suffix_runs(tags)
        assert len(runs) == len(tags) * (len(tags) + 1) // 2
    for c in CLASSES:
        for doc_an in analyses:
            terms = fanlex.extract_terms(doc_an, c, CFG.locale)
            assert isinstance(terms, Counter)
            assert all(isinstance(t, str) and n > 0 for t, n in terms.items())
    assert any(a.raw in table.entries for doc_an in analyses for a in doc_an)

import functools
import gc
import math
import operator
import random
import re
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanlex.evaluation
from fanlex.config import RunConfig
from fanlex.corpus import Dataset, Document, Label, stratified_folds
from fanlex.errors import DomainError, LeakageError
from fanlex.evaluation import (
    ConfusionMatrix,
    CvReport,
    EvalResult,
    FoldMetrics,
    Metrics,
    confusion,
    cross_validate,
    evaluate_models,
    metrics,
)
from fanlex.lexicon import CountMode, ModelClass, TermPipeline, build_lexicon
from fanlex.morph import AnalyzerRuleTable, Locale, MorphAnalysis
from fanlex.scorer import TermSetMode, score_document
from synth import analyzed_corpus, make_analysis, separable_corpus

ALL_CLASSES = list(ModelClass)
F, V = Label.FAKE, Label.VALID


def test_confusion_counts():
    cm = confusion([F, V, F, V], [F, F, V, V])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
    assert cm.total == 4
    cm = confusion([F, F, F], [F, F, F])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 0, 0, 0)


def test_confusion_rejects():
    with pytest.raises(ValueError):
        confusion([F], [F, V])
    with pytest.raises(ValueError):
        confusion([], [])


def test_metrics_reference_counts():
    # 140 documents, 70 per label; 65 true positives, 16 false alarms.
    m = metrics(ConfusionMatrix(tp=65, fn=5, fp=16, tn=54))
    assert m.precision == pytest.approx(65 / 81)
    assert m.recall == pytest.approx(65 / 70)
    assert m.accuracy == pytest.approx(119 / 140)
    assert m.f1 == pytest.approx(2 * (65 / 81) * (65 / 70) / (65 / 81 + 65 / 70))
    assert m.precision == pytest.approx(0.802469, abs=5e-7)
    assert m.recall == pytest.approx(0.928571, abs=5e-7)
    assert m.accuracy == pytest.approx(0.85)
    assert m.f1 == pytest.approx(130 / 151, abs=5e-7)
    assert m.f1 == pytest.approx(0.860927, abs=5e-7)


def test_metrics_zero_denominators():
    nothing_flagged = metrics(ConfusionMatrix(tp=0, fn=5, fp=0, tn=5))
    assert nothing_flagged.precision == 0.0
    assert nothing_flagged.recall == 0.0
    assert nothing_flagged.f1 == 0.0
    assert nothing_flagged.accuracy == 0.5
    no_positives = metrics(ConfusionMatrix(tp=0, fn=0, fp=3, tn=7))
    assert no_positives.recall == 0.0
    assert no_positives.precision == 0.0
    with pytest.raises(ValueError):
        metrics(ConfusionMatrix(tp=0, fn=0, fp=0, tn=0))


def test_evaluate_models_separable():
    rng = random.Random(4)
    train = separable_corpus(rng, 12, 12, prefix="tr")
    test = separable_corpus(rng, 6, 6, prefix="te")
    results = evaluate_models(
        train.filter(F), train.filter(V), test, ALL_CLASSES
    )
    assert set(results) == set(ALL_CLASSES)
    for model_class, result in results.items():
        assert result.metrics.accuracy == 1.0, model_class
        assert result.confusion.tp == 6
        assert result.confusion.tn == 6
        assert result.confusion.fp == result.confusion.fn == 0


def test_evaluate_models_respects_config():
    rng = random.Random(8)
    train = separable_corpus(rng, 8, 8, prefix="tr")
    test = separable_corpus(rng, 4, 4, prefix="te")
    config = RunConfig(count_mode=CountMode.DOC_PRESENCE, smoothing=0.5)
    results = evaluate_models(
        train.filter(F), train.filter(V), test, [ModelClass.ROOT], config
    )
    # Smoothing leaks a little mass to the other side but cannot flip
    # a fully separable corpus.
    assert results[ModelClass.ROOT].metrics.accuracy == 1.0


def test_evaluate_models_rejects_leakage():
    rng = random.Random(4)
    train = separable_corpus(rng, 5, 5, prefix="x")
    test = Dataset(train.documents[:3])
    with pytest.raises(LeakageError) as err:
        evaluate_models(train.filter(F), train.filter(V), test, [ModelClass.RAW])
    assert "xf0" in str(err.value)


def test_evaluate_models_rejects_duplicate_classes():
    rng = random.Random(4)
    train = separable_corpus(rng, 4, 4, prefix="tr")
    test = separable_corpus(rng, 2, 2, prefix="te")
    with pytest.raises(ValueError):
        evaluate_models(
            train.filter(F), train.filter(V), test, [ModelClass.RAW, ModelClass.RAW]
        )


def test_evaluate_models_order_independent():
    rng = random.Random(14)
    train = analyzed_corpus(rng, 10, 10, vocab=6, prefix="tr")
    test = analyzed_corpus(rng, 8, 8, vocab=6, prefix="te")
    shuffled = list(test.documents)
    random.Random(1).shuffle(shuffled)
    one = evaluate_models(train.filter(F), train.filter(V), test, ALL_CLASSES)
    two = evaluate_models(
        train.filter(F), train.filter(V), Dataset(tuple(shuffled)), ALL_CLASSES
    )
    for model_class in ALL_CLASSES:
        assert one[model_class].confusion == two[model_class].confusion


def test_cross_validate_separable():
    rng = random.Random(6)
    ds = separable_corpus(rng, 10, 10)
    report = cross_validate(ds, 5, ALL_CLASSES, seed=3)
    assert len(report.per_fold) == 5 * len(ALL_CLASSES)
    for fold in report.per_fold:
        assert fold.metrics.accuracy == 1.0
    for mean in report.means.values():
        assert mean.accuracy == 1.0
        assert mean.f1 == 1.0


def test_cross_validate_deterministic():
    rng = random.Random(19)
    ds = analyzed_corpus(rng, 15, 15, vocab=8)
    one = cross_validate(ds, 3, [ModelClass.RAW, ModelClass.SUFFIX], seed=7)
    two = cross_validate(ds, 3, [ModelClass.RAW, ModelClass.SUFFIX], seed=7)
    assert one == two


def test_cross_validate_means_are_fold_averages():
    rng = random.Random(23)
    ds = analyzed_corpus(rng, 12, 12, vocab=6)
    k = 4
    report = cross_validate(ds, k, ALL_CLASSES, seed=2)
    for model_class in ALL_CLASSES:
        rows = [f.metrics for f in report.per_fold if f.model_class is model_class]
        assert len(rows) == k
        mean = report.means[model_class]
        assert mean.precision == pytest.approx(sum(r.precision for r in rows) / k)
        assert mean.recall == pytest.approx(sum(r.recall for r in rows) / k)
        assert mean.accuracy == pytest.approx(sum(r.accuracy for r in rows) / k)
        assert mean.f1 == pytest.approx(sum(r.f1 for r in rows) / k)


def test_cross_validate_means_sum_left_to_right():
    """Means add the folds in fold order, so every Python prints the same
    digits; built-in sum() compensates float rounding since 3.12."""
    rng = random.Random(23)
    ds = analyzed_corpus(rng, 12, 12, vocab=6)
    k = 4
    report = cross_validate(ds, k, ALL_CLASSES, seed=2)
    rounded = 0
    for model_class in ALL_CLASSES:
        rows = [f.metrics for f in report.per_fold if f.model_class is model_class]
        columns = list(zip(*rows))
        rounded += sum(math.fsum(c) != functools.reduce(operator.add, c) for c in columns)
        expected = Metrics(*(functools.reduce(operator.add, c) / k for c in columns))
        assert report.means[model_class] == expected
    # Some column sums differently when rounding is compensated.
    assert rounded


def test_cross_validate_fold_indices():
    rng = random.Random(29)
    ds = analyzed_corpus(rng, 8, 8, vocab=5)
    report = cross_validate(ds, 2, [ModelClass.RAW], seed=0)
    assert [f.fold for f in report.per_fold] == [0, 1]


def test_cross_validate_rejects_duplicate_classes():
    ds = separable_corpus(random.Random(4), 4, 4)
    with pytest.raises(ValueError, match="distinct"):
        cross_validate(ds, 2, [ModelClass.ROOT, ModelClass.RAW, ModelClass.ROOT], seed=0)


def test_empty_class_list_is_refused():
    rng = random.Random(4)
    train = separable_corpus(rng, 4, 4, prefix="tr")
    test = separable_corpus(rng, 2, 2, prefix="te")
    with pytest.raises(ValueError, match="no model class"):
        evaluate_models(train.filter(F), train.filter(V), test, [])
    with pytest.raises(ValueError, match="no model class"):
        cross_validate(train, 2, [], seed=0)


def reference_evaluate(train_fake, train_valid, test, classes, config, analyzer):
    """evaluate_models one class at a time: build_lexicon, then score_document."""
    opts = dict(
        analyzer=analyzer, locale=config.locale, include_title=config.include_title
    )
    actual = [doc.label for doc in test.documents]
    results = {}
    for c in classes:
        lex = build_lexicon(
            train_fake, train_valid, c, config.count_mode,
            smoothing=config.smoothing, **opts,
        )
        predicted = [
            score_document(doc, lex, config, analyzer).label
            for doc in test.documents
        ]
        cm = confusion(predicted, actual)
        results[c] = EvalResult(confusion=cm, metrics=metrics(cm))
    return results


def reference_cross_validate(ds, k, classes, seed, config, analyzer):
    """Cross-validation by a full per-fold, per-class rebuild."""
    per_fold = []
    for index, (train, test) in enumerate(stratified_folds(ds, k, seed)):
        results = reference_evaluate(
            train.filter(F), train.filter(V), test, classes, config, analyzer
        )
        per_fold.extend(FoldMetrics(index, c, results[c].metrics) for c in classes)
    means = {}
    for c in classes:
        rows = [f.metrics for f in per_fold if f.model_class is c]
        # Left to right, as every Python's sum() did before 3.12.
        add = functools.partial(functools.reduce, operator.add)
        means[c] = Metrics(
            precision=add(r.precision for r in rows) / k,
            recall=add(r.recall for r in rows) / k,
            accuracy=add(r.accuracy for r in rows) / k,
            f1=add(r.f1 for r in rows) / k,
        )
    return CvReport(per_fold=tuple(per_fold), means=means)


# Surfaces that hit the table, take the fallback suffix rules, or
# normalize differently under the two locales.
CV_WORDS = [
    "Vergi", "vergiler", "IŞIK", "ışıklar", "İstanbul'da", "kitaplardan",
    "evde", "yok", "Yok!", "gidecek", "okudu", "47", "kalem",
]
CV_TABLE = AnalyzerRuleTable(
    entries={
        "vergi": (MorphAnalysis(raw="vergi", root="vergi", pos="Noun"),),
        "yok": (
            MorphAnalysis(raw="yok", root="yok", pos="Adj"),
            MorphAnalysis(raw="yok", root="yoğ", pos="Verb", suffixes=("Neg",)),
        ),
        "ışıklar": (
            MorphAnalysis(raw="ışıklar", root="ışık", pos="Noun", suffixes=("A3pl",)),
        ),
    },
    suffix_rules=(
        ("ler", "A3pl"), ("lar", "A3pl"), ("dan", "Abl"), ("de", "Loc"), ("du", "Past"),
    ),
)


@st.composite
def cv_corpora(draw):
    k = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    docs = []
    for label in (F, V):
        for i in range(draw(st.integers(k, k + 4))):
            text = " ".join(rng.choices(CV_WORDS, k=rng.randint(0, 7)))
            title = rng.choice([None, "", rng.choice(CV_WORDS)])
            analyses = None
            if draw(st.booleans()):
                roots = ["k" + w.lower()[:2] for w in CV_WORDS[:5]]
                analyses = tuple(
                    make_analysis(rng, roots, max_suffixes=2)
                    for _ in range(rng.randint(1, 5))
                )
            docs.append(
                Document(
                    id=f"{label.value}{i}", text=text, label=label, title=title,
                    analyses=analyses,
                )
            )
    rng.shuffle(docs)
    return Dataset(tuple(docs)), k


@given(
    corpus=cv_corpora(),
    classes=st.permutations(list(ModelClass)).flatmap(
        lambda order: st.integers(1, 4).map(lambda n: order[:n])
    ),
    count_mode=st.sampled_from(list(CountMode)),
    term_set_mode=st.sampled_from(list(TermSetMode)),
    smoothing=st.sampled_from([0.0, 0.5, 1.0]),
    locale=st.sampled_from(list(Locale)),
    include_title=st.booleans(),
    analyzer=st.sampled_from([None, CV_TABLE]),
    seed=st.integers(0, 50),
)
@settings(max_examples=80, deadline=None)
def test_cross_validate_equals_per_fold_rebuild(
    corpus, classes, count_mode, term_set_mode, smoothing, locale, include_title,
    analyzer, seed,
):
    ds, k = corpus
    config = RunConfig(
        locale=locale,
        count_mode=count_mode,
        term_set_mode=term_set_mode,
        smoothing=smoothing,
        include_title=include_title,
    )
    try:
        expected = reference_cross_validate(ds, k, classes, seed, config, analyzer)
    except DomainError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cross_validate(ds, k, classes, seed, config, analyzer)
        return
    assert cross_validate(ds, k, classes, seed, config, analyzer) == expected


@st.composite
def eval_splits(draw):
    """Train and test sets split from one cv_corpora corpus.

    The training set may lack a label and the test set may be empty.
    """
    ds, _ = draw(cv_corpora())
    in_test = draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds)))
    train = Dataset(tuple(d for d, t in zip(ds.documents, in_test) if not t))
    test = Dataset(tuple(d for d, t in zip(ds.documents, in_test) if t))
    return train, test


@given(
    splits=eval_splits(),
    classes=st.permutations(list(ModelClass)).flatmap(
        lambda order: st.integers(1, 4).map(lambda n: order[:n])
    ),
    count_mode=st.sampled_from(list(CountMode)),
    term_set_mode=st.sampled_from(list(TermSetMode)),
    smoothing=st.sampled_from([0.0, 0.5, 1.0]),
    locale=st.sampled_from(list(Locale)),
    include_title=st.booleans(),
    analyzer=st.sampled_from([None, CV_TABLE]),
)
@settings(max_examples=80, deadline=None)
def test_evaluate_models_equals_per_class_rebuild(
    splits, classes, count_mode, term_set_mode, smoothing, locale, include_title,
    analyzer,
):
    train, test = splits
    config = RunConfig(
        locale=locale,
        count_mode=count_mode,
        term_set_mode=term_set_mode,
        smoothing=smoothing,
        include_title=include_title,
    )
    args = (train.filter(F), train.filter(V), test, classes, config, analyzer)
    try:
        expected = reference_evaluate(*args)
    except (DomainError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            evaluate_models(*args)
        return
    assert evaluate_models(*args) == expected


def test_evaluate_models_analyzes_each_document_once(monkeypatch, demo_table):
    texts = [
        "Vergi yok insanlara", "gidecek vergi 47", "yok yok demeyin",
        "insanlara gidecek", "vergi vergi", "",
    ]
    docs = [
        Document(id=f"d{i}", text=t, label=F if i % 2 else V)
        for i, t in enumerate(texts)
    ]
    train, test = Dataset(tuple(docs[:4])), Dataset(tuple(docs[4:]))
    args = (train.filter(F), train.filter(V), test, ALL_CLASSES, RunConfig(), demo_table)
    expected = reference_evaluate(*args)
    calls: Counter = Counter()
    real = TermPipeline.terms

    def counting(self, doc):
        calls[doc.id] += 1
        return real(self, doc)

    monkeypatch.setattr(TermPipeline, "terms", counting)
    assert evaluate_models(*args) == expected
    assert calls == Counter(doc.id for doc in docs)


def test_cross_validate_terms_each_document_once(monkeypatch, demo_table):
    texts = [
        "Vergi yok insanlara", "gidecek vergi 47", "yok yok demeyin",
        "insanlara gidecek", "vergi vergi", "", "demeyin 47",
    ]
    ds = Dataset(tuple(
        Document(id=f"d{i}", text=t, label=F if i % 2 else V)
        for i, t in enumerate(texts)
    ))
    args = (ds, 3, ALL_CLASSES, 5, RunConfig(), demo_table)
    expected = reference_cross_validate(*args)
    calls: Counter = Counter()
    real = TermPipeline.terms

    def counting(self, doc):
        calls[doc.id] += 1
        return real(self, doc)

    monkeypatch.setattr(TermPipeline, "terms", counting)
    assert cross_validate(*args) == expected
    assert calls == Counter(doc.id for doc in ds.documents)


def test_cross_validate_builds_no_dataset(monkeypatch):
    # Folds are read by position: no per-fold or per-label Dataset, each
    # of which would re-check every id.
    ds = separable_corpus(random.Random(3), 10, 10)
    built = []
    real = Dataset.__init__

    def counting(self, documents, *args, **kwargs):
        built.append(len(documents))
        real(self, documents, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", counting)
    cross_validate(ds, 5, ALL_CLASSES, seed=0)
    assert built == []


def test_cross_validate_reads_a_one_shot_stream(demo_table):
    # A generator can be read only once: a second pass, or a len(), would
    # change the report or raise.
    texts = ["Vergi yok insanlara", "gidecek vergi 47", "yok yok demeyin",
             "insanlara gidecek", "vergi vergi", "", "demeyin 47", "vergi 47"]
    ds = Dataset(tuple(
        Document(id=f"d{i}", text=t, label=F if i % 2 else V) for i, t in enumerate(texts)
    ))
    stream = (doc for doc in ds.documents)
    report = cross_validate(stream, 3, ALL_CLASSES, 5, RunConfig(), demo_table)
    assert report == cross_validate(ds, 3, ALL_CLASSES, 5, RunConfig(), demo_table)
    assert next(stream, None) is None


def test_cross_validate_drops_the_pipeline_before_the_folds(monkeypatch):
    """Once every document's terms are made, the TermPipeline and its memos
    are unreachable: no fold is scored while they are alive."""
    made = []

    class Recorded(TermPipeline):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    alive = []
    real = fanlex.evaluation._score_fold

    def checking(*args):
        gc.collect()
        alive.append([ref() is not None for ref in made])
        return real(*args)

    monkeypatch.setattr(fanlex.evaluation, "TermPipeline", Recorded)
    monkeypatch.setattr(fanlex.evaluation, "_score_fold", checking)
    cross_validate(separable_corpus(random.Random(3), 10, 10), 5, ALL_CLASSES, seed=0)
    assert alive == [[False]] * 5


@pytest.mark.parametrize("count_mode", list(CountMode))
@pytest.mark.parametrize("term_set_mode", list(TermSetMode))
def test_cross_validate_term_held_out_entirely(count_mode, term_set_mode):
    # "c", "d" and "e" each occur in one document only, so the fold that
    # holds that document out counts them 0 on both sides. Such a term is
    # not in the fold's vocabulary: kept as (0, 0), it would add to each
    # smoothed denominator and flip predictions in every mode here.
    texts = {"F0": "b d", "F1": "a a c e", "V0": "b", "V1": "b a a"}
    ds = Dataset(tuple(
        Document(id=i, text=t, label=F if i[0] == "F" else V)
        for i, t in texts.items()
    ))
    config = RunConfig(count_mode=count_mode, term_set_mode=term_set_mode, smoothing=1.0)
    args = (ds, 2, [ModelClass.RAW], 0, config, None)
    assert cross_validate(*args) == reference_cross_validate(*args)

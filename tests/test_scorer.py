import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fanlex.config import RunConfig
from fanlex.corpus import Dataset, Document, Label
from fanlex.errors import ModelMismatchError
from fanlex.lexicon import (
    CountMode,
    Lexicon,
    ModelClass,
    TermEntry,
    TermPipeline,
    build_lexicon,
)
from fanlex.morph import MorphAnalysis
from fanlex.scorer import (
    TermContribution,
    TermSetMode,
    _explain_terms,
    _score_terms,
    explain,
    score_batch,
    score_document,
)
from synth import analyzed_corpus

ALL_CLASSES = list(ModelClass)


def raw_doc(doc_id, label, terms):
    analyses = tuple(MorphAnalysis(raw=t, root=t, pos="X") for t in terms)
    return Document(id=doc_id, text=" ".join(terms), label=label, analyses=analyses)


@pytest.fixture
def mini_lexicon():
    fake = Dataset((raw_doc("f1", Label.FAKE, ["a", "c"]),))
    valid = Dataset(
        (
            raw_doc("v1", Label.VALID, ["a", "b"]),
            raw_doc("v2", Label.VALID, ["a"]),
        )
    )
    return build_lexicon(fake, valid, ModelClass.RAW)


def test_score_document_distinct(mini_lexicon):
    doc = raw_doc("q", Label.VALID, ["b", "a"])
    score = score_document(doc, mini_lexicon)
    assert score.fake_score == pytest.approx(0.5)
    assert score.valid_score == pytest.approx(1.0)
    assert score.label is Label.VALID
    assert score.unknown_terms == 0
    assert score.model_class is ModelClass.RAW


def test_score_document_repeats_and_unknowns(mini_lexicon):
    doc = raw_doc("q", Label.VALID, ["a", "a", "b", "z", "z"])
    distinct = score_document(doc, mini_lexicon, RunConfig(term_set_mode=TermSetMode.DISTINCT))
    assert distinct.fake_score == pytest.approx(0.5)
    assert distinct.valid_score == pytest.approx(1.0)
    assert distinct.unknown_terms == 1
    multiset = score_document(doc, mini_lexicon, RunConfig(term_set_mode=TermSetMode.MULTISET))
    assert multiset.fake_score == pytest.approx(1.0)
    assert multiset.valid_score == pytest.approx(2 * (2 / 3) + 1 / 3)
    assert multiset.unknown_terms == 2


def test_score_empty_document_is_fake(mini_lexicon):
    doc = Document(id="q", text="", label=Label.VALID, analyses=())
    score = score_document(doc, mini_lexicon)
    assert score.fake_score == 0.0
    assert score.valid_score == 0.0
    assert score.label is Label.FAKE
    assert score.unknown_terms == 0


def test_score_all_unknown_is_exactly_zero(mini_lexicon):
    doc = raw_doc("q", Label.VALID, ["x", "y", "z"])
    score = score_document(doc, mini_lexicon)
    assert score.fake_score == 0.0
    assert score.valid_score == 0.0
    assert score.label is Label.FAKE
    assert score.unknown_terms == 3


def test_tie_goes_to_fake():
    lex = build_lexicon(
        Dataset((raw_doc("f1", Label.FAKE, ["x"]),)),
        Dataset((raw_doc("v1", Label.VALID, ["x"]),)),
        ModelClass.RAW,
    )
    score = score_document(raw_doc("q", Label.VALID, ["x"]), lex)
    assert score.fake_score == score.valid_score == 1.0
    assert score.label is Label.FAKE


@pytest.mark.parametrize("model_class", ALL_CLASSES)
def test_scores_match_oracle(model_class):
    rng = random.Random(50 + ALL_CLASSES.index(model_class))
    train = analyzed_corpus(rng, 10, 10, vocab=7, prefix="tr")
    probe = analyzed_corpus(rng, 6, 6, vocab=7, prefix="pr")
    lex = build_lexicon(
        train.filter(Label.FAKE), train.filter(Label.VALID), model_class
    )
    _, _, _, _, fs, vs = oracle.build_scores(
        train.filter(Label.FAKE).documents,
        train.filter(Label.VALID).documents,
        model_class.value,
    )
    for doc in probe.documents:
        fake, valid, label = oracle.score_doc(doc, model_class.value, fs, vs)
        score = score_document(doc, lex)
        assert score.fake_score == pytest.approx(fake, abs=1e-12)
        assert score.valid_score == pytest.approx(valid, abs=1e-12)
        if abs(fake - valid) > 1e-9:
            assert score.label.value == label


def test_explain_ranking(mini_lexicon):
    doc = raw_doc("q", Label.VALID, ["a", "b", "c", "z"])
    top = explain(doc, mini_lexicon, 10)
    assert [c.term for c in top] == ["c", "b", "a"]
    assert top[0].delta == pytest.approx(0.5)
    assert top[1].delta == pytest.approx(-1 / 3)
    assert top[2].delta == pytest.approx(0.5 - 2 / 3)
    assert explain(doc, mini_lexicon, 2) == top[:2]
    assert explain(doc, mini_lexicon, 0) == []
    with pytest.raises(ValueError):
        explain(doc, mini_lexicon, -1)


def test_explain_breaks_ties_alphabetically():
    lex = build_lexicon(
        Dataset((raw_doc("f1", Label.FAKE, ["p", "q"]),)),
        Dataset((raw_doc("v1", Label.VALID, ["r", "r"]),)),
        ModelClass.RAW,
    )
    doc = raw_doc("x", Label.FAKE, ["q", "p", "r"])
    assert [c.term for c in explain(doc, lex, 3)] == ["r", "p", "q"]


def _reference_scores(lex):
    """term -> (fake, valid) scores from the lexicon's counts, as written:
    (count + smoothing) / (total + smoothing * vocabulary)."""
    s = lex.smoothing
    fake, valid = lex.fake_counts, lex.valid_counts
    terms = set(fake) | set(valid)
    fake_denom = lex.fake_total + s * len(terms)
    valid_denom = lex.valid_total + s * len(terms)
    return {
        t: ((fake.get(t, 0) + s) / fake_denom, (valid.get(t, 0) + s) / valid_denom)
        for t in terms
    }


def _explain_reference(terms, lex, top_n):
    """Every known term as a TermContribution, fully sorted, then cut."""
    scores = _reference_scores(lex)
    rows = [
        TermContribution(t, f, v, f - v)
        for t in terms
        if t in scores
        for f, v in [scores[t]]
    ]
    rows.sort(key=lambda c: (-abs(c.delta), c.term))
    return rows[:top_n]


# Few terms and small counts, so equal deltas (and equal |delta| of
# opposite sign) are common; the document may name unknown terms.
@given(
    counts=st.dictionaries(
        st.sampled_from("abcdefghij"),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        min_size=1,
    ),
    doc_terms=st.lists(st.sampled_from("abcdefghijxyz"), max_size=15),
    top_n=st.integers(0, 16),
    smoothing=st.sampled_from([0.0, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_explain_terms_matches_full_sort(counts, doc_terms, top_n, smoothing):
    lex = Lexicon(
        ModelClass.RAW,
        fake_counts={t: fc for t, (fc, _) in counts.items() if fc},
        valid_counts={t: vc for t, (_, vc) in counts.items() if vc},
        fake_total=sum(fc for fc, _ in counts.values()) or 1,
        valid_total=sum(vc for _, vc in counts.values()) or 1,
        count_mode=CountMode.TOKEN_FREQ,
        smoothing=smoothing,
    )
    terms = Counter(doc_terms)
    assert _explain_terms(terms, lex, top_n) == _explain_reference(terms, lex, top_n)


def _sum_reference(terms, scores, term_set_mode):
    """(fake, valid, unknown) summed over a term -> scores dict in Counter order."""
    fake = valid = 0.0
    unknown = 0
    for term, count in terms.items():
        weight = 1 if term_set_mode is TermSetMode.DISTINCT else count
        if term in scores:
            fake += weight * scores[term][0]
            valid += weight * scores[term][1]
        else:
            unknown += weight
    return fake, valid, unknown


@given(
    counts=st.dictionaries(
        st.sampled_from("abcdefghij"),
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(any),
        min_size=1,
    ),
    doc_terms=st.lists(st.sampled_from("abcdefghijxyz"), max_size=30),
    smoothing=st.sampled_from([0, 0.5, 1, 3]),
    term_set_mode=st.sampled_from(TermSetMode),
    factor=st.floats(1e-6, 1e6),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scores_at_lookup_equal_a_score_dict_bit_for_bit(
    counts, doc_terms, smoothing, term_set_mode, factor
):
    lex = Lexicon(
        ModelClass.RAW,
        fake_counts={t: fc for t, (fc, _) in counts.items() if fc},
        valid_counts={t: vc for t, (_, vc) in counts.items() if vc},
        fake_total=sum(fc for fc, _ in counts.values()) or 1,
        valid_total=sum(vc for _, vc in counts.values()) or 1,
        count_mode=CountMode.TOKEN_FREQ,
        smoothing=smoothing,
    )
    terms = Counter(doc_terms)
    score = _score_terms(terms, lex, term_set_mode)
    scores = _reference_scores(lex)
    expected = _sum_reference(terms, scores, term_set_mode)
    assert (score.fake_score, score.valid_score, score.unknown_terms) == expected
    # A lexicon given scaled scores, as C05 makes, sums them unchanged.
    scaled = {t: (f * factor, v * factor) for t, (f, v) in scores.items()}
    given_lex = Lexicon(
        ModelClass.RAW,
        entries={
            t: TermEntry(t, *counts[t], *pair) for t, pair in scaled.items()
        },
        fake_total=lex.fake_total,
        valid_total=lex.valid_total,
        count_mode=lex.count_mode,
        smoothing=smoothing,
    )
    score = _score_terms(terms, given_lex, term_set_mode)
    expected = _sum_reference(terms, scaled, term_set_mode)
    assert (score.fake_score, score.valid_score, score.unknown_terms) == expected


def test_score_batch_shape(mini_lexicon):
    other = build_lexicon(
        Dataset((raw_doc("f1", Label.FAKE, ["a", "c"]),)),
        Dataset((raw_doc("v1", Label.VALID, ["a", "b"]),)),
        ModelClass.ROOT,
    )
    docs = Dataset(
        (
            raw_doc("d2", Label.VALID, ["a"]),
            raw_doc("d1", Label.FAKE, ["c"]),
        )
    )
    table = score_batch(docs, [mini_lexicon, other])
    assert list(table) == ["d2", "d1"]
    assert list(table["d2"]) == [ModelClass.RAW, ModelClass.ROOT]
    lone = score_document(docs.documents[1], mini_lexicon)
    assert table["d1"][ModelClass.RAW] == lone


def test_score_batch_rejects_duplicate_classes(mini_lexicon):
    with pytest.raises(ModelMismatchError):
        score_batch(Dataset(()), [mini_lexicon, mini_lexicon])


def test_score_batch_analyzes_each_document_once(monkeypatch, demo_table):
    texts = ["Vergi yok insanlara", "gidecek vergi 47", "yok yok demeyin", ""]
    docs = Dataset(
        tuple(
            Document(id=f"d{i}", text=t, label=Label.FAKE if i % 2 else Label.VALID)
            for i, t in enumerate(texts)
        )
    )
    lexicons = [
        build_lexicon(docs.filter(Label.FAKE), docs.filter(Label.VALID), c, analyzer=demo_table)
        for c in (ModelClass.SUFFIX, ModelClass.RAW, ModelClass.ROOT, ModelClass.RAW_POS)
    ]
    expected = {
        doc.id: {
            lex.model_class: score_document(doc, lex, analyzer=demo_table)
            for lex in lexicons
        }
        for doc in docs.documents
    }
    calls: Counter = Counter()
    real = TermPipeline.terms

    def counting(self, doc):
        calls[doc.id] += 1
        return real(self, doc)

    monkeypatch.setattr(TermPipeline, "terms", counting)
    table = score_batch(docs, lexicons, analyzer=demo_table)
    assert table == expected
    assert [list(row) for row in table.values()] == [
        [lex.model_class for lex in lexicons]
    ] * len(texts)
    assert calls == Counter(doc.id for doc in docs.documents)


def test_score_batch_without_lexicons():
    docs = Dataset((raw_doc("d1", Label.FAKE, ["a"]), raw_doc("d2", Label.VALID, [])))
    assert score_batch(docs, []) == {"d1": {}, "d2": {}}


def test_score_uses_mini_example_values(mini_lexicon):
    # The two training splits themselves score as expected.
    fake_doc = raw_doc("f", Label.FAKE, ["a", "c"])
    score = score_document(fake_doc, mini_lexicon)
    assert score.fake_score == pytest.approx(1.0)
    assert score.valid_score == pytest.approx(2 / 3)
    assert score.label is Label.FAKE

import hashlib
import json
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from fanlex.config import RunConfig
from fanlex.corpus import Dataset, Document, Label
from fanlex.errors import (
    EmptyTrainingSplitError,
    FanlexError,
    LexiconChecksumError,
    LexiconConsistencyError,
    LexiconParseError,
    LexiconVersionError,
    ModelMismatchError,
)
from fanlex.lexicon import (
    RAW_POS_SEPARATOR,
    CountMode,
    Lexicon,
    ModelClass,
    TermEntry,
    TermPipeline,
    _entry_blocks,
    build_lexicon,
    count_splits,
    count_terms,
    expand_suffix_subsequences,
    extract_terms,
    lexicon_from_counts,
    lexicon_stats,
    load_lexicon,
    merge_lexicons,
    save_lexicon,
)
from fanlex.morph import AnalyzerRuleTable, Locale, MorphAnalysis, analyze_document
from synth import analyzed_corpus, make_analysis, text_corpus

ALL_CLASSES = list(ModelClass)


def raw_doc(doc_id, label, terms):
    """A pre-analyzed document whose RAW terms are exactly `terms`."""
    analyses = tuple(
        MorphAnalysis(raw=t, root=t, pos="X") for t in terms
    )
    return Document(id=doc_id, text=" ".join(terms), label=label, analyses=analyses)


@pytest.fixture
def mini_lexicon():
    """Tiny worked example: fake terms [a, c]; valid [a, b] and [a]."""
    fake = Dataset((raw_doc("f1", Label.FAKE, ["a", "c"]),))
    valid = Dataset(
        (
            raw_doc("v1", Label.VALID, ["a", "b"]),
            raw_doc("v2", Label.VALID, ["a"]),
        )
    )
    return build_lexicon(fake, valid, ModelClass.RAW)


def test_expand_suffix_subsequences():
    assert expand_suffix_subsequences([]) == []
    assert expand_suffix_subsequences(["S1"]) == [["S1"]]
    assert expand_suffix_subsequences(["S1", "S2", "S3"]) == [
        ["S1"],
        ["S2"],
        ["S3"],
        ["S1", "S2"],
        ["S2", "S3"],
        ["S1", "S2", "S3"],
    ]
    for k in range(7):
        tags = [f"T{i}" for i in range(k)]
        assert len(expand_suffix_subsequences(tags)) == k * (k + 1) // 2


def test_extract_terms_raw_normalizes():
    analyses = [
        MorphAnalysis(raw="Küba'da", root="küba", pos="Noun", suffixes=("Loc",)),
        MorphAnalysis(raw="KÜBA", root="küba", pos="Noun"),
        MorphAnalysis(raw="--", root="x", pos="Punc"),
    ]
    assert extract_terms(analyses, ModelClass.RAW) == Counter(
        {"küba'da": 1, "küba": 1}
    )


def test_extract_terms_root_verbatim():
    analyses = [
        MorphAnalysis(raw="gitti", root="Git", pos="Verb", suffixes=("Past",)),
        MorphAnalysis(raw="gidecek", root="Git", pos="Verb", suffixes=("Fut",)),
    ]
    assert extract_terms(analyses, ModelClass.ROOT) == Counter({"Git": 2})


def test_extract_terms_raw_pos():
    analyses = [
        MorphAnalysis(raw="Yüz", root="yüz", pos="Num"),
        MorphAnalysis(raw="yüz", root="yüz", pos="Verb"),
    ]
    sep = RAW_POS_SEPARATOR
    assert extract_terms(analyses, ModelClass.RAW_POS) == Counter(
        {f"yüz{sep}Num": 1, f"yüz{sep}Verb": 1}
    )


def test_extract_terms_suffix_runs():
    analyses = [
        MorphAnalysis(raw="evlerde", root="ev", pos="Noun", suffixes=("A3pl", "Loc")),
        MorphAnalysis(raw="ev", root="ev", pos="Noun"),
    ]
    assert extract_terms(analyses, ModelClass.SUFFIX) == Counter(
        {"A3pl": 1, "Loc": 1, "A3pl-Loc": 1}
    )


@pytest.mark.parametrize("seed", range(4))
def test_extract_terms_is_one_column_of_the_pipeline(seed):
    # Up to five tags drawn from three: tag tuples repeat within and
    # across documents, and tags repeat within a tuple.
    rng = random.Random(seed)
    ds = analyzed_corpus(rng, 6, 6, tags=["A3pl", "Abl", "Loc"], max_suffixes=5)
    pipeline = TermPipeline(ALL_CLASSES)
    for doc in ds.documents:
        columns = pipeline.terms(doc)
        for c, column in zip(ALL_CLASSES, columns):
            assert list(extract_terms(doc.analyses, c).items()) == list(Counter(column).items())
        oracle_runs = Counter(
            "-".join(run)
            for a in doc.analyses
            for run in expand_suffix_subsequences(list(a.suffixes))
        )
        assert extract_terms(doc.analyses, ModelClass.SUFFIX) == oracle_runs


def test_mini_example_counts_and_scores(mini_lexicon):
    lex = mini_lexicon
    assert lex.fake_total == 2
    assert lex.valid_total == 3
    a, b, c = lex.entries["a"], lex.entries["b"], lex.entries["c"]
    assert (a.fake_count, a.valid_count) == (1, 2)
    assert (b.fake_count, b.valid_count) == (0, 1)
    assert (c.fake_count, c.valid_count) == (1, 0)
    assert a.fake_score == 0.5
    assert a.valid_score == pytest.approx(2 / 3)
    assert b.fake_score == 0.0
    assert b.valid_score == pytest.approx(1 / 3)
    assert c.fake_score == 0.5
    assert c.valid_score == 0.0
    # Scores on each side sum to one.
    assert sum(e.fake_score for e in lex.entries.values()) == pytest.approx(1.0)
    assert sum(e.valid_score for e in lex.entries.values()) == pytest.approx(1.0)


def test_doc_presence_counts_once_per_document():
    fake = Dataset((raw_doc("f1", Label.FAKE, ["a", "a", "c"]),))
    valid = Dataset((raw_doc("v1", Label.VALID, ["a", "b"]),))
    freq = build_lexicon(fake, valid, ModelClass.RAW, CountMode.TOKEN_FREQ)
    presence = build_lexicon(fake, valid, ModelClass.RAW, CountMode.DOC_PRESENCE)
    assert freq.entries["a"].fake_count == 2
    assert freq.fake_total == 3
    assert presence.entries["a"].fake_count == 1
    assert presence.fake_total == 2
    assert presence.entries["a"].fake_score == 0.5


@given(
    width=st.integers(1, 3),
    rows=st.lists(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6), max_size=3),
        max_size=5,
    ),
    count_mode=st.sampled_from(list(CountMode)),
)
def test_count_terms_on_term_lists_equals_per_document_counters(width, rows, count_mode):
    # The reference is one Counter per document and class, added with
    # update; under DOC_PRESENCE only its keys, in first-occurrence order.
    rows = [(row + [[]] * width)[:width] for row in rows]
    expected = [Counter() for _ in range(width)]
    for row in rows:
        for total, terms in zip(expected, row):
            counts = Counter(terms)
            total.update(counts.keys() if count_mode is CountMode.DOC_PRESENCE else counts)
    totals = count_terms(rows, width, count_mode)
    assert [list(t.items()) for t in totals] == [list(t.items()) for t in expected]


@pytest.mark.parametrize("model_class", ALL_CLASSES)
@pytest.mark.parametrize("presence", [False, True])
def test_counts_and_scores_match_oracle(model_class, presence):
    rng = random.Random(ALL_CLASSES.index(model_class) * 2 + int(presence))
    ds = analyzed_corpus(rng, 12, 10, vocab=8, tokens=(2, 9))
    fake = ds.filter(Label.FAKE)
    valid = ds.filter(Label.VALID)
    mode = CountMode.DOC_PRESENCE if presence else CountMode.TOKEN_FREQ
    lex = build_lexicon(fake, valid, model_class, mode)
    fc, vc, ft, vt, fs, vs = oracle.build_scores(
        fake.documents, valid.documents, model_class.value, presence=presence
    )
    assert set(lex.entries) == set(fc)
    assert lex.fake_total == ft
    assert lex.valid_total == vt
    for term, entry in lex.entries.items():
        assert entry.fake_count == fc[term]
        assert entry.valid_count == vc[term]
        assert entry.fake_score == pytest.approx(fs[term], abs=1e-12)
        assert entry.valid_score == pytest.approx(vs[term], abs=1e-12)


def test_raw_fast_path_equals_full_pipeline():
    rng = random.Random(21)
    for doc in text_corpus(rng, 8, Label.FAKE, "t", n_tokens=40, vocab_size=30).documents:
        titled = Document(
            id=doc.id, title="Kısa Başlık", text=doc.text, label=doc.label
        )
        fast = TermPipeline((ModelClass.RAW,)).terms(titled)[0]
        slow = extract_terms(analyze_document(titled), ModelClass.RAW)
        assert list(Counter(fast).items()) == list(slow.items())


PIPELINE_WORDS = [
    "Vergi", "yok", "YOK!", "İnsanlara", "IŞIKLAR", "ışıklar", "kitaplar",
    "evlerden", "evde", "47", "3b", "x-y", "Küba'da", "gidecek", ".", ",",
]
PIPELINE_TABLE = AnalyzerRuleTable(
    entries={
        "yok": (
            MorphAnalysis(raw="yok", root="yok", pos="Adj"),
            MorphAnalysis(raw="yok", root="yoğ", pos="Verb", suffixes=("Neg",)),
        ),
        "ışıklar": (
            MorphAnalysis(raw="ışıklar", root="ışık", pos="Noun", suffixes=("A3pl",)),
        ),
        "gidecek": (
            MorphAnalysis(raw="gidecek", root="git", pos="Verb", suffixes=("Fut",)),
        ),
    },
    suffix_rules=(("lar", "A3pl"), ("ler", "A3pl"), ("den", "Abl"), ("de", "Loc")),
)
pipeline_analyses = st.builds(
    MorphAnalysis,
    raw=st.sampled_from(["Kitap", "ev", "IŞIK", "--", "yok"]),
    root=st.sampled_from(["kitap", "ev", "ışık"]),
    pos=st.sampled_from(["Noun", "Verb"]),
    # Repeated tags give repeated suffix runs within one token.
    suffixes=st.lists(st.sampled_from(["A3pl", "Abl", "Loc"]), max_size=4).map(tuple),
)
# Pre-analyzed documents that repeat suffix tag tuples, empty ones too,
# within a document and across documents of one pipeline.
SHARED_SUFFIX_DOCUMENTS = [
    Document(
        id=doc_id,
        text="",
        label=Label.FAKE,
        analyses=tuple(
            MorphAnalysis(raw=raw, root="ev", pos="Noun", suffixes=tags)
            for raw, tags in analyses
        ),
    )
    for doc_id, analyses in (
        ("a", [("Evlerden", ("A3pl", "Abl")), ("ev", ()), ("evlerden", ("A3pl", "Abl"))]),
        ("b", [("evler", ("A3pl",)), ("evlerden", ("A3pl", "Abl")), ("ev", ())]),
        ("c", [("ev", ()), ("ev", ())]),
        ("d", [("larlar", ("A3pl", "A3pl")), ("larlar", ("A3pl", "A3pl"))]),
    )
]
pipeline_documents = st.lists(
    st.builds(
        Document,
        id=st.just("d"),
        text=st.lists(st.sampled_from(PIPELINE_WORDS), max_size=10).map(" ".join),
        label=st.just(Label.FAKE),
        title=st.sampled_from([None, "", "Vergi yok", "IŞIK!"]),
        analyses=st.none() | st.lists(pipeline_analyses, max_size=6).map(tuple),
    ),
    min_size=1,
    max_size=6,
)


@given(
    docs=pipeline_documents,
    classes=st.permutations(list(ModelClass)).flatmap(
        lambda order: st.integers(1, 4).map(lambda n: order[:n])
    ),
    locale=st.sampled_from(list(Locale)),
    include_title=st.booleans(),
    analyzer=st.sampled_from([None, PIPELINE_TABLE]),
)
@example(
    docs=SHARED_SUFFIX_DOCUMENTS,
    classes=list(ModelClass),
    locale=Locale.TURKISH,
    include_title=True,
    analyzer=None,
)
@example(
    docs=SHARED_SUFFIX_DOCUMENTS[::-1],
    classes=[ModelClass.SUFFIX],
    locale=Locale.GENERIC,
    include_title=False,
    analyzer=PIPELINE_TABLE,
)
@settings(max_examples=150, deadline=None)
def test_term_pipeline_equals_per_document_analysis(
    docs, classes, locale, include_title, analyzer
):
    pipeline = TermPipeline(
        classes, analyzer, RunConfig(locale=locale, include_title=include_title)
    )
    for doc in docs:
        analyses = analyze_document(
            doc, analyzer, locale=locale, include_title=include_title
        )
        expected = [list(extract_terms(analyses, c, locale).items()) for c in classes]
        # Cold, then warm: the second call is served from the token memo.
        for _ in range(2):
            assert [list(Counter(t).items()) for t in pipeline.terms(doc)] == expected


def test_documents_sharing_suffix_tags_get_independent_counters():
    # a and b share the tag tuple (A3pl, Abl), whose runs are memoized.
    a, b = SHARED_SUFFIX_DOCUMENTS[:2]
    pipeline = TermPipeline([ModelClass.SUFFIX, ModelClass.ROOT])
    first, _ = pipeline.terms(a)
    first += ["A3pl"] * 10
    first[2] = "Loc"
    del first[1]
    second, _ = pipeline.terms(b)
    assert second == ["A3pl", "A3pl", "Abl", "A3pl-Abl"]
    again, _ = pipeline.terms(a)
    assert again == ["A3pl", "Abl", "A3pl-Abl"] * 2


def test_term_pipeline_raw_terms_do_not_depend_on_other_classes():
    # A hand-built entry whose raw form differs from its surface: RAW
    # stays the normalized token whichever classes ride along.
    table = AnalyzerRuleTable(
        entries={"kitaplar": (MorphAnalysis(raw="kitap", root="kitap", pos="Noun"),)}
    )
    doc = Document(id="a", text="Kitaplar 47 kitaplar", label=Label.FAKE)
    alone = TermPipeline([ModelClass.RAW], table).terms(doc)
    (_, with_root) = TermPipeline([ModelClass.ROOT, ModelClass.RAW], table).terms(doc)
    assert alone == [with_root] == [["kitaplar", "kitaplar"]]


def test_term_pipeline_raw_pos_uses_the_token_surface():
    # A table hit's raw form is the normalized token, so RAW_POS joins
    # the surface, not the entry's raw form, whichever classes ride along.
    table = AnalyzerRuleTable(
        entries={"kitaplar": (MorphAnalysis(raw="kitap", root="kitap", pos="Noun"),)}
    )
    doc = Document(id="a", text="Kitaplar kitaplar", label=Label.FAKE)
    assert [a.raw for a in analyze_document(doc, table)] == ["kitaplar", "kitaplar"]
    alone = TermPipeline([ModelClass.RAW_POS], table).terms(doc)
    (_, with_root) = TermPipeline([ModelClass.ROOT, ModelClass.RAW_POS], table).terms(doc)
    assert alone == [with_root] == [[f"kitaplar{RAW_POS_SEPARATOR}Noun"] * 2]


@pytest.mark.parametrize("locale", [Locale.TURKISH, Locale.GENERIC])
@pytest.mark.parametrize(
    "text",
    [
        "ΑΣ.Β ΟΔΥΣΣΕΥΣ Σ.",
        "aİb İSTANBUL'DA 1947, 4İ İİ-İ",
        "ΚΑΛΟΣ İZMİR'E gitti; Isparta 47.",
    ],
)
def test_term_pipeline_raw_routes_agree_on_casing_exceptions(text, locale):
    # The RAW-only route normalizes whole texts, the analyzed route token
    # by token; sigma and generic dotted I take the per-token loop.
    doc = Document(id="a", title="BAŞLIK", text=text, label=Label.FAKE)
    config = RunConfig(locale=locale)
    (alone,) = TermPipeline([ModelClass.RAW], config=config).terms(doc)
    (_, with_root) = TermPipeline([ModelClass.ROOT, ModelClass.RAW], config=config).terms(doc)
    assert alone == with_root
    assert alone


def test_build_lexicon_sees_rule_table_edits():
    table = AnalyzerRuleTable(suffix_rules=(("lar", "A3pl"),))
    fake = Dataset((Document(id="f", text="kitaplar", label=Label.FAKE),))
    valid = Dataset((Document(id="v", text="evler", label=Label.VALID),))
    first = build_lexicon(fake, valid, ModelClass.ROOT, analyzer=table)
    assert set(first.entries) == {"kitap", "evler"}
    table.entries["kitaplar"] = (
        MorphAnalysis(raw="kitaplar", root="kitaplık", pos="Noun"),
    )
    second = build_lexicon(fake, valid, ModelClass.ROOT, analyzer=table)
    assert set(second.entries) == {"kitaplık", "evler"}


def test_document_terms_include_title():
    doc = Document(id="a", title="Tek", text="çift çift", label=Label.FAKE)
    raw = (ModelClass.RAW,)
    assert TermPipeline(raw).terms(doc)[0] == ["tek", "çift", "çift"]
    assert TermPipeline(raw, config=RunConfig(include_title=False)).terms(doc)[0] == ["çift", "çift"]


def test_build_rejects_empty_splits():
    docs = Dataset((raw_doc("f1", Label.FAKE, ["a"]),))
    with pytest.raises(EmptyTrainingSplitError):
        build_lexicon(Dataset(()), docs, ModelClass.RAW)
    with pytest.raises(EmptyTrainingSplitError):
        build_lexicon(docs, Dataset(()), ModelClass.RAW)


def test_build_rejects_termless_split():
    # Documents exist but none carries a suffix, so the SUFFIX side is empty.
    bare = Document(
        id="f1",
        text="ev",
        label=Label.FAKE,
        analyses=(MorphAnalysis(raw="ev", root="ev", pos="Noun"),),
    )
    suffixed = Document(
        id="v1",
        text="evler",
        label=Label.VALID,
        analyses=(MorphAnalysis(raw="evler", root="ev", pos="Noun", suffixes=("A3pl",)),),
    )
    with pytest.raises(EmptyTrainingSplitError) as err:
        build_lexicon(
            Dataset((bare,)), Dataset((suffixed,)), ModelClass.SUFFIX
        )
    assert "fake" in str(err.value)


def test_smoothing_scores():
    lex = lexicon_from_counts(
        ModelClass.RAW, {"a": 1, "c": 1}, {"a": 2, "b": 1}, smoothing=0.5
    )
    # Three terms, fake total 2: denominator 2 + 0.5 * 3 = 3.5.
    assert lex.entries["a"].fake_score == pytest.approx(1.5 / 3.5)
    assert lex.entries["b"].fake_score == pytest.approx(0.5 / 3.5)
    assert lex.entries["b"].fake_score > 0
    assert sum(e.fake_score for e in lex.entries.values()) == pytest.approx(1.0)
    assert sum(e.valid_score for e in lex.entries.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lexicon_from_counts(ModelClass.RAW, {"a": 1}, {"a": 1}, smoothing=-0.1)
    # 2 + 1e308 * 3 overflows to inf, which would score every term 0.0.
    with pytest.raises(ValueError, match="finite"):
        lexicon_from_counts(
            ModelClass.RAW, {"a": 1, "c": 1}, {"a": 2, "b": 1}, smoothing=1e308
        )


def test_terms_counted_zero_on_both_sides_are_dropped(tmp_path):
    # Zeros as fold counts made by subtraction leave them, on either side.
    fake = {"a": 1, "z": 0, "y": 0, "b": 0}
    valid = {"a": 1, "y": 0, "x": 0, "b": 2, "c": 1}
    lex = lexicon_from_counts(ModelClass.RAW, fake, valid)
    counts = [(t, e[1:3]) for t, e in lex.entries.items()]  # (fake_count, valid_count)
    assert counts == [("a", (1, 1)), ("b", (0, 2)), ("c", (0, 1))]
    lex = lexicon_from_counts(ModelClass.RAW, {"a": 1, "z": 0}, {"a": 1})
    assert "z" not in lex.entries
    assert lexicon_stats(lex).only_valid == 0
    path = tmp_path / "lex.jsonl"
    save_lexicon(lex, str(path))
    assert load_lexicon(str(path)) == lex


@pytest.mark.parametrize("bad", [-1, True, False, 1.0, "1", None])
@pytest.mark.parametrize("side", ["fake", "valid", "both"])
def test_lexicon_from_counts_rejects_bad_counts(side, bad):
    fake, valid = {"a": 1}, {"a": 1}
    if side != "valid":
        fake["b"] = bad
    if side != "fake":
        valid["b"] = bad
    # With both sides bad the fake side is named: it is checked first.
    named = "valid" if side == "valid" else "fake"
    with pytest.raises(ValueError, match=f"^{named} counts must be integers >= 0$"):
        lexicon_from_counts(ModelClass.RAW, fake, valid)


@pytest.mark.parametrize("given", [
    ("fake_counts", "valid_counts", "entries"), (), ("fake_counts",), ("valid_counts", "entries"),
], ids=["both", "neither", "one side", "one side and entries"])
def test_lexicon_needs_exactly_one_of_counts_and_entries(given):
    entry = TermEntry("b", 1, 1, 0.5, 0.5)
    sources = {"fake_counts": {"a": 1}, "valid_counts": {"a": 1}, "entries": {"b": entry}}
    with pytest.raises(TypeError, match="exactly one"):
        Lexicon(
            ModelClass.RAW,
            fake_total=2,
            valid_total=2,
            count_mode=CountMode.TOKEN_FREQ,
            **{name: sources[name] for name in given},
        )


def _reference_entries(fake_counts, valid_counts, smoothing):
    """TermEntry per term, scored term by term in sorted order."""
    terms = sorted(set(fake_counts) | set(valid_counts))
    fake_denom = sum(fake_counts.values()) + smoothing * len(terms)
    valid_denom = sum(valid_counts.values()) + smoothing * len(terms)
    entries = {}
    for term in terms:
        fc = fake_counts.get(term, 0)
        vc = valid_counts.get(term, 0)
        entries[term] = TermEntry(
            term, fc, vc, (fc + smoothing) / fake_denom, (vc + smoothing) / valid_denom
        )
    return entries


@pytest.mark.parametrize("smoothing", [True, False, "0.5", None])
def test_lexicon_refuses_smoothing_that_is_not_a_number(smoothing):
    """save_lexicon would write a bool smoothing that load_lexicon refuses."""
    with pytest.raises(ValueError, match="smoothing must be int or float"):
        Lexicon(ModelClass.RAW, fake_total=1, valid_total=1, count_mode=CountMode.TOKEN_FREQ,
                smoothing=smoothing, fake_counts={"a": 1}, valid_counts={"a": 1})
    fake = Dataset((raw_doc("f", Label.FAKE, ["a"]),))
    valid = Dataset((raw_doc("v", Label.VALID, ["a"]),))
    with pytest.raises(ValueError, match="smoothing must be int or float"):
        build_lexicon(fake, valid, ModelClass.RAW, smoothing=smoothing)


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
def test_entries_view_matches_reference(tmp_path, smoothing):
    ds = analyzed_corpus(random.Random(41), 10, 9, vocab=12)
    fake, valid = ds.filter(Label.FAKE), ds.filter(Label.VALID)
    built = build_lexicon(fake, valid, ModelClass.SUFFIX, smoothing=smoothing)
    path = tmp_path / "lex.jsonl"
    save_lexicon(built, str(path))
    loaded = load_lexicon(str(path))
    config = RunConfig(count_mode=CountMode.TOKEN_FREQ)
    (fake_counts,), (valid_counts,) = count_splits(
        fake, valid, TermPipeline((ModelClass.SUFFIX,), config=config)
    )
    expected = _reference_entries(fake_counts, valid_counts, smoothing)
    for lex in (built, loaded):
        view = lex.entries
        assert len(view) == len(expected)
        assert dict(view.items()) == expected
        assert sorted(view.values(), key=lambda e: e.term) == list(expected.values())
        assert view == expected
        for term, entry in expected.items():
            assert term in view
            assert view.get(term) == entry
        assert "no such term" not in view
        assert view.get("no such term") is None
    assert built == loaded


def _dumps(obj):
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# Quotes, backslashes, control characters, characters json.dumps leaves
# unescaped that other tools read as line breaks, and non-BMP characters.
awkward_terms = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\x85", "\u2028",
         "\u2029", "\ud7ff", "\ue000", "\U0001F600", "\U0010FFFF", "a", "ş", "İ"]
    )
    | st.characters(),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        awkward_terms,
        st.tuples(st.integers(0, 10**30), st.integers(0, 10**30)),
        max_size=12,
    )
)
def test_entry_lines_equal_json_dumps(pairs):
    fake = {"ok": 1, **{t: fc for t, (fc, _) in pairs.items()}}
    valid = {"ok": 1, **{t: vc for t, (_, vc) in pairs.items()}}
    lex = lexicon_from_counts(ModelClass.RAW, fake, valid)
    assert "".join(_entry_blocks(lex)).split("\n")[:-1] == [
        _dumps({"t": t, "fc": fake[t], "vc": valid[t]})
        for t in sorted(lex.entries)
    ]


def _per_line_counts(path, lines):
    """Entry lines parsed one json.loads at a time, with load_lexicon's checks;
    blank lines are skipped and errors name the file line."""
    counts = {}
    for offset, line in enumerate(lines, 2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LexiconParseError(f"{path}:{offset}: invalid JSON ({exc.msg})")
        except (ValueError, RecursionError) as exc:
            raise LexiconParseError(f"{path}:{offset}: invalid JSON ({exc})")
        try:
            term, fc, vc = obj["t"], obj["fc"], obj["vc"]
        except (KeyError, TypeError):
            raise LexiconParseError(f"{path}:{offset}: bad entry line")
        if (
            not isinstance(term, str)
            or not term
            or type(fc) is not int
            or type(vc) is not int
            or fc < 0
            or vc < 0
        ):
            raise LexiconParseError(f"{path}:{offset}: bad entry values")
        if fc + vc < 1:
            raise LexiconConsistencyError(
                f"{path}:{offset}: entry {term!r} has no evidence"
            )
        if term in counts:
            raise LexiconParseError(f"{path}:{offset}: duplicate term {term!r}")
        counts[term] = (fc, vc)
    return counts


entry_objects = st.fixed_dictionaries(
    {
        "t": st.text(min_size=1, max_size=3),
        "fc": st.integers(0, 9),
        "vc": st.integers(0, 9),
    }
)
odd_values = st.sampled_from([True, False, 1.0, 2.5, 1e2, -1, None, "", "1", [1]])
# Entry lines that save_lexicon would not write, in groups of consecutive lines.
odd_lines = st.one_of(
    st.tuples(
        entry_objects,
        st.sampled_from([" ", "  ", "\t", "\x0c", "\x85", "\xa0"]),
        st.booleans(),
    ).map(lambda x: [x[1] + _dumps(x[0])] if x[2] else [_dumps(x[0]) + x[1]]),
    entry_objects.map(lambda o: [_dumps(dict(reversed(o.items())))]),
    entry_objects.map(lambda o: [_dumps({**o, "x": [1, {"y": None}]})]),
    st.tuples(entry_objects, entry_objects, st.sampled_from(["", " ", ","])).map(
        lambda x: [_dumps(x[0]) + x[2] + _dumps(x[1])]
    ),
    st.tuples(entry_objects, st.sampled_from(["t", "fc", "vc"]), odd_values).map(
        lambda x: [_dumps({**x[0], x[1]: x[2]})]
    ),
    # An object split over three lines: joined with commas, they parse.
    st.just(
        [
            '{"t":"a","fc":1,"vc":0},{"t":"b","fc":0,"vc":1}',
            '{"t":"c","fc":1',
            '"vc":1}',
        ]
    ),
    st.just(['{"t":"d","fc":[[1,', "2]],", '"vc":1}']),
    st.just(["[[", "]]"]),
    st.just(["", " \t"]),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plain=st.lists(entry_objects, max_size=6, unique_by=lambda o: o["t"]),
    odd=st.lists(st.tuples(odd_lines, st.integers(0, 7)), max_size=2),
)
def test_load_agrees_with_per_line_parse(tmp_path, plain, odd):
    lines = ['{"t":"ok","fc":1,"vc":1}', *map(_dumps, plain)]
    for group, at in odd:
        lines[at:at] = group
    entry_lines = [line for line in lines if line.strip()]
    path = str(tmp_path / "lex.jsonl")
    try:
        expected = _per_line_counts(path, lines)
    except FanlexError as exc:
        expected = (type(exc), str(exc))
        fake_total = valid_total = 1
    else:
        fake_total = sum(fc for fc, _ in expected.values())
        valid_total = sum(vc for _, vc in expected.values())
    digest = hashlib.sha256()
    for line in entry_lines:
        digest.update(line.encode("utf-8") + b"\n")
    header = {
        "format": "fanlex-lexicon",
        "version": 1,
        "class": "RAW",
        "count_mode": "TOKEN_FREQ",
        "fake_total": fake_total,
        "valid_total": valid_total,
        "smoothing": 0.0,
        "checksum": digest.hexdigest(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([_dumps(header), *lines]) + "\n")
    try:
        got = {t: e[1:3] for t, e in load_lexicon(path).entries.items()}
    except FanlexError as exc:
        got = (type(exc), str(exc))
    assert got == expected


def test_lexicon_stats_partition(mini_lexicon):
    stats = lexicon_stats(mini_lexicon)
    assert stats.unique_terms == 3
    assert stats.common_terms == 1
    assert stats.only_fake == 1
    assert stats.only_valid == 1
    assert stats.common_terms + stats.only_fake + stats.only_valid == stats.unique_terms


def test_merge_equals_build_on_union():
    rng = random.Random(9)
    part_a = analyzed_corpus(rng, 4, 4, vocab=10, prefix="a")
    part_b = analyzed_corpus(rng, 5, 3, vocab=10, prefix="b")
    union = Dataset(part_a.documents + part_b.documents)
    for model_class in ALL_CLASSES:
        merged = merge_lexicons(
            build_lexicon(
                part_a.filter(Label.FAKE), part_a.filter(Label.VALID), model_class
            ),
            build_lexicon(
                part_b.filter(Label.FAKE), part_b.filter(Label.VALID), model_class
            ),
        )
        whole = build_lexicon(
            union.filter(Label.FAKE), union.filter(Label.VALID), model_class
        )
        assert merged.entries == whole.entries
        assert merged.fake_total == whole.fake_total
        assert merged.valid_total == whole.valid_total


def test_merge_rejects_mismatch(mini_lexicon):
    other_class = build_lexicon(
        Dataset((raw_doc("f1", Label.FAKE, ["a"]),)),
        Dataset((raw_doc("v1", Label.VALID, ["a"]),)),
        ModelClass.ROOT,
    )
    with pytest.raises(ModelMismatchError):
        merge_lexicons(mini_lexicon, other_class)
    other_mode = build_lexicon(
        Dataset((raw_doc("f1", Label.FAKE, ["a"]),)),
        Dataset((raw_doc("v1", Label.VALID, ["a"]),)),
        ModelClass.RAW,
        CountMode.DOC_PRESENCE,
    )
    with pytest.raises(ModelMismatchError):
        merge_lexicons(mini_lexicon, other_mode)


def test_save_load_round_trip(tmp_path, mini_lexicon):
    path = tmp_path / "lex.jsonl"
    save_lexicon(mini_lexicon, str(path))
    loaded = load_lexicon(str(path))
    assert loaded.model_class is mini_lexicon.model_class
    assert loaded.count_mode is mini_lexicon.count_mode
    assert loaded.fake_total == mini_lexicon.fake_total
    assert loaded.valid_total == mini_lexicon.valid_total
    assert loaded.smoothing == mini_lexicon.smoothing
    assert loaded.entries == mini_lexicon.entries
    # Saving the loaded lexicon reproduces the file byte for byte.
    again = tmp_path / "again.jsonl"
    save_lexicon(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_save_load_preserves_smoothing(tmp_path):
    lex = lexicon_from_counts(
        ModelClass.ROOT, {"a": 1}, {"b": 2}, CountMode.DOC_PRESENCE, smoothing=1.0
    )
    path = tmp_path / "lex.jsonl"
    save_lexicon(lex, str(path))
    loaded = load_lexicon(str(path))
    assert loaded.smoothing == 1.0
    assert loaded.count_mode is CountMode.DOC_PRESENCE
    assert loaded.entries == lex.entries

    def given(entries):
        return Lexicon(
            lex.model_class,
            entries=entries,
            fake_total=lex.fake_total,
            valid_total=lex.valid_total,
            count_mode=lex.count_mode,
            smoothing=lex.smoothing,
        )

    # Equality compares scores too: given scores equal to the lexicon's
    # make an equal lexicon, scaled ones a different one.
    assert given(lex.entries) == lex
    scaled = {
        t: e._replace(fake_score=e.fake_score * 2, valid_score=e.valid_score * 2)
        for t, e in lex.entries.items()
    }
    assert given(scaled) != lex


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_save_load_round_trip_with_line_separator_in_term(tmp_path, separator):
    # json.dumps leaves these characters unescaped, so the file carries
    # them raw inside an entry line.
    term = f"ab{separator}c"
    lex = lexicon_from_counts(ModelClass.ROOT, {term: 2, "x": 1}, {term: 1, "y": 1})
    path = tmp_path / "lex.jsonl"
    save_lexicon(lex, str(path))
    assert separator in path.read_text(encoding="utf-8")
    loaded = load_lexicon(str(path))
    assert loaded.entries == lex.entries
    again = tmp_path / "again.jsonl"
    save_lexicon(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "fake, bad", [({"\ud800": 1}, "\ud800"), ({"a": 1, "b\udfffc": 2, "\ud800": 1}, "b\udfffc")]
)
def test_save_refuses_a_lone_surrogate_term(tmp_path, fake, bad):
    """UTF-8 cannot encode a lone surrogate: saving names the file and the
    first such term in term order, and writes no file, temporary or not."""
    lex = lexicon_from_counts(ModelClass.RAW, fake, {"\ud800": 0, "a": 1})
    path = tmp_path / "lex.jsonl"
    with pytest.raises(LexiconParseError) as err:
        save_lexicon(lex, str(path))
    assert str(err.value) == f"{path}: term {bad!r} holds a lone surrogate"
    assert list(tmp_path.iterdir()) == []
    # Over an existing file: the header is written before the failing
    # entry, but only to the temporary file, which goes.
    path.write_bytes(b"old\n")
    with pytest.raises(LexiconParseError):
        save_lexicon(lex, str(path))
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_save_refuses_an_entry_without_counts(tmp_path):
    """A lexicon given entries may hold one that neither side counted, which
    load_lexicon refuses: saving refuses it first, naming the file and the
    first such term in term order, and leaves the target as it was."""
    entries = {t: TermEntry(t, fc, vc, 0.5, 0.5)
               for t, fc, vc in [("a", 1, 0), ("z", 0, 0), ("y", 0, 0), ("b", 0, 2)]}
    lex = Lexicon(ModelClass.RAW, entries=entries, fake_total=1, valid_total=2,
                  count_mode=CountMode.TOKEN_FREQ)
    path = tmp_path / "lex.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(LexiconConsistencyError) as err:
        save_lexicon(lex, str(path))
    assert str(err.value) == f"{path}: entry 'y' has no evidence"
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]
    # With every entry counted, the file saves and loads.
    del entries["y"], entries["z"]
    given = Lexicon(ModelClass.RAW, entries=entries, fake_total=1, valid_total=2,
                    count_mode=CountMode.TOKEN_FREQ)
    save_lexicon(given, str(path))
    assert load_lexicon(str(path)).entries.keys() == {"a", "b"}


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([("a", 0, 0), ("z", 1.5, 1)], LexiconConsistencyError, "entry 'a' has no evidence"),
        ([("a", 1.5, 1), ("z", 0, 0)], LexiconParseError, "entry 'a': bad entry values"),
    ],
    ids=["uncounted-first", "bad-values-first"],
)
def test_save_names_the_first_faulty_term_as_load_does(tmp_path, rows, error, message):
    """Given a term that no side counted and a term with a bad count, saving
    names the one first in term order with its own error, as the loader stops
    at that term's line."""
    entries = {t: TermEntry(t, fc, vc, 0.5, 0.5) for t, fc, vc in rows}
    lex = Lexicon(ModelClass.RAW, entries=entries, fake_total=1, valid_total=1,
                  count_mode=CountMode.TOKEN_FREQ)
    path = tmp_path / "lex.jsonl"
    with pytest.raises(error) as err:
        save_lexicon(lex, str(path))
    assert str(err.value) == f"{path}: {message}"
    assert list(tmp_path.iterdir()) == []
    rows = [{"t": t, "fc": fc, "vc": vc} for t, fc, vc in rows]
    _write_manual(path, {"fake_total": 1, "valid_total": 1}, rows)
    with pytest.raises(error) as err:
        load_lexicon(str(path))
    assert str(err.value).startswith(f"{path}:2: ")


def _counted(fake, valid, fake_total=None, valid_total=None):
    """A RAW lexicon given its counts, totals their sums unless given."""
    return Lexicon(
        ModelClass.RAW, fake_counts=fake, valid_counts=valid,
        fake_total=sum(fake.values()) if fake_total is None else fake_total,
        valid_total=sum(valid.values()) if valid_total is None else valid_total,
        count_mode=CountMode.TOKEN_FREQ,
    )


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: _counted({"a": 1}, {"b": 1}, fake_total=2), LexiconConsistencyError,
         "fake_total 2 does not match entry sum 1"),
        (lambda: _counted({"a": 1}, {"b": 1, "c": 2}, valid_total=2), LexiconConsistencyError,
         "valid_total 2 does not match entry sum 3"),
        (lambda: lexicon_from_counts(ModelClass.RAW, {"": 1, "a": 1}, {"b": 1}),
         LexiconParseError, "entry '': bad entry values"),
        (lambda: _counted({"a": 1.5}, {"b": 1}), LexiconParseError,
         "header 'fake_total' must be an integer"),
        (lambda: _counted({"a": 1}, {"b": 1}, valid_total=True), LexiconParseError,
         "header 'valid_total' must be an integer"),
        (lambda: _counted({"z": 1.5, "c": 2, "a": 1}, {"b": 1}, fake_total=4), LexiconParseError,
         "entry 'z': bad entry values"),
        (lambda: _counted({"a": 1}, {"b": True}, valid_total=1), LexiconParseError,
         "entry 'b': bad entry values"),
        (lambda: _counted({"z": -1, "y": 2, "c": 0}, {"c": 1}), LexiconParseError,
         "entry 'c': bad entry values"),
    ],
    ids=["fake-total", "valid-total", "empty-term", "float-total", "bool-total", "float-count",
         "bool-count", "zero-and-negative-counts"],
)
def test_save_refuses_what_load_refuses(tmp_path, make, error, message):
    """Each of these lexicons, written, would be refused by load_lexicon or
    load as another lexicon: saving refuses it with the loader's error type
    and wording, naming the file and the side or the first term in term
    order, and leaves the target as it was."""
    path = tmp_path / "lex.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(error) as err:
        save_lexicon(make(), str(path))
    assert str(err.value) == f"{path}: {message}"
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


# Mostly counts that save, with now and then an empty term, a zero or
# negative count, or one that is no int.
_ROUND_TRIP_COUNTS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "çay", "a b", "\u2028", ""]),
    st.sampled_from([1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 0, -1, 0.5, 2.0, True]),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    fake=_ROUND_TRIP_COUNTS,
    valid=_ROUND_TRIP_COUNTS,
    shifts=st.tuples(*[st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 0.0, True])] * 2),
    from_counts=st.booleans(),
    mode=st.sampled_from(CountMode),
    smoothing=st.sampled_from([0.0, 0.5, 1.0, 0, 1, 2]),
)
@example({"a": 1}, {"b": 1}, (1, 0), False, CountMode.TOKEN_FREQ, 0.0)  # a total off its sum
@example({"": 1, "a": 1}, {"b": 1}, (0, 0), True, CountMode.TOKEN_FREQ, 0.0)  # an empty term
@example({"a": 0.5, "b": 1}, {"b": 1}, (0, 0), False, CountMode.TOKEN_FREQ, 0.0)  # a float
@example({"a": 0, "b": 1}, {"a": 1}, (0, 0), False, CountMode.DOC_PRESENCE, 0.5)  # a stored 0
@example({"a": 2, "a b": 1}, {"a": 1, "\u2028": 3}, (0, 0), False, CountMode.TOKEN_FREQ, 1.0)
@example({"a": 1}, {"b": 1}, (0, 0), True, CountMode.TOKEN_FREQ, 1)  # an int smoothing
def test_save_then_load_gives_the_lexicon_or_saves_nothing(
    tmp_path, fake, valid, shifts, from_counts, mode, smoothing
):
    """A lexicon saves only as a file that loads as an equal lexicon and saves
    again to the same bytes; otherwise saving raises and leaves the directory
    as it was."""
    try:
        if from_counts:
            lex = lexicon_from_counts(ModelClass.ROOT, fake, valid, mode, smoothing)
        else:
            # Totals off their sums by a shift, or turned into a float or a bool.
            totals = [sum(c.values()) for c in (fake, valid)]
            totals = [t + s if type(s) is int else type(s)(t) for t, s in zip(totals, shifts)]
            lex = Lexicon(ModelClass.ROOT, fake_counts=fake, valid_counts=valid,
                          fake_total=totals[0], valid_total=totals[1], count_mode=mode,
                          smoothing=smoothing)
    except (TypeError, ValueError, EmptyTrainingSplitError):
        return  # no lexicon to save
    path, again = tmp_path / "lex.jsonl", tmp_path / "again.jsonl"
    path.write_bytes(b"old\n")
    try:
        save_lexicon(lex, str(path))
    except (FanlexError, ValueError):
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]
        return
    loaded = load_lexicon(str(path))
    assert loaded == lex
    save_lexicon(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()
    again.unlink()


def test_load_rejects_version(tmp_path, mini_lexicon):
    path = tmp_path / "lex.jsonl"
    save_lexicon(mini_lexicon, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["version"] = 2
    lines[0] = json.dumps(header, ensure_ascii=False, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(LexiconVersionError):
        load_lexicon(str(path))


def test_load_rejects_tampered_entries(tmp_path, mini_lexicon):
    path = tmp_path / "lex.jsonl"
    save_lexicon(mini_lexicon, str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"fc":1', '"fc":7', 1), encoding="utf-8")
    with pytest.raises(LexiconChecksumError):
        load_lexicon(str(path))


@pytest.mark.parametrize("blank", [" \t", "\u00a0"])
def test_load_skips_only_json_whitespace_lines(tmp_path, mini_lexicon, blank):
    """A line of spaces and tabs is skipped and outside the checksum; a line
    holding other whitespace is an entry line, and the checksum covers it."""
    path = tmp_path / "lex.jsonl"
    save_lexicon(mini_lexicon, str(path))
    header, entries = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(f"{header}\n{blank}\n{entries}", encoding="utf-8")
    if blank.isascii():
        assert load_lexicon(str(path)).entries == mini_lexicon.entries
    else:
        with pytest.raises(LexiconChecksumError, match="checksum mismatch"):
            load_lexicon(str(path))


def test_load_rejects_total_mismatch(tmp_path, mini_lexicon):
    path = tmp_path / "lex.jsonl"
    save_lexicon(mini_lexicon, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["fake_total"] = 99
    lines[0] = json.dumps(header, ensure_ascii=False, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(LexiconConsistencyError) as err:
        load_lexicon(str(path))
    assert "fake_total" in str(err.value)


def _write_manual(path, header_extra, entry_objs):
    import hashlib

    lines = [
        json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
        for obj in entry_objs
    ]
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    header = {
        "format": "fanlex-lexicon",
        "version": 1,
        "class": "RAW",
        "count_mode": "TOKEN_FREQ",
        "fake_total": sum(o["fc"] for o in entry_objs),
        "valid_total": sum(o["vc"] for o in entry_objs),
        "smoothing": 0.0,
        "checksum": digest.hexdigest(),
    }
    header.update(header_extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, ensure_ascii=False, separators=(",", ":")) + "\n")
        for line in lines:
            fh.write(line + "\n")


def test_load_rejects_entry_without_evidence(tmp_path):
    path = tmp_path / "lex.jsonl"
    _write_manual(path, {}, [{"t": "a", "fc": 1, "vc": 1}, {"t": "b", "fc": 0, "vc": 0}])
    with pytest.raises(LexiconConsistencyError) as err:
        load_lexicon(str(path))
    assert "'b'" in str(err.value)


# Too large for a float: float(HUGE) raises OverflowError.
HUGE = 10**400
_HUGE_IN_LIBRARY = {
    "Lexicon-smoothing": lambda: Lexicon(
        ModelClass.RAW, fake_counts={"a": 1}, valid_counts={"a": 1}, fake_total=1, valid_total=1,
        count_mode=CountMode.TOKEN_FREQ, smoothing=HUGE,
    ),
    "Lexicon-totals": lambda: Lexicon(
        ModelClass.RAW, fake_counts={"a": HUGE}, valid_counts={"b": 1}, fake_total=HUGE,
        valid_total=1, count_mode=CountMode.TOKEN_FREQ,
    ),
    "RunConfig-smoothing": lambda: RunConfig(smoothing=HUGE),
    "RunConfig-display_scale": lambda: RunConfig(display_scale=HUGE),
}


@pytest.mark.parametrize("case", [*_HUGE_IN_LIBRARY, "score", "inspect-term"])
def test_number_too_large_for_a_float_is_not_finite(tmp_path, case):
    if case in _HUGE_IN_LIBRARY:
        with pytest.raises(ValueError, match="finite"):
            _HUGE_IN_LIBRARY[case]()
        return
    path = tmp_path / "lex.jsonl"
    _write_manual(path, {}, [{"t": "a", "fc": HUGE, "vc": 0}, {"t": "b", "fc": 0, "vc": 1}])
    if case == "score":
        corpus = tmp_path / "in.jsonl"
        corpus.write_text('{"id":"d","text":"a b","label":"FAKE"}\n', encoding="utf-8")
        argv = ["score", "--lexicon", path, "--input", corpus]
    else:
        argv = ["inspect-term", "--term", "a", "--lexicon", path]
    proc = subprocess.run(
        [sys.executable, "-m", "fanlex", *map(str, argv)], capture_output=True, text=True
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert f"{path}: smoothing 0.0 or a total is too large" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("side", ["fake", "valid"])
def test_load_rejects_total_not_above_zero(tmp_path, side):
    # The entries agree with the zero total, so only the total check fires.
    path = tmp_path / "lex.jsonl"
    fc, vc = (0, 2) if side == "fake" else (2, 0)
    _write_manual(path, {}, [{"t": "a", "fc": fc, "vc": vc}])
    with pytest.raises(LexiconConsistencyError) as err:
        load_lexicon(str(path))
    assert str(err.value) == f"{path}: {side}_total 0 is not > 0"


def test_load_rejects_duplicate_term(tmp_path):
    path = tmp_path / "lex.jsonl"
    _write_manual(
        path, {}, [{"t": "a", "fc": 1, "vc": 1}, {"t": "a", "fc": 1, "vc": 1}]
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(str(path))
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize(
    "entry,error,message",
    [
        ({"t": "x", "fc": -1, "vc": 1}, LexiconParseError, "bad entry values"),
        ({"t": "a", "fc": 1, "vc": 1}, LexiconParseError, "duplicate term 'a'"),
        ({"t": "x", "fc": 0, "vc": 0}, LexiconConsistencyError, "entry 'x' has no evidence"),
    ],
)
def test_load_errors_name_the_file_line(tmp_path, entry, error, message):
    """Blank lines count: the entry after them is line 5 of the file."""
    path = tmp_path / "lex.jsonl"
    _write_manual(path, {"fake_total": 1, "valid_total": 1}, [{"t": "a", "fc": 1, "vc": 1}, entry])
    header, first, second = path.read_text(encoding="utf-8").splitlines()
    # The blank lines leave the checksum as it was.
    path.write_text("\n".join([header, "", first, " ", second]) + "\n", encoding="utf-8")
    with pytest.raises(error) as err:
        load_lexicon(str(path))
    assert str(err.value) == f"{path}:5: {message}"


@pytest.mark.parametrize(
    "content,error",
    [
        ("", LexiconParseError),
        ("{broken\n", LexiconParseError),
        ('{"format":"something-else","version":1}\n', LexiconParseError),
        ('{"format":"fanlex-lexicon","version":1,"class":"NOPE"}\n', LexiconParseError),
    ],
)
def test_load_rejects_bad_headers(write_text, content, error):
    path = write_text("lex.jsonl", content)
    with pytest.raises(error):
        load_lexicon(path)


@pytest.mark.parametrize(
    "header_extra,entry",
    [
        ({}, {"t": "a", "fc": True, "vc": 1}),
        ({}, {"t": "a", "fc": 1, "vc": True}),
        ({"version": True}, {"t": "a", "fc": 1, "vc": 1}),
        ({"fake_total": True}, {"t": "a", "fc": 1, "vc": 1}),
        ({"valid_total": True}, {"t": "a", "fc": 1, "vc": 1}),
        ({"smoothing": True}, {"t": "a", "fc": 1, "vc": 1}),
        ({"fake_total": 1.0}, {"t": "a", "fc": 1, "vc": 1}),
        ({"valid_total": "1"}, {"t": "a", "fc": 1, "vc": 1}),
        ({"smoothing": 10**400}, {"t": "a", "fc": 1, "vc": 1}),
        ({"smoothing": -1}, {"t": "a", "fc": 1, "vc": 1}),
        ({"smoothing": "0.5"}, {"t": "a", "fc": 1, "vc": 1}),
        ({"smoothing": None}, {"t": "a", "fc": 1, "vc": 1}),
    ],
)
def test_load_rejects_non_integer_values(tmp_path, header_extra, entry):
    path = tmp_path / "lex.jsonl"
    _write_manual(path, header_extra, [entry])
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(str(path))
    if "smoothing" in header_extra:
        assert str(err.value).startswith(f"{path}: ")
        assert "smoothing" in str(err.value)


def test_load_rejects_undecodable_file(tmp_path):
    path = tmp_path / "lex.jsonl"
    path.write_bytes(b'{"format":"fanlex-lexicon"}\n{"t":"\xff","fc":1,"vc":0}\n')
    with pytest.raises(LexiconParseError, match="lex.jsonl: not valid UTF-8"):
        load_lexicon(str(path))


def test_load_rejects_bad_entry_values(tmp_path):
    path = tmp_path / "lex.jsonl"
    _write_manual(path, {"fake_total": 1, "valid_total": 1}, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"t":"a","fc":1.5,"vc":1}\n')
    # Appending invalidates the checksum before values are even looked at.
    with pytest.raises(LexiconChecksumError):
        load_lexicon(str(path))
    _write_manual2 = [{"t": "a", "fc": 1, "vc": "x"}]
    path2 = tmp_path / "lex2.jsonl"
    lines = [json.dumps(o, separators=(",", ":")) for o in _write_manual2]
    import hashlib

    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    header = {
        "format": "fanlex-lexicon",
        "version": 1,
        "class": "RAW",
        "count_mode": "TOKEN_FREQ",
        "fake_total": 1,
        "valid_total": 1,
        "smoothing": 0.0,
        "checksum": digest.hexdigest(),
    }
    path2.write_text(
        json.dumps(header, separators=(",", ":")) + "\n" + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(str(path2))
    assert "bad entry values" in str(err.value)


def _wide_lexicon(n_terms=24_000):
    """A seeded long-tail RAW lexicon: short terms, counts of 0-3."""
    rng = random.Random(5)
    letters = "abcçdefgğhıijklmnoöprsştuüvyz"
    terms = set()
    while len(terms) < n_terms:
        terms.add("".join(rng.choices(letters, k=rng.randint(3, 14))))
    fake = {t: rng.choice((0, 1, 1, 1, 2, 3)) for t in sorted(terms)}
    valid = {t: rng.choice((0, 1, 2)) if fake[t] else 1 for t in fake}
    return lexicon_from_counts(ModelClass.RAW, fake, valid)


def _traced(call):
    """call's result, the bytes it left allocated and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, size - base, peak - base


def test_load_holds_about_one_lexicon(tmp_path):
    """load_lexicon reads a block at a time: its traced peak stays near the
    size of the lexicon it returns, where reading the file whole took 1.9x."""
    lex = _wide_lexicon()
    path = str(tmp_path / "lex.jsonl")
    save_lexicon(lex, path)
    loaded, size, peak = _traced(lambda: load_lexicon(path))
    assert loaded == lex
    assert peak <= 1.2 * size


def test_writer_holds_its_blocks_not_lines(tmp_path):
    """The writer holds the sorted terms and one joined block at a time,
    and fills in the checksum after: its traced peak is well under the
    lexicon's own size, where all blocks held for the header took 0.44x
    and a string per line 0.8x."""
    path = str(tmp_path / "lex.jsonl")
    save_lexicon(_wide_lexicon(), path)
    lex, size, _ = _traced(lambda: load_lexicon(path))
    _, _, peak = _traced(lambda: save_lexicon(lex, path))
    assert peak <= 0.2 * size


def _wide_split(rng, label, words, n_docs=300):
    """Plain-text documents of 150 tokens each, drawn with a long tail from words."""
    return Dataset(tuple(
        Document(id=f"{label.value}{i}", label=label,
                 text=" ".join(words[int(len(words) * rng.random() ** 2)] for _ in range(150)))
        for i in range(n_docs)
    ))


def test_build_holds_about_its_counts(tmp_path):
    """The lexicon takes the counted Counters over and the writer holds one
    block: from the Counters through lexicon_stats and save_lexicon, the
    traced peak stays near the Counters' own size, where a merged copy of
    the counts beside them and every block held for the header took 2.0x."""
    rng = random.Random(7)
    letters = "abcçdefgğhıijklmnoöprsştuüvyz"
    words = sorted({"".join(rng.choices(letters, k=rng.randint(3, 12))) for _ in range(60_000)})
    fake, valid = (_wide_split(rng, label, words) for label in (Label.FAKE, Label.VALID))
    pipeline = TermPipeline((ModelClass.RAW,))
    path = str(tmp_path / "lex.jsonl")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        (fake_counts,), (valid_counts,) = count_splits(fake, valid, pipeline)
        size = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        lex = lexicon_from_counts(ModelClass.RAW, fake_counts, valid_counts)
        lexicon_stats(lex)
        save_lexicon(lex, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert load_lexicon(path) == lex
    assert peak <= 1.1 * size


def test_load_numbers_lines_across_blocks(tmp_path):
    """Entry lines far past the first block, with blank lines before them
    and no "\n" after the last, keep their file line numbers."""
    lex = _wide_lexicon(3_000)
    path = tmp_path / "lex.jsonl"
    save_lexicon(lex, str(path))
    header, *entries = path.read_text(encoding="utf-8").split("\n")[:-1]
    entries[1000:1000] = ["", " \t"]
    bad = len(entries) - 10
    entries[bad] = '{"t":"z","fc":-1,"vc":1}'
    kept = [line for line in entries if line.strip()]
    fields = json.loads(header)
    fields["checksum"] = hashlib.sha256("".join(e + "\n" for e in kept).encode()).hexdigest()
    path.write_text("\n".join([json.dumps(fields), *entries]), encoding="utf-8")
    with pytest.raises(LexiconParseError, match=f":{bad + 2}: bad entry values"):
        load_lexicon(str(path))
    entries[bad] = "{not json"
    path.write_text("\n".join([json.dumps(fields), *entries]), encoding="utf-8")
    with pytest.raises(LexiconChecksumError):
        load_lexicon(str(path))


def test_order_independence():
    rng = random.Random(33)
    ds = analyzed_corpus(rng, 6, 6, vocab=9)
    fake = ds.filter(Label.FAKE)
    valid = ds.filter(Label.VALID)
    fake_rev = Dataset(tuple(reversed(fake.documents)))
    valid_rev = Dataset(tuple(reversed(valid.documents)))
    for model_class in ALL_CLASSES:
        forward = build_lexicon(fake, valid, model_class)
        backward = build_lexicon(fake_rev, valid_rev, model_class)
        assert forward.entries == backward.entries


def test_make_analysis_shape():
    rng = random.Random(2)
    a = make_analysis(rng, ["kelime"])
    assert a.raw.startswith(a.root)

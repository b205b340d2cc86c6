"""Run settings reach the term pipeline as one RunConfig.

The keyword entry points (build_lexicon, explain, extract_terms,
score_batch, verify_stats) build a RunConfig from their keywords and
call the config-taking core. These tests pin that each one forwards
every keyword, on inputs where each keyword changes the result, and
that every public function taking a locale refuses one that is not a
Locale rather than reading it as GENERIC.
"""

import inspect
from collections import Counter
from itertools import product

import pytest

import fanlex
from fanlex.config import CountMode, Locale, RunConfig, TermSetMode
from fanlex.corpus import (
    Dataset,
    Document,
    Label,
    load_word_list,
    verify_stats,
    verify_stats_by_group,
)
from fanlex.lexicon import (
    ModelClass,
    TermPipeline,
    build_lexicon,
    count_splits,
    extract_terms,
    lexicon_from_counts,
)
from fanlex.morph import (
    DEFAULT_RULE_TABLE,
    AnalyzerRuleTable,
    MorphAnalysis,
    analyze_document,
    analyze_text,
    analyze_token,
    load_rule_table,
    normalize,
)
from fanlex.scorer import _explain_terms, _score_rows, explain, score_batch

F, V = Label.FAKE, Label.VALID

# Under TURKISH "IRMAK" is "ırmak" and "İZMİR" is "izmir", both table
# hits; under GENERIC they are "irmak" and "i̇zmi̇r", which the suffix
# stripper takes. Titles add terms and sentences; repeats tell the count
# and term-set modes apart.
TABLE = AnalyzerRuleTable(
    entries={
        "ırmak": (MorphAnalysis(raw="ırmak", root="ırmak", pos="Noun"),),
        "izmir": (MorphAnalysis(raw="izmir", root="izmir", pos="Prop", suffixes=("Loc",)),),
    }
)
FAKE = Dataset((
    Document(id="f1", title="IRMAK taşkını", text="İzmir ırmak ırmak taştı.", label=F),
    Document(id="f2", text="Irmaklar İZMİR'den geçer.", label=F),
))
VALID = Dataset((
    Document(id="v1", title="İZMİR", text="ırmak kitaplar evlerde.", label=V),
    Document(id="v2", text="Kitaplar IRMAK.", label=V),
))
TEST = Dataset((
    Document(id="t1", title="IRMAK taşkını", text="İzmir ırmak ırmak kitaplar.", label=F),
    Document(id="t2", text="IRMAK İZMİR'de evlerde.", label=V),
))
SLANG, DICTIONARY = ["ırmak"], ["izmir", "kitaplar", "evlerde"]

LOCALES = list(Locale)
TITLES = [True, False]
ANALYZERS = [None, TABLE]


def _lexicon_key(lex):
    return (lex.model_class, lex.count_mode, lex.smoothing, lex.fake_total,
            lex.valid_total, tuple(sorted((t, e[1:3]) for t, e in lex.entries.items())))


def _all_distinct(results):
    """Each grid point gives its own result, so a keyword an adapter
    dropped would show as a mismatch with the core."""
    assert len(set(results)) == len(results)


def test_build_lexicon_forwards_every_keyword():
    results = []
    grid = product(LOCALES, TITLES, ANALYZERS, CountMode, [0.0, 0.5])
    for locale, title, analyzer, count_mode, smoothing in grid:
        config = RunConfig(locale=locale, count_mode=count_mode, include_title=title)
        pipeline = TermPipeline(list(ModelClass), analyzer, config)
        fake_counts, valid_counts = count_splits(FAKE, VALID, pipeline)
        built = []
        for c, fake, valid in zip(ModelClass, fake_counts, valid_counts):
            lex = build_lexicon(
                FAKE, VALID, c, count_mode,
                analyzer=analyzer, locale=locale, include_title=title, smoothing=smoothing,
            )
            assert lex == lexicon_from_counts(c, fake, valid, count_mode, smoothing)
            built.append(_lexicon_key(lex))
        results.append(tuple(built))
    _all_distinct(results)


def test_score_batch_forwards_every_keyword():
    lexicons = [build_lexicon(FAKE, VALID, c, analyzer=TABLE) for c in ModelClass]
    results = []
    for locale, title, analyzer, mode in product(LOCALES, TITLES, ANALYZERS, TermSetMode):
        scores = score_batch(
            TEST, lexicons, mode, analyzer=analyzer, locale=locale, include_title=title
        )
        config = RunConfig(locale=locale, term_set_mode=mode, include_title=title)
        core = _score_rows(TEST, lexicons, config, analyzer)
        rows = [(doc.id, lex.model_class, score) for doc, lex, _, score in core]
        assert [(i, c, s) for i, by_class in scores.items() for c, s in by_class.items()] == rows
        results.append(tuple(rows))
    _all_distinct(results)


def test_explain_forwards_every_keyword():
    lexicons = [build_lexicon(FAKE, VALID, c, analyzer=TABLE) for c in ModelClass]
    results = []
    for locale, title, analyzer in product(LOCALES, TITLES, ANALYZERS):
        config = RunConfig(locale=locale, include_title=title)
        got = []
        for doc, lex in product(TEST.documents, lexicons):
            top = explain(doc, lex, 5, analyzer=analyzer, locale=locale, include_title=title)
            terms = TermPipeline((lex.model_class,), analyzer, config).terms(doc)[0]
            assert top == _explain_terms(Counter(terms), lex, 5)
            got.append(tuple(top))
        results.append(tuple(got))
    _all_distinct(results)


def test_extract_terms_forwards_the_locale():
    analyses = [
        MorphAnalysis(raw="IRMAK", root="ırmak", pos="Noun"),
        MorphAnalysis(raw="İZMİR'de", root="izmir", pos="Prop", suffixes=("Loc",)),
    ]
    results = []
    for locale, c in product(LOCALES, ModelClass):
        pipeline = TermPipeline((c,), config=RunConfig(locale=locale))
        terms = extract_terms(analyses, c, locale)
        assert terms == Counter(pipeline._term_lists(analyses)[0])
        results.append((c, tuple(terms.items())))
    # RAW and RAW_POS terms follow the locale; ROOT and SUFFIX do not.
    assert len(set(results)) == len(results) - 2


def test_verify_stats_forwards_every_keyword():
    results = []
    for locale, title in product(LOCALES, TITLES):
        report = verify_stats(TEST, SLANG, DICTIONARY, locale=locale, include_title=title)
        config = RunConfig(locale=locale, include_title=title)
        core = verify_stats_by_group(TEST, SLANG, DICTIONARY, lambda doc: None, config)
        assert report == core[0]
        results.append(report)
    _all_distinct(results)


DOC = Document(id="d", text="IRMAK yok.", label=F)
LOCALE_CALLS = {
    "RunConfig": lambda locale, files: RunConfig(locale=locale),
    "normalize": lambda locale, files: normalize("IRMAK", locale),
    "analyze_token": lambda locale, files: analyze_token("IRMAK", DEFAULT_RULE_TABLE, locale),
    "analyze_text": lambda locale, files: analyze_text("IRMAK yok", TABLE, locale, {}),
    "analyze_document": lambda locale, files: analyze_document(DOC, locale=locale),
    "load_rule_table": lambda locale, files: load_rule_table(files["table"], locale),
    "load_word_list": lambda locale, files: load_word_list(files["words"], locale),
    "extract_terms": lambda locale, files: extract_terms(
        [MorphAnalysis(raw="IRMAK", root="ırmak", pos="Noun")], ModelClass.RAW, locale
    ),
    "build_lexicon": lambda locale, files: build_lexicon(
        FAKE, VALID, ModelClass.RAW, locale=locale
    ),
    "explain": lambda locale, files: explain(
        DOC, build_lexicon(FAKE, VALID, ModelClass.RAW), 3, locale=locale
    ),
    "score_batch": lambda locale, files: score_batch(
        TEST, [build_lexicon(FAKE, VALID, ModelClass.RAW)], locale=locale
    ),
    "verify_stats": lambda locale, files: verify_stats(
        Dataset((DOC,)), ["yok"], ["ırmak"], locale=locale
    ),
}


@pytest.fixture
def files(write_text):
    return {
        "table": write_text(
            "table.jsonl", '{"surface": "IRMAK", "analyses": [{"root": "ırmak", "pos": "Noun"}]}\n'
        ),
        "words": write_text("words.txt", "IRMAK\nyok\n"),
    }


def test_every_public_function_taking_a_locale_is_checked():
    # analyze_text, the token loop, is public in fanlex.morph only.
    takes_locale = {
        name for name in fanlex.__all__
        if callable(obj := getattr(fanlex, name))
        and not isinstance(obj, type(Locale))
        and "locale" in inspect.signature(obj).parameters
    }
    assert takes_locale == set(LOCALE_CALLS) - {"analyze_text"}


@pytest.mark.parametrize("name", LOCALE_CALLS)
@pytest.mark.parametrize("locale", ["turkish", None])
def test_locale_that_is_not_a_locale_is_refused(files, name, locale):
    for good in Locale:
        LOCALE_CALLS[name](good, files)
    with pytest.raises(TypeError, match="locale must be Locale"):
        LOCALE_CALLS[name](locale, files)


def test_only_the_locale_decides_turkish_casing():
    # "IRMAK" is "ırmak" only under TURKISH. A str locale used to read as
    # GENERIC, so "turkish" gave a misspelling rate of 1.0.
    rates = {
        locale: verify_stats(Dataset((DOC,)), ["yok"], ["ırmak"], locale=locale)
        for locale in Locale
    }
    assert rates[Locale.TURKISH].misspelling_per_sentence == 0.0
    assert rates[Locale.GENERIC].misspelling_per_sentence == 1.0

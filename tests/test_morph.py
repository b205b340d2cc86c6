import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanlex.morph as morph
from fanlex._kernels import has_letter
from fanlex.config import RunConfig
from fanlex.corpus import Dataset, Document, Label
from fanlex.errors import AnalysisError, InputError
from fanlex.evaluation import cross_validate
from fanlex.lexicon import ModelClass, TermPipeline
from fanlex.morph import (
    DEFAULT_RULE_TABLE,
    DEFAULT_SUFFIX_RULES,
    UNKNOWN_POS,
    AnalyzerRuleTable,
    Locale,
    MorphAnalysis,
    analyze_document,
    analyze_token,
    compose_text,
    load_rule_table,
    load_suffix_rules,
    normalize,
    strip_suffixes,
    tokenize,
)


def test_normalize_locales():
    assert normalize("İNANILMAZ") == "inanılmaz"
    assert normalize("ISPARTA", Locale.TURKISH) == "ısparta"
    assert normalize("ISPARTA", Locale.GENERIC) == "isparta"


def test_analysis_validation():
    with pytest.raises(ValueError):
        MorphAnalysis(raw="", root="x", pos="Noun")
    with pytest.raises(ValueError):
        MorphAnalysis(raw="x", root="", pos="Noun")
    with pytest.raises(ValueError):
        MorphAnalysis(raw="x", root="x", pos="Noun", suffixes=("A3pl", ""))


def test_compose_text():
    assert compose_text("Başlık", "Gövde burada.") == "Başlık. Gövde burada."
    assert compose_text("Soru mu?", "Gövde.") == "Soru mu? Gövde."
    assert compose_text("Başlık", "Gövde.", include_title=False) == "Gövde."
    assert compose_text(None, "Gövde.") == "Gövde."
    assert compose_text("   ", "Gövde.") == "Gövde."
    assert compose_text("Başlık", "") == "Başlık."


def test_strip_suffixes_longest_first():
    root, matched = strip_suffixes("insanlardan", DEFAULT_RULE_TABLE)
    assert root == "insan"
    assert matched == (("lar", "A3pl"), ("dan", "Abl"))
    # Reconstruction in word order.
    assert root + "".join(s for s, _ in matched) == "insanlardan"


def test_strip_suffixes_never_empties():
    root, matched = strip_suffixes("lar", DEFAULT_RULE_TABLE)
    assert root == "lar"
    assert matched == ()
    root, matched = strip_suffixes("dalar", DEFAULT_RULE_TABLE)
    assert root == "da"
    assert matched == (("lar", "A3pl"),)


def test_strip_suffixes_accepts_table(demo_table):
    assert strip_suffixes("evlerde", demo_table) == (
        "ev",
        (("ler", "A3pl"), ("de", "Loc")),
    )


def test_strip_suffixes_no_rules():
    assert strip_suffixes("kelime", AnalyzerRuleTable(suffix_rules=())) == ("kelime", ())


@given(
    root=st.text(st.sampled_from("abcdeğışk"), min_size=1, max_size=6),
    picks=st.lists(st.sampled_from(DEFAULT_SUFFIX_RULES), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_strip_suffixes_reconstructs(root, picks):
    surface = root + "".join(s for s, _ in picks)
    rest, matched = strip_suffixes(surface, DEFAULT_RULE_TABLE)
    assert rest
    assert rest + "".join(s for s, _ in matched) == surface


def test_rule_table_ordering():
    table = AnalyzerRuleTable(suffix_rules=(("a", "T1"), ("ba", "T2"), ("c", "T3")))
    assert table.suffix_rules == (("ba", "T2"), ("a", "T1"), ("c", "T3"))
    with pytest.raises(ValueError):
        AnalyzerRuleTable(suffix_rules=(("", "T1"),))


def test_rule_table_fields_cannot_be_reassigned():
    """The suffix index is built once, so the rules it indexes cannot change."""
    table = AnalyzerRuleTable()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.suffix_rules = (("ar", "X"),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        AnalyzerRuleTable().suffix_rules = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.entries = {}
    assert analyze_token("kitaplar", table).suffixes == ("A3pl",)
    # The entries dict itself stays editable.
    table.entries["kitaplar"] = (MorphAnalysis("kitaplar", "kitap", "Noun", ("X",)),)
    assert analyze_token("kitaplar", table).suffixes == ("X",)


def test_analyze_token_table_hit(demo_table):
    analysis = analyze_token("Demeyin", demo_table)
    assert analysis.root == "de"
    assert analysis.pos == "Verb"
    assert analysis.suffixes == ("Neg", "Imp", "A2pl")


def test_analyze_token_ambiguity_first_wins(demo_table):
    analysis = analyze_token("yok", demo_table)
    assert analysis.pos == "Adj"
    assert analysis.root == "yok"


def test_analyze_token_fallback(demo_table):
    analysis = analyze_token("Kitaplardan", demo_table)
    assert analysis.raw == "kitaplardan"
    assert analysis.root == "kitap"
    assert analysis.pos == UNKNOWN_POS
    assert analysis.suffixes == ("A3pl", "Abl")


def test_analyze_document_fallback_pipeline(demo_table):
    doc = Document(
        id="a",
        title="Vergi yok",
        text="İnsanlara gidecek demeyin! 47 kez.",
        label=Label.FAKE,
    )
    analyses = analyze_document(doc, demo_table)
    raws = [a.raw for a in analyses]
    # The numeral is skipped; the title is part of the token stream.
    assert raws == ["vergi", "yok", "insanlara", "gidecek", "demeyin", "kez"]
    assert [a.root for a in analyses] == ["vergi", "yok", "insan", "git", "de", "kez"]


def test_analyze_document_passthrough(demo_table):
    canned = (MorphAnalysis(raw="xyz", root="q", pos="Adv"),)
    doc = Document(id="a", text="something else entirely", label=Label.VALID, analyses=canned)
    assert analyze_document(doc, demo_table) == list(canned)


def test_analyze_document_respects_include_title(demo_table):
    doc = Document(id="a", title="Vergi", text="gidecek", label=Label.FAKE)
    with_title = analyze_document(doc, demo_table)
    without = analyze_document(doc, demo_table, include_title=False)
    assert [a.raw for a in with_title] == ["vergi", "gidecek"]
    assert [a.raw for a in without] == ["gidecek"]


def test_analyze_document_memo_matches_fresh_analysis(demo_table):
    doc = Document(
        id="a",
        title="Vergi yok",
        text="Kitaplar yok, kitaplar VERGİ 47 gidecek. Yok!",
        label=Label.FAKE,
    )
    tokens = tokenize(compose_text(doc.title, doc.text))
    fresh = [analyze_token(t, demo_table) for t in tokens if has_letter(t)]
    assert analyze_document(doc, demo_table) == fresh
    assert analyze_document(doc, demo_table) == fresh


def test_analyze_document_memo_is_per_locale():
    table = AnalyzerRuleTable()
    doc = Document(id="a", text="IŞIK IŞIKLAR", label=Label.FAKE)
    turkish = analyze_document(doc, table, locale=Locale.TURKISH)
    generic = analyze_document(doc, table, locale=Locale.GENERIC)
    assert [a.raw for a in turkish] == ["ışık", "ışıklar"]
    assert [a.raw for a in generic] == ["işik", "işiklar"]
    for locale, got in ((Locale.TURKISH, turkish), (Locale.GENERIC, generic)):
        assert got == [analyze_token(t, table, locale) for t in ("IŞIK", "IŞIKLAR")]
    assert analyze_document(doc, table, locale=Locale.TURKISH) == turkish


def test_analyze_document_memo_is_per_table():
    plural = AnalyzerRuleTable(suffix_rules=(("lar", "A3pl"),))
    aorist = AnalyzerRuleTable(suffix_rules=(("ar", "Aor"),))
    doc = Document(id="a", text="kitaplar", label=Label.VALID)
    assert analyze_document(doc, plural) == [
        MorphAnalysis(raw="kitaplar", root="kitap", pos=UNKNOWN_POS, suffixes=("A3pl",))
    ]
    assert analyze_document(doc, aorist) == [
        MorphAnalysis(raw="kitaplar", root="kitapl", pos=UNKNOWN_POS, suffixes=("Aor",))
    ]
    assert analyze_document(doc, plural)[0].root == "kitap"


def test_term_pipeline_does_not_memoize_failures(monkeypatch):
    calls = []
    real = morph.analyze_token

    def failing(token, table, locale=Locale.TURKISH):
        calls.append(token)
        if token == "bozuk":
            raise AnalysisError(f"token {token!r} rejected")
        return real(token, table, locale)

    monkeypatch.setattr(morph, "analyze_token", failing)
    doc = Document(id="a", text="iyi 12 bozuk", label=Label.FAKE)
    pipeline = TermPipeline([ModelClass.ROOT], AnalyzerRuleTable())
    for _ in range(2):
        with pytest.raises(AnalysisError, match="token 2: "):
            pipeline.terms(doc)
    assert calls == ["iyi", "bozuk", "bozuk"]


@pytest.mark.parametrize("locale", list(Locale))
def test_cross_validate_analyzes_each_token_once(monkeypatch, demo_table, locale):
    calls: Counter = Counter()
    real = morph.analyze_token

    def counting(token, table, locale=Locale.TURKISH):
        calls[token, locale] += 1
        return real(token, table, locale)

    monkeypatch.setattr(morph, "analyze_token", counting)
    rng = random.Random(5)
    vocab = ["Vergi", "yok", "insanlara", "gidecek", "Kitaplar", "evlerden", "IŞIK", "47"]
    docs = tuple(
        Document(
            id=f"d{i}",
            title=rng.choice(vocab),
            text=" ".join(rng.choices(vocab, k=rng.randint(3, 9))),
            label=Label.FAKE if i % 2 else Label.VALID,
        )
        for i in range(20)
    )
    config = RunConfig(locale=locale)
    cross_validate(Dataset(docs), 5, list(ModelClass), 1, config, demo_table)
    letter_tokens = {
        t for d in docs for t in tokenize(compose_text(d.title, d.text)) if has_letter(t)
    }
    assert {token for token, _ in calls} == letter_tokens
    assert {loc for _, loc in calls} == {locale}
    assert max(calls.values()) == 1


def test_default_rule_table_is_shared():
    assert TermPipeline([ModelClass.ROOT]).analyzer is DEFAULT_RULE_TABLE
    assert DEFAULT_RULE_TABLE.entries == {}


def test_load_rule_table(write_jsonl):
    path = write_jsonl(
        "rules.jsonl",
        [
            {
                "surface": "Gidecek",
                "analyses": [
                    {"root": "git", "pos": "Verb", "suffixes": ["Fut"]},
                    {"root": "gidecek", "pos": "Noun"},
                ],
            },
        ],
    )
    table = load_rule_table(path)
    assert set(table.entries) == {"gidecek"}
    first, second = table.entries["gidecek"]
    assert (first.root, first.pos, first.suffixes) == ("git", "Verb", ("Fut",))
    assert (second.root, second.pos, second.suffixes) == ("gidecek", "Noun", ())


@pytest.mark.parametrize(
    "row",
    [
        {"analyses": [{"root": "x", "pos": "Noun"}]},
        {"surface": "", "analyses": [{"root": "x", "pos": "Noun"}]},
        {"surface": "ev", "analyses": []},
        {"surface": "ev", "analyses": [{"pos": "Noun"}]},
        {"surface": "ev", "analyses": [{"root": "", "pos": "Noun"}]},
        {"surface": "--", "analyses": [{"root": "x", "pos": "Noun"}]},
    ],
)
def test_load_rule_table_rejects(write_jsonl, row):
    path = write_jsonl("bad.jsonl", [row])
    with pytest.raises(InputError) as err:
        load_rule_table(path)
    assert ":1:" in str(err.value)


@pytest.mark.parametrize(
    "analysis,needle",
    [
        ({"root": 5, "pos": "Noun"}, "needs string 'root'"),
        ({"root": "ev", "pos": 7}, "needs string 'pos'"),
        ({"root": "ev", "pos": "Noun", "suffixes": [3]}, "list of strings"),
        ({"root": "ev", "pos": "Noun", "suffixes": "Abl"}, "list of strings"),
        ({"root": "ev", "pos": "Noun", "raw": "ev"}, "unknown fields"),
        ([], "must be an object"),
    ],
)
def test_load_rule_table_rejects_bad_analysis(write_jsonl, analysis, needle):
    path = write_jsonl("bad.jsonl", [{"surface": "ev", "analyses": [analysis]}])
    with pytest.raises(InputError, match=f":1: bad analysis: .*{needle}"):
        load_rule_table(path)


def test_load_rule_table_rejects_duplicate_surface(write_jsonl):
    path = write_jsonl(
        "dup.jsonl",
        [
            {"surface": "Yok", "analyses": [{"root": "yok", "pos": "Adj"}]},
            {"surface": "ev", "analyses": [{"root": "ev", "pos": "Noun"}]},
            {"surface": "yok", "analyses": [{"root": "yoğ", "pos": "Verb"}]},
        ],
    )
    with pytest.raises(
        InputError, match=r":3: duplicate surface 'yok' \(first on line 1\)"
    ):
        load_rule_table(path)


def test_load_rule_table_bad_json(write_text):
    path = write_text("bad.jsonl", "{nope\n")
    with pytest.raises(InputError) as err:
        load_rule_table(path)
    assert ":1:" in str(err.value)


def test_load_suffix_rules(write_text):
    path = write_text(
        "rules.tsv", "# comment\nlar\tA3pl\n\nden\tAbl\n"
    )
    assert load_suffix_rules(path) == (("lar", "A3pl"), ("den", "Abl"))


def test_load_suffix_rules_ignores_byte_order_mark(write_text):
    path = write_text("rules.tsv", "\ufefflar\tA3pl\n")
    assert load_suffix_rules(path) == (("lar", "A3pl"),)


def test_load_suffix_rules_rejects(write_text):
    path = write_text("rules.tsv", "lar A3pl\n")
    with pytest.raises(InputError) as err:
        load_suffix_rules(path)
    assert ":1:" in str(err.value)


@pytest.mark.parametrize("surface", ["LAR", "Lar", "DA", "İn"])
def test_load_suffix_rules_refuses_upper_case(write_text, surface):
    # Rules match normalized surfaces, so this rule could never match.
    path = write_text("rules.tsv", f"ler\tA3pl\n{surface}\tX\n")
    with pytest.raises(InputError) as err:
        load_suffix_rules(path)
    assert str(err.value) == f"{path}:2: suffix {surface!r} is not lowercase"


def test_load_suffix_rules_keeps_edge_apostrophe(write_text):
    rules = load_suffix_rules(write_text("rules.tsv", "'da\tLoc\nlar\tA3pl\n"))
    assert rules == (("'da", "Loc"), ("lar", "A3pl"))
    table = AnalyzerRuleTable(suffix_rules=rules)
    assert analyze_token("İstanbul'da", table).root == "istanbul"
    assert analyze_token("kitaplar", table).root == "kitap"


def test_tokenize_wrapper():
    assert tokenize("Küba'da 47 gün!") == ["Küba'da", "47", "gün"]

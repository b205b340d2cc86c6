"""The five frozen records: RunConfig, Document, Dataset, MorphAnalysis and
AnalyzerRuleTable. Their repr, equality, hashing, copying, frozen fields,
construction and pattern matching are pinned here."""

import copy
import dataclasses
import pickle

import pytest

from fanlex.config import CountMode, Locale, RunConfig, TermSetMode
from fanlex.corpus import Dataset, Document, Label, Split
from fanlex.errors import DuplicateDocumentError
from fanlex.morph import DEFAULT_SUFFIX_RULES, AnalyzerRuleTable, MorphAnalysis

A = MorphAnalysis("evde", "ev", "Noun", ("Loc",))
A_REPR = "MorphAnalysis(raw='evde', root='ev', pos='Noun', suffixes=('Loc',))"
D = Document("a", "evde", Label.FAKE, analyses=(A,))
D_REPR = (
    "Document(id='a', text='evde', label=<Label.FAKE: 'FAKE'>, title=None, "
    f"source=None, analyses=({A_REPR},))"
)


def _records():
    """(record, an equal one built apart, one that differs, its repr)."""
    return [
        (
            RunConfig(),
            RunConfig(Locale.TURKISH),
            RunConfig(seed=1),
            "RunConfig(locale=<Locale.TURKISH: 'turkish'>, count_mode=<CountMode.TOKEN_FREQ: "
            "'TOKEN_FREQ'>, term_set_mode=<TermSetMode.DISTINCT: 'DISTINCT'>, smoothing=0.0, "
            "seed=0, include_title=True, display_scale=1.0)",
        ),
        (A, MorphAnalysis("evde", "ev", "Noun", ("Loc",)), MorphAnalysis("evde", "ev", "Noun"),
         A_REPR),
        (D, Document(id="a", text="evde", label=Label.FAKE, analyses=(A,)),
         Document("a", "evde", Label.VALID, analyses=(A,)), D_REPR),
        (
            Dataset((D,), Split.TEST),
            Dataset(documents=(D,), split=Split.TEST),
            Dataset((D,)),
            f"Dataset(documents=({D_REPR},), split=<Split.TEST: 'TEST'>)",
        ),
        (
            AnalyzerRuleTable({"evde": (A,)}, (("e", "Dat"), ("de", "Loc"))),
            AnalyzerRuleTable(entries={"evde": (A,)}, suffix_rules=(("de", "Loc"), ("e", "Dat"))),
            AnalyzerRuleTable({"evde": (A,)}),
            f"AnalyzerRuleTable(entries={{'evde': ({A_REPR},)}}, "
            "suffix_rules=(('de', 'Loc'), ('e', 'Dat')))",
        ),
    ]


@pytest.mark.parametrize("record,same,other,text", _records(), ids=lambda r: type(r).__name__)
def test_record_repr_equality_and_hash(record, same, other, text):
    assert repr(record) == text
    assert record == same and not record != same
    assert record != other
    # Equal field values of another type are not equal.
    assert record != tuple(getattr(record, name) for name in type(record).__match_args__)
    if isinstance(record, AnalyzerRuleTable):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)
        assert hash(record) == hash(tuple(getattr(record, n) for n in type(record).__match_args__))


@pytest.mark.parametrize("record,same,other,text", _records(), ids=lambda r: type(r).__name__)
def test_record_copies_are_equal(record, same, other, text):
    for copied in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(copied) is type(record)
        assert copied == record
        assert repr(copied) == text


def test_copied_rule_table_keeps_its_index():
    table = AnalyzerRuleTable(suffix_rules=(("ler", "A3pl"), ("de", "Loc")))
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert copied._by_last_char == table._by_last_char


@pytest.mark.parametrize("record,same,other,text", _records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_frozen(record, same, other, text):
    for name in type(record).__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, getattr(other, name))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert repr(record) == text


def test_records_take_their_fields_by_position_and_keyword():
    cfg = RunConfig(Locale.GENERIC, CountMode.DOC_PRESENCE, TermSetMode.MULTISET, 0.5, 7, False, 2.0)
    assert cfg == RunConfig(
        locale=Locale.GENERIC, count_mode=CountMode.DOC_PRESENCE,
        term_set_mode=TermSetMode.MULTISET, smoothing=0.5, seed=7, include_title=False,
        display_scale=2.0,
    )
    assert (cfg.smoothing, cfg.seed, cfg.display_scale) == (0.5, 7, 2.0)
    assert RunConfig().locale is Locale.TURKISH and RunConfig().include_title is True

    assert MorphAnalysis("ev", "ev", "Noun").suffixes == ()
    doc = Document("a", "metin", Label.VALID, "başlık", "kaynak", ())
    assert (doc.title, doc.source, doc.analyses) == ("başlık", "kaynak", ())
    assert Document("a", "metin", Label.VALID).title is None
    assert Document("a", "metin", Label.VALID).analyses is None
    assert Dataset((doc,)).split is Split.UNSPLIT

    table = AnalyzerRuleTable()
    assert table.entries == {} and table.suffix_rules == AnalyzerRuleTable(
        {}, DEFAULT_SUFFIX_RULES
    ).suffix_rules
    # Each table gets its own entries dict.
    assert AnalyzerRuleTable().entries is not table.entries
    with pytest.raises(TypeError):
        MorphAnalysis("ev", "ev")
    with pytest.raises(TypeError):
        Document("a", "metin", Label.VALID, colour="red")


def test_records_match_their_fields_by_position():
    assert RunConfig.__match_args__ == (
        "locale", "count_mode", "term_set_mode", "smoothing", "seed", "include_title",
        "display_scale",
    )
    assert Document.__match_args__ == ("id", "text", "label", "title", "source", "analyses")
    assert Dataset.__match_args__ == ("documents", "split")
    assert MorphAnalysis.__match_args__ == ("raw", "root", "pos", "suffixes")
    assert AnalyzerRuleTable.__match_args__ == ("entries", "suffix_rules")
    match A:
        case MorphAnalysis(raw, root, pos, suffixes):
            assert (raw, root, pos, suffixes) == ("evde", "ev", "Noun", ("Loc",))
        case _:
            pytest.fail("no match")
    match Dataset((D,), Split.TRAIN):
        case Dataset(documents, Split.TRAIN):
            assert documents == (D,)
        case _:
            pytest.fail("no match")


def test_replace_builds_a_checked_copy():
    assert A._replace(raw="evdeki") == MorphAnalysis("evdeki", "ev", "Noun", ("Loc",))
    assert A._replace() == A and A._replace() is not A
    assert D._replace(id="b", title="t") == Document("b", "evde", Label.FAKE, "t", None, (A,))
    assert RunConfig()._replace(seed=3) == RunConfig(seed=3)
    ds = Dataset((D,))
    assert ds._replace(split=Split.TEST) == Dataset((D,), Split.TEST)
    # A table copy keeps the entries dict and indexes its new rules.
    table = AnalyzerRuleTable({"evde": (A,)})
    copied = table._replace(suffix_rules=(("e", "Dat"), ("de", "Loc")))
    assert copied.entries is table.entries
    assert copied.suffix_rules == (("de", "Loc"), ("e", "Dat"))
    assert copied._by_last_char == {"e": [("de", "Loc"), ("e", "Dat")]}
    # The copy is checked as a new record is.
    with pytest.raises(ValueError):
        A._replace(root="")
    with pytest.raises(TypeError):
        RunConfig()._replace(seed=1.5)
    with pytest.raises(DuplicateDocumentError):
        ds._replace(documents=(D, D))
    with pytest.raises(TypeError):
        A._replace(colour="red")

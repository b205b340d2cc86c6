import json
import os
import random
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fanlex.corpus
from fanlex._kernels import normalized_tokens
from fanlex.config import RunConfig
from fanlex.corpus import (
    DEFAULT_ABBREVIATIONS,
    Dataset,
    Document,
    Label,
    Split,
    _BOUNDARY,
    _dictionary_words,
    _entry_words,
    _read_word_list,
    corpus_stats,
    document_to_json,
    iter_corpus,
    load_corpus,
    load_word_list,
    save_corpus,
    split_sentences,
    stratified_folds,
    verify_stats,
    verify_stats_by_group,
    write_atomic,
)
from fanlex.errors import (
    CorpusParseError,
    DomainError,
    DuplicateDocumentError,
    FoldSizeError,
    NoSentencesError,
)
from fanlex.morph import Locale, analysis_from_json
from synth import analyzed_corpus


def test_load_corpus_happy(write_text):
    lines = [
        json.dumps(
            {
                "id": "n1",
                "title": "Başlık",
                "text": "Gövde metni.",
                "label": "FAKE",
                "source": "zaytung",
            },
            ensure_ascii=False,
        ),
        "",
        json.dumps(
            {
                "id": "n2",
                "text": "Diğer metin.",
                "label": "VALID",
                "analyses": [
                    {"raw": "diğer", "root": "diğer", "pos": "Adj"},
                    {"raw": "metin", "root": "metin", "pos": "Noun", "suffixes": []},
                ],
            },
            ensure_ascii=False,
        ),
    ]
    path = write_text("corpus.jsonl", "\n".join(lines) + "\n")
    ds = load_corpus(path)
    assert len(ds) == 2
    assert ds.split is Split.UNSPLIT
    first, second = ds.documents
    assert first.label is Label.FAKE
    assert first.source == "zaytung"
    assert first.analyses is None
    assert second.title is None
    assert second.analyses is not None
    assert second.analyses[1].root == "metin"


@pytest.mark.parametrize(
    "row,needle",
    [
        ("[1,2]", "expected a JSON object"),
        ('{"id":"a","text":"x","label":"FAKE","bogus":1}', "unknown fields"),
        ('{"text":"x","label":"FAKE"}', "missing required field 'id'"),
        ('{"id":"a","label":"FAKE"}', "missing required field 'text'"),
        ('{"id":"a","text":"x"}', "missing required field 'label'"),
        ('{"id":"","text":"x","label":"FAKE"}', "non-empty"),
        ('{"id":"a","text":"x","label":"real"}', "'label' must be"),
        ('{"id":"a","text":"x","label":"FAKE","title":3}', "'title' must be a string"),
        ('{"id":"a","text":"x","label":"FAKE","analyses":{}}', "must be a list"),
        (
            '{"id":"a","text":"x","label":"FAKE","analyses":[{"raw":"x","root":"x"}]}',
            "needs string 'pos'",
        ),
        (
            '{"id":"a","text":"x","label":"FAKE","analyses":[{"raw":"x","root":"x","pos":"N","extra":1}]}',
            "unknown fields",
        ),
        (
            '{"id":"a","text":"x","label":"FAKE","analyses":[{"raw":"x","root":"","pos":"N"}]}',
            "root must be non-empty",
        ),
    ],
)
def test_load_corpus_rejects(write_text, row, needle):
    path = write_text("bad.jsonl", row + "\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(path)
    msg = str(err.value)
    assert ":1:" in msg
    assert needle in msg


def test_load_corpus_bad_json_names_line(write_text):
    path = write_text(
        "bad.jsonl", '{"id":"a","text":"x","label":"FAKE"}\n{oops\n'
    )
    with pytest.raises(CorpusParseError) as err:
        load_corpus(path)
    assert ":2:" in str(err.value)


def test_load_corpus_duplicate_id(write_text):
    line = '{"id":"a","text":"x","label":"FAKE"}'
    path = write_text("dup.jsonl", line + "\n" + line + "\n")
    with pytest.raises(DuplicateDocumentError) as err:
        load_corpus(path)
    msg = str(err.value)
    assert ":2:" in msg
    assert "first seen on line 1" in msg


def _reference_load(path):
    """load_corpus for documents that are valid apart from their analyses,
    validating every analysis item on its own."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            obj = json.loads(line)
            analyses = []
            for i, item in enumerate(obj["analyses"]):
                try:
                    analyses.append(analysis_from_json(item))
                except ValueError as exc:
                    raise CorpusParseError(f"{path}:{lineno}: analysis {i}: {exc}") from exc
            docs.append(
                Document(id=obj["id"], text=obj["text"], label=Label(obj["label"]),
                         analyses=tuple(analyses))
            )
    return tuple(docs)


def _twins(a):
    """Near copies of a valid analysis that an intern key must tell apart."""
    tags = a["suffixes"]
    return [
        {**a, "extra": "x"},
        {**a, "suffixes": "".join(tags)},
        {k: a[k] for k in ("raw", "root", "pos")},
        {**a, "suffixes": [*tags, 1]},
        {**a, "suffixes": [*tags, ["A"]]},
        {**a, "suffixes": [*tags, ""]},
        {**a, "root": True},
        {**a, "root": 1},
        {**a, "pos": False},
        {**a, "pos": 0.5},
        {**a, "raw": ""},
        {**{k: a[k] for k in ("raw", "root", "pos")}, "suffix": tags},
        {"raw": a["raw"], "root": a["root"], "tag": a["pos"], "suffixes": tags},
    ]


valid_analyses = st.fixed_dictionaries(
    {
        "raw": st.sampled_from(["ev", "evde"]),
        "root": st.just("ev"),
        "pos": st.sampled_from(["Noun", "Verb"]),
        # Single-letter tags make a joined string suffixes splat back
        # into the list it came from.
        "suffixes": st.lists(st.sampled_from(["A", "B", "Loc"]), max_size=3),
    }
)


@st.composite
def analysis_rows(draw):
    """A valid analysis followed by some of its mutated twins."""
    a = draw(valid_analyses)
    return [a, *draw(st.lists(st.sampled_from(_twins(a)), max_size=4))]


@given(rows=st.lists(analysis_rows(), min_size=1, max_size=4))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_load_corpus_matches_per_item_validation(write_text, rows):
    lines = [
        json.dumps({"id": f"d{n}", "text": "x", "label": "FAKE", "analyses": row})
        for n, row in enumerate(rows)
    ]
    path = write_text("twins.jsonl", "\n".join(lines) + "\n")

    def outcome(load):
        try:
            return load(path)
        except CorpusParseError as exc:
            return type(exc), str(exc)

    got = outcome(load_corpus)
    assert (got.documents if isinstance(got, Dataset) else got) == outcome(_reference_load)


def _analyzed_lines(rows):
    return "".join(
        json.dumps({"id": f"d{n}", "text": "x", "label": "FAKE", "analyses": row}) + "\n"
        for n, row in enumerate(rows)
    )


@given(
    first=st.lists(analysis_rows(), max_size=3),
    second=st.lists(analysis_rows(), max_size=3),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_shared_intern_table_matches_per_file_loads(write_text, first, second):
    """Two files read into one intern table give the documents, or the
    first error, of two plain reads, with one object per distinct
    analysis across both files."""
    paths = [write_text("first.jsonl", _analyzed_lines(first)),
             write_text("second.jsonl", _analyzed_lines(second))]

    def outcome(read):
        try:
            return [tuple(read(path)) for path in paths]
        except CorpusParseError as exc:
            return type(exc), str(exc)

    interned: dict = {}
    shared = outcome(lambda path: iter_corpus(path, interned=interned))
    assert shared == outcome(iter_corpus)
    if isinstance(shared, list):
        analyses = [a for docs in shared for doc in docs for a in doc.analyses]
        assert len({id(a) for a in analyses}) == len(set(analyses))


def test_equal_analyses_share_one_object_per_load(write_text):
    loc = {"raw": "evde", "root": "ev", "pos": "Noun", "suffixes": ["Loc"]}
    bare = {"raw": "ev", "root": "ev", "pos": "Noun"}
    rows = [[loc, bare], [{**bare, "suffixes": []}, loc]]
    path = write_text(
        "shared.jsonl",
        "".join(
            json.dumps({"id": f"d{n}", "text": "x", "label": "FAKE", "analyses": row}) + "\n"
            for n, row in enumerate(rows)
        ),
    )
    first, second = load_corpus(path), load_corpus(path)
    (a, b), (c, d) = (doc.analyses for doc in first.documents)
    assert a is d and b is c
    assert a != b
    ours = {id(x) for doc in first.documents for x in doc.analyses}
    theirs = {id(x) for doc in second.documents for x in doc.analyses}
    assert not ours & theirs


def test_records_are_slotted():
    """Document and MorphAnalysis hold no __dict__ and take no new
    attribute, but _replace still copies them."""
    analysis = analysis_from_json({"raw": "evde", "root": "ev", "pos": "Noun"})
    doc = Document(id="a", text="evde", label=Label.FAKE, analyses=(analysis,))
    for record in (doc, analysis):
        assert not hasattr(record, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(record, "extra", 1)
    assert doc._replace(id="b") == Document(id="b", text="evde", label=Label.FAKE,
                                            analyses=(analysis,))
    assert analysis._replace(suffixes=("Loc",)).suffixes == ("Loc",)


def test_document_json_key_order():
    doc = Document(
        id="a",
        text="metin",
        label=Label.VALID,
        title="başlık",
        source="aa",
        analyses=(),
    )
    assert document_to_json(doc) == (
        '{"id":"a","title":"başlık","text":"metin","label":"VALID",'
        '"source":"aa","analyses":[]}'
    )
    bare = Document(id="b", text="x", label=Label.FAKE)
    assert document_to_json(bare) == '{"id":"b","text":"x","label":"FAKE"}'


def test_corpus_round_trip_bytes(tmp_path):
    rng = random.Random(7)
    ds = analyzed_corpus(rng, 5, 5)
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    save_corpus(ds, str(first))
    loaded = load_corpus(str(first))
    assert loaded.documents == ds.documents
    save_corpus(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_dataset_rejects_duplicate_ids():
    doc = Document(id="a", text="x", label=Label.FAKE)
    with pytest.raises(DuplicateDocumentError):
        Dataset((doc, doc))


def _ids(ds):
    return {doc.id for doc in ds.documents}


def test_dataset_filter_preserves_order():
    docs = tuple(
        Document(id=f"d{i}", text="x", label=Label.FAKE if i % 2 else Label.VALID)
        for i in range(6)
    )
    ds = Dataset(docs, Split.TRAIN)
    fakes = ds.filter(Label.FAKE)
    assert [d.id for d in fakes.documents] == ["d1", "d3", "d5"]
    assert fakes.split is Split.TRAIN
    assert _ids(ds) == {f"d{i}" for i in range(6)}


def test_split_sentences_basic():
    assert split_sentences("Ali geldi. Gitti.") == ["Ali geldi.", "Gitti."]
    assert split_sentences("Ne?! Olamaz… Evet!") == ["Ne?!", "Olamaz…", "Evet!"]
    assert split_sentences("Terminal yok") == ["Terminal yok"]
    assert split_sentences("") == []
    assert split_sentences("   ") == []


def test_split_sentences_abbreviations():
    assert split_sentences("Dr. Ali geldi.") == ["Dr. Ali geldi."]
    assert split_sentences("Bkz. sayfa 3. Sonra gel.") == [
        "Bkz. sayfa 3.",
        "Sonra gel.",
    ]
    # A custom abbreviation set replaces the default one.
    assert split_sentences("Dr. Ali geldi.", abbreviations=frozenset()) == [
        "Dr.",
        "Ali geldi.",
    ]
    # Only a single period defers to the abbreviation list.
    assert split_sentences("Dr.. Ali geldi.") == ["Dr..", "Ali geldi."]


def _split_sentences_full_probe(text, abbreviations=DEFAULT_ABBREVIATIONS):
    """split_sentences with its first abbreviation probe: the whole
    sentence prefix split into words, of which the last is compared."""
    sentences = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        if match.group() == ".":
            before = text[start : match.start()].split()
            if before and before[-1].lower() in abbreviations:
                continue
        piece = text[start : match.end()].strip()
        if piece:
            sentences.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# Words that are abbreviations in any case, other words, terminal runs
# and whitespace that str.split() splits at, ASCII or not.
_sentence_parts = st.sampled_from(
    ["Dr", "prof", "PROF", "Doç", "vs", "no", "Ali", "geldi", "3", "İ", "ş",
     ".", ".", "..", "!", "?", "…", "?!", " ", " ", "  ", "\t", "\n", "\u00a0",
     "\u2028", "\u3000", "\x1c"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_sentence_parts, max_size=30).map("".join))
def test_split_sentences_probes_only_the_last_word(text):
    assert split_sentences(text) == _split_sentences_full_probe(text)
    custom = frozenset({"ali", "geldi"})
    assert split_sentences(text, custom) == _split_sentences_full_probe(text, custom)


def test_split_sentences_mid_token_periods():
    # No whitespace after the run, so no boundary.
    assert split_sentences("Saat 3.5 oldu.") == ["Saat 3.5 oldu."]


def test_corpus_stats_means():
    docs = (
        Document(id="a", text="Bir iki üç. Dört.", label=Label.FAKE),
        Document(id="b", text="Beş altı.", label=Label.VALID),
    )
    stats = corpus_stats(Dataset(docs))
    assert stats.doc_count_by_label == {Label.FAKE: 1, Label.VALID: 1}
    assert stats.mean_tokens_per_doc == 3.0
    assert stats.mean_sentences_per_doc == 1.5
    assert stats.token_total == 6


def test_corpus_stats_counts_title():
    doc = Document(id="a", title="Başlık bir", text="Gövde.", label=Label.FAKE)
    with_title = corpus_stats(Dataset((doc,)))
    without = corpus_stats(Dataset((doc,)), RunConfig(include_title=False))
    assert with_title.token_total == 3
    assert with_title.mean_sentences_per_doc == 2.0
    assert without.token_total == 1
    assert without.mean_sentences_per_doc == 1.0


def test_corpus_stats_empty():
    stats = corpus_stats(Dataset(()))
    assert stats.mean_tokens_per_doc == 0.0
    assert stats.token_total == 0


def test_load_word_list(write_text):
    path = write_text(
        "words.txt", "# sözlük\nKÜBA\nküba\n\nçok  fena\nİyi\n"
    )
    assert load_word_list(path) == ["küba", "çok fena", "iyi"]


def test_load_word_list_ignores_byte_order_mark(write_text):
    # Read with the mark, the comment line would become the entry "comment".
    path = write_text("words.txt", "\ufeff# comment\nkitap\n")
    assert load_word_list(path) == ["kitap"]


def test_load_word_list_reads_a_pipe(tmp_path):
    fifo = tmp_path / "words.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_bytes, args=("\ufeffkitap\n".encode(),), daemon=True
    )
    writer.start()
    assert load_word_list(str(fifo)) == ["kitap"]
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_verify_stats_slang_and_phrases():
    docs = (
        Document(id="a", text="Bu çok fena lan. Bu iyi.", label=Label.FAKE),
        Document(id="b", text="Ccok fenna 47.", label=Label.VALID),
    )
    report = verify_stats(
        Dataset(docs),
        slang=["lan", "çok fena"],
        dictionary=["bu", "çok", "fena", "iyi"],
    )
    assert report.slang_per_sentence == pytest.approx(2 / 3)
    assert report.misspelling_per_sentence == pytest.approx(2 / 3)


def test_verify_stats_ratio_example():
    docs = (Document(id="a", text="Bu lan iyi. Bu iyi.", label=Label.FAKE),)
    report = verify_stats(Dataset(docs), slang=["lan"], dictionary=["bu", "iyi"])
    assert report.slang_per_sentence == 0.5
    assert report.misspelling_per_sentence == 0.0


def test_verify_stats_greedy_overlap():
    # The phrase match consumes its tokens, so "fena" cannot also count
    # as a misspelling afterwards.
    docs = (Document(id="a", text="çok fena çok", label=Label.FAKE),)
    report = verify_stats(Dataset(docs), slang=["çok fena"], dictionary=["çok"])
    assert report.slang_per_sentence == 1.0
    assert report.misspelling_per_sentence == 0.0


def test_verify_stats_guards():
    docs = (Document(id="a", text="Bu iyi.", label=Label.FAKE),)
    with pytest.raises(DomainError):
        verify_stats(Dataset(docs), slang=[], dictionary=["bu"])
    with pytest.raises(DomainError):
        verify_stats(Dataset(docs), slang=["lan"], dictionary=[])
    # Entries that normalize to nothing leave a list empty, as written
    # or from load_word_list.
    with pytest.raises(DomainError, match="^slang list is empty$"):
        verify_stats(Dataset(docs), slang=["!!!", " ... "], dictionary=["bu"])
    with pytest.raises(DomainError, match="^dictionary is empty$"):
        verify_stats(Dataset(docs), slang=["lan"], dictionary=["!!!", "—"])
    empty = (Document(id="a", text="   ", label=Label.FAKE),)
    with pytest.raises(NoSentencesError):
        verify_stats(Dataset(empty), slang=["lan"], dictionary=["bu"])


def test_verify_stats_refuses_a_bare_str_word_list():
    """A str is no list of entries: matched a character at a time, "lan" as
    slang and "bu" as dictionary gave no slang and two misspellings."""
    ds = Dataset((Document(id="a", text="lan bu", label=Label.FAKE),))
    with pytest.raises(TypeError, match="^slang must be"):
        verify_stats(ds, slang="lan", dictionary="bu")
    with pytest.raises(TypeError, match="^dictionary must be"):
        verify_stats(ds, slang=["lan"], dictionary="bu")
    with pytest.raises(TypeError, match="^slang must be"):
        verify_stats_by_group(ds, "lan", ["bu"], lambda doc: None)
    report = verify_stats(ds, slang=["lan"], dictionary=["bu"])
    assert (report.slang_per_sentence, report.misspelling_per_sentence) == (1.0, 0.0)


# Lines of a word list: comments, blank lines, words that normalize to
# nothing, Turkish and Greek capitals, edge punctuation, and phrases with
# runs of spaces around and between their words.
_LIST_WORDS = ["lan", "LAN", "«lan»", "çok", "ÇOK", "fena!", "İyi", "IRAK", "ırak",
               "ΣΟΣ", "σος", "Dr.", "!!!", "—", "47"]
_list_lines = st.one_of(
    st.sampled_from(["", "   ", "\t", "# yorum", "  # lan", "#lan"]),
    st.tuples(
        st.lists(st.sampled_from(_LIST_WORDS), min_size=1, max_size=3),
        st.sampled_from([" ", "  ", " \t "]),
        st.sampled_from(["", "  ", "\t"]),
    ).map(lambda x: x[2] + x[1].join(x[0]) + x[2]),
)
_word_list_files = st.tuples(
    st.booleans(), st.lists(_list_lines, min_size=1, max_size=8)
).map(lambda x: "\ufeff" * x[0] + "\n".join(x[1]) + "\n")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    slang_text=_word_list_files,
    dict_text=_word_list_files,
    texts=st.lists(st.lists(st.sampled_from(_LIST_WORDS + ["."]), max_size=10), max_size=4),
    locale=st.sampled_from(Locale),
)
def test_verify_stats_takes_entries_as_written_or_loaded(
    write_text, slang_text, dict_text, texts, locale
):
    slang = write_text("slang.txt", slang_text)
    words = write_text("dict.txt", dict_text)
    docs = tuple(
        Document(id=f"d{i}", text=" ".join(t), label=Label.FAKE, source=str(i % 2))
        for i, t in enumerate(texts)
    )

    def outcome(slang_entries, dict_entries):
        try:
            return verify_stats_by_group(
                Dataset(docs), slang_entries, dict_entries, _source_label, RunConfig(locale=locale)
            )
        except DomainError as exc:  # NoSentencesError included
            return type(exc), str(exc)

    as_written = outcome(_read_word_list(slang), _read_word_list(words))
    loaded = outcome(load_word_list(slang, locale), load_word_list(words, locale))
    assert as_written == loaded


def _reference_counts(tokens, slang, dictionary):
    """Slang hits and misspellings in normalized tokens, by a plain scan:
    at each token the longest slang phrase (a tuple of words) that starts
    there matches and consumes its tokens; an unmatched token is
    misspelled unless it is in the dictionary or all digits."""
    hits = missed = i = 0
    while i < len(tokens):
        match = max((p for p in slang if tuple(tokens[i : i + len(p)]) == p), key=len, default=())
        if match:
            hits += 1
            i += len(match)
        else:
            missed += tokens[i] not in dictionary and not tokens[i].isdigit()
            i += 1
    return hits, missed


# Words with no terminal punctuation, so that a text is one sentence and
# its rates are its counts; some differ only in case or in the Turkish I.
_MATCH_WORDS = ["lan", "«LAN»", "çok", "Çok", "fena", "iyi", "bu", "IRAK", "ırak", "irak", "47"]


@settings(max_examples=200, deadline=None)
@given(
    phrases=st.lists(
        st.tuples(st.lists(st.sampled_from(_MATCH_WORDS), min_size=1, max_size=3), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    dictionary=st.lists(st.sampled_from(_MATCH_WORDS), min_size=1, max_size=4),
    texts=st.lists(
        st.lists(st.sampled_from(_MATCH_WORDS), min_size=1, max_size=12), min_size=1, max_size=4
    ),
    locale=st.sampled_from(Locale),
)
def test_verify_counts_match_a_longest_first_scan(phrases, dictionary, texts, locale):
    """verify_stats_by_group counts as _reference_counts does, also when a
    one-word slang entry is the first word of a longer one."""
    turkish = locale is Locale.TURKISH
    slang = [" ".join(words) for words, _ in phrases]
    slang += [words[0] for words, first_too in phrases if first_too]
    docs = [Document(id=f"d{i}", text=" ".join(t), label=Label.FAKE) for i, t in enumerate(texts)]
    _, groups = verify_stats_by_group(
        docs, slang, dictionary, lambda doc: doc.id, RunConfig(locale=locale)
    )
    reference_slang = {tuple(_entry_words(e, turkish)) for e in slang}
    reference_dictionary = {w for e in dictionary for w in _entry_words(e, turkish)}
    for doc in docs:
        tokens = normalized_tokens(doc.text, turkish)
        assert groups[doc.id] == _reference_counts(tokens, reference_slang, reference_dictionary)


# Entries for the dictionary blocks: sigma, the Turkish and combining-dot
# i's, words that are not alphanumeric or normalize to nothing, and any
# text at all, whitespace and line breaks included.
_BLOCK_ENTRIES = st.lists(
    st.one_of(
        st.sampled_from(_LIST_WORDS + ["küba'da", "aİ", "İ'da", "i\u0307", "«IŞIK»", "#"]),
        st.text(st.sampled_from("ΣσİIıi\u0307aZ9'-.#« \t\n\r\x85\u2028")),
        st.text(max_size=6),
    ),
    max_size=12,
)


@given(
    entries=_BLOCK_ENTRIES,
    turkish=st.booleans(),
    cut=st.integers(0, 12),
    block=st.sampled_from([1, 7, 1 << 14]),
)
@settings(max_examples=400, deadline=None)
def test_dictionary_block_words_are_the_entry_words(entries, turkish, cut, block):
    """The block route gives the union of _entry_words over the entries,
    given one by one or joined into blocks, one entry per line, whatever
    the block size."""
    expected = {w for entry in entries for w in _entry_words(entry, turkish)}
    joined = ["\n".join(entries[:cut]), "\n".join(entries[cut:])]
    with mock.patch.object(fanlex.corpus, "_BLOCK", block):
        assert _dictionary_words(entries, turkish) == expected
        assert _dictionary_words(joined, turkish) == expected


SLANG = ["lan", "çok fena"]
DICTIONARY = ["bu", "çok", "fena", "iyi"]


def _source_label(doc):
    return (doc.source or "(none)", doc.label.value)


def _per_subset(ds, key, **kwargs):
    """verify_stats on each group's own dataset, skipping sentenceless ones."""
    expected = {}
    for group in {key(doc) for doc in ds.documents}:
        subset = Dataset(tuple(doc for doc in ds.documents if key(doc) == group))
        try:
            expected[group] = verify_stats(subset, SLANG, DICTIONARY, **kwargs)
        except NoSentencesError:
            pass
    return expected


def test_verify_stats_by_group_equals_per_group_verify_stats():
    docs = (
        Document(id="a", text="Bu çok fena lan. Bu iyi.", label=Label.FAKE, source="x"),
        Document(id="b", text="Ccok fenna 47.", label=Label.VALID, source="y"),
        Document(id="c", text="", label=Label.FAKE, source="z"),
        Document(id="d", text="lan iyi", label=Label.FAKE, source="x", title="Bu"),
        Document(id="e", text="İyi mi? Çok fena!", label=Label.VALID),
    )
    ds = Dataset(docs)
    overall, groups = verify_stats_by_group(ds, SLANG, DICTIONARY, _source_label)
    assert overall == verify_stats(ds, SLANG, DICTIONARY)
    assert groups == _per_subset(ds, _source_label)
    assert ("z", "FAKE") not in groups
    assert list(groups) == [("x", "FAKE"), ("y", "VALID"), ("(none)", "VALID")]


_WORDS = ["bu", "Çok", "fena", "lan", "iyi", "ccok", "47", "Dr.", "x.", "!", "...", "?"]
_verify_docs = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_WORDS), max_size=8),
        st.one_of(st.none(), st.lists(st.sampled_from(_WORDS), max_size=3)),
        st.sampled_from(Label),
        st.sampled_from([None, "x", "y"]),
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(
    rows=_verify_docs,
    include_title=st.booleans(),
    locale=st.sampled_from(Locale),
)
def test_verify_stats_by_group_is_exact(rows, include_title, locale):
    docs = tuple(
        Document(
            id=f"d{i}",
            text=" ".join(words),
            label=label,
            title=None if title is None else " ".join(title),
            source=source,
        )
        for i, (words, title, label, source) in enumerate(rows)
    )
    ds = Dataset(docs)
    kwargs = {"locale": locale, "include_title": include_title}
    try:
        expected_overall = verify_stats(ds, SLANG, DICTIONARY, **kwargs)
    except NoSentencesError:
        with pytest.raises(NoSentencesError):
            verify_stats_by_group(ds, SLANG, DICTIONARY, _source_label, RunConfig(**kwargs))
        return
    overall, groups = verify_stats_by_group(
        ds, SLANG, DICTIONARY, _source_label, RunConfig(**kwargs)
    )
    assert overall == expected_overall
    assert groups == _per_subset(ds, _source_label, **kwargs)


def test_verify_stats_by_group_without_sentences():
    docs = (
        Document(id="a", text="", label=Label.FAKE, source="x"),
        Document(id="b", text="  ", label=Label.VALID, title="", source="y"),
    )
    with pytest.raises(NoSentencesError):
        verify_stats_by_group(Dataset(docs), SLANG, DICTIONARY, _source_label)


def test_write_atomic_failure_keeps_old_bytes(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError):
        write_atomic({str(target): lambda fh: fh.writelines(chunks())})
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    write_atomic({str(target): lambda fh: fh.writelines(["ne", "w\n"])})
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_replaces_nothing_when_a_later_target_fails(tmp_path):
    first = tmp_path / "first.txt"
    first.write_bytes(b"old\n")
    second = tmp_path / "missing" / "second.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_atomic({str(first): lambda fh: fh.write("new\n"),
                      str(second): lambda fh: fh.write("new\n")})
    assert info.value.filename == str(second)
    assert first.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["first.txt"]


def test_stratified_folds_partition():
    rng = random.Random(3)
    ds = analyzed_corpus(rng, 13, 9)
    folds = stratified_folds(ds, 4, seed=11)
    assert len(folds) == 4
    all_test_ids = []
    for train, test in folds:
        assert train.split is Split.TRAIN
        assert test.split is Split.TEST
        assert _ids(train) | _ids(test) == _ids(ds)
        assert not _ids(train) & _ids(test)
        fake = len(test.filter(Label.FAKE))
        valid = len(test.filter(Label.VALID))
        assert fake in (13 // 4, 13 // 4 + 1)
        assert valid in (9 // 4, 9 // 4 + 1)
        all_test_ids.extend(sorted(_ids(test)))
        # Original document order is preserved inside each piece.
        order = {doc.id: i for i, doc in enumerate(ds.documents)}
        assert [order[d.id] for d in test.documents] == sorted(
            order[d.id] for d in test.documents
        )
    assert len(all_test_ids) == len(ds)
    assert set(all_test_ids) == _ids(ds)


def test_stratified_folds_deterministic():
    rng = random.Random(5)
    ds = analyzed_corpus(rng, 20, 20)
    one = stratified_folds(ds, 5, seed=42)
    two = stratified_folds(ds, 5, seed=42)
    assert [
        ([d.id for d in tr.documents], [d.id for d in te.documents]) for tr, te in one
    ] == [
        ([d.id for d in tr.documents], [d.id for d in te.documents]) for tr, te in two
    ]
    other = stratified_folds(ds, 5, seed=43)
    assert [sorted(_ids(te)) for _, te in one] != [sorted(_ids(te)) for _, te in other]


def test_stratified_folds_rejects():
    rng = random.Random(1)
    ds = analyzed_corpus(rng, 3, 8)
    with pytest.raises(FoldSizeError):
        stratified_folds(ds, 1, seed=0)
    with pytest.raises(FoldSizeError) as err:
        stratified_folds(ds, 4, seed=0)
    assert "FAKE" in str(err.value)


@given(n_fake=st.integers(2, 15), n_valid=st.integers(2, 15), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_stratified_folds_property(n_fake, n_valid, seed):
    rng = random.Random(seed)
    ds = analyzed_corpus(rng, n_fake, n_valid, prefix=f"p{seed}")
    k = 2
    for train, test in stratified_folds(ds, k, seed=seed):
        assert _ids(train) | _ids(test) == _ids(ds)
        assert not _ids(train) & _ids(test)
        for label, total in ((Label.FAKE, n_fake), (Label.VALID, n_valid)):
            got = len(test.filter(label))
            assert abs(got - total / k) <= 0.5 + 1e-9

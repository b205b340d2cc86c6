"""Labeled document corpora: loading, statistics, verification, folds.

Documents live in JSONL files, one JSON object per line with fields
id, optional title, text, label (FAKE or VALID), optional source and
optional pre-computed analyses. Datasets are immutable after load.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from fanlex._kernels import _lower, normalize_token, normalized_tokens
from fanlex.config import FrozenRecord, Locale, RunConfig, _set
from fanlex.errors import (
    CorpusParseError,
    DomainError,
    DuplicateDocumentError,
    FoldSizeError,
    InputError,
    NoSentencesError,
    open_text,
    parse_json,
)
from fanlex.morph import (
    TERMINALS,
    MorphAnalysis,
    _turkish,
    analysis_from_json,
    compose_text,
    tokenize,
)


class Label(Enum):
    FAKE = "FAKE"
    VALID = "VALID"


class Split(Enum):
    TRAIN = "TRAIN"
    TEST = "TEST"
    UNSPLIT = "UNSPLIT"


# Words that end with a period without ending a sentence. Compared
# lowercase against the word left of a single period.
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "dr",
        "prof",
        "doç",
        "av",
        "alb",
        "gen",
        "say",
        "no",
        "tel",
        "st",
        "sk",
        "mah",
        "cad",
        "apt",
        "bkz",
        "vb",
        "vs",
        "örn",
        "yy",
    }
)

_BOUNDARY = re.compile(rf"[{re.escape(TERMINALS)}]+(?=\s|$)")


class Document(FrozenRecord):
    """One news item with a gold label.

    Documents read by one iter_corpus call, or by calls given one
    interned dict, share one frozen MorphAnalysis per distinct analysis.
    """

    __slots__ = __match_args__ = ("id", "text", "label", "title", "source", "analyses")

    def __init__(self, id: str, text: str, label: Label, title: str | None = None,
                 source: str | None = None,
                 analyses: tuple[MorphAnalysis, ...] | None = None) -> None:
        _set(self, "id", id)
        _set(self, "text", text)
        _set(self, "label", label)
        _set(self, "title", title)
        _set(self, "source", source)
        _set(self, "analyses", analyses)


class Dataset(FrozenRecord):
    """An ordered, id-unique collection of documents."""

    __slots__ = __match_args__ = ("documents", "split")

    def __init__(self, documents: tuple[Document, ...], split: Split = Split.UNSPLIT) -> None:
        seen: set[str] = set()
        for doc in documents:
            if doc.id in seen:
                raise DuplicateDocumentError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        _set(self, "documents", documents)
        _set(self, "split", split)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def filter(self, label: Label) -> "Dataset":
        """Documents carrying the given label, order preserved."""
        return Dataset(
            tuple(doc for doc in self.documents if doc.label is label), self.split
        )


class CorpusStats(NamedTuple):
    doc_count_by_label: dict[Label, int]
    mean_tokens_per_doc: float
    mean_sentences_per_doc: float
    token_total: int


class VerificationReport(NamedTuple):
    """Per-sentence slang and misspelling rates over a dataset."""

    slang_per_sentence: float
    misspelling_per_sentence: float


_DOCUMENT_KEYS = {"id", "title", "text", "label", "source", "analyses"}


def _parse_analyses(
    listed: object, where: str, interned: dict[tuple, MorphAnalysis]
) -> tuple[MorphAnalysis, ...]:
    """Validated analyses, one shared object per distinct analysis in interned.

    An item gets a key only when its fields are raw, root, pos and,
    optionally, a list suffixes. A key is stored only after
    analysis_from_json has validated its item, so stored keys hold only
    strings, and no other JSON value equals a string: an item that would
    fail validation never hits.
    """
    if not isinstance(listed, list):
        raise CorpusParseError(f"{where}: 'analyses' must be a list")
    out = []
    for i, item in enumerate(listed):
        key = None
        try:
            if len(item) == 3 or len(item) == 4 and type(item["suffixes"]) is list:
                key = (item["raw"], item["root"], item["pos"], *item.get("suffixes", ()))
                hit = interned.get(key)
                if hit is not None:
                    out.append(hit)
                    continue
        except (KeyError, TypeError):  # another shape, or an unhashable value
            key = None
        try:
            analysis = analysis_from_json(item)
        except ValueError as exc:
            raise CorpusParseError(f"{where}: analysis {i}: {exc}") from exc
        if key is not None:
            interned[key] = analysis
        out.append(analysis)
    return tuple(out)


def _parse_document(
    obj: object, where: str, interned: dict[tuple, MorphAnalysis]
) -> Document:
    if not isinstance(obj, dict):
        raise CorpusParseError(f"{where}: expected a JSON object")
    extra = set(obj) - _DOCUMENT_KEYS
    if extra:
        raise CorpusParseError(f"{where}: unknown fields {sorted(extra)}")
    for key in ("id", "text", "label"):
        if key not in obj:
            raise CorpusParseError(f"{where}: missing required field {key!r}")
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise CorpusParseError(f"{where}: 'id' must be a non-empty string")
    if not isinstance(obj["text"], str):
        raise CorpusParseError(f"{where}: 'text' must be a string")
    try:
        label = Label(obj["label"])
    except ValueError:
        raise CorpusParseError(
            f"{where}: 'label' must be 'FAKE' or 'VALID', got {obj['label']!r}"
        ) from None
    for key in ("title", "source"):
        if key in obj and not isinstance(obj[key], str):
            raise CorpusParseError(f"{where}: {key!r} must be a string")
    analyses = None
    if "analyses" in obj:
        analyses = _parse_analyses(obj["analyses"], where, interned)
    return Document(
        id=obj["id"],
        text=obj["text"],
        label=label,
        title=obj.get("title"),
        source=obj.get("source"),
        analyses=analyses,
    )


def iter_corpus(
    path: str, *, interned: dict[tuple, MorphAnalysis] | None = None
) -> Iterator[Document]:
    """A JSONL corpus's documents, validated, as they are read; errors name the
    file and line, and a line of JSON whitespace alone is skipped. Equal analyses
    are one frozen MorphAnalysis within a read, or across reads given one interned dict."""
    seen: dict[str, int] = {}
    interned = {} if interned is None else interned
    with open_text(path, CorpusParseError) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip(" \t\n\r"):
                continue
            obj = parse_json(line, CorpusParseError, path, lineno)
            doc = _parse_document(obj, f"{path}:{lineno}", interned)
            if doc.id in seen:
                raise DuplicateDocumentError(
                    f"{path}:{lineno}: duplicate document id {doc.id!r} "
                    f"(first seen on line {seen[doc.id]})"
                )
            seen[doc.id] = lineno
            yield doc


def load_corpus(path: str) -> Dataset:
    """Load a JSONL corpus whole: iter_corpus's documents as a Dataset."""
    return Dataset(tuple(iter_corpus(path)))


def labeled(docs: Iterable[Document], label: Label, flag: str) -> Iterator[Document]:
    """docs as they come; one of another label raises InputError naming flag."""
    for doc in docs:
        if doc.label is not label:
            raise InputError(
                f"{flag} corpus contains a document labeled {doc.label.value}: {doc.id!r}"
            )
        yield doc


def tallied(docs: Iterable[Document], counts: Counter, key: Callable) -> Iterator[Document]:
    """docs as they come, each counted in counts under key(doc)."""
    for doc in docs:
        counts[key(doc)] += 1
        yield doc


def document_to_json(doc: Document) -> str:
    """Canonical single-line JSON for a document."""
    obj: dict[str, object] = {"id": doc.id}
    if doc.title is not None:
        obj["title"] = doc.title
    obj["text"] = doc.text
    obj["label"] = doc.label.value
    if doc.source is not None:
        obj["source"] = doc.source
    if doc.analyses is not None:
        obj["analyses"] = [
            {"raw": a.raw, "root": a.root, "pos": a.pos, "suffixes": list(a.suffixes)}
            for a in doc.analyses
        ]
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_atomic(files: Mapping[str, Callable[[TextIO], object]]) -> None:
    """Write each path through a temporary file beside it, which its writer fills.

    No target is replaced before every file is written, so a failure while
    writing leaves existing files with their old bytes and removes the
    temporary files; a failed rename keeps the renames before it. There is
    no fsync: this guards against failures of the process, not of the
    machine. An OS error on a temporary file is raised naming its target.
    """
    targets = {f"{path}.{os.urandom(4).hex()}.tmp": path for path in files}
    pending: list[str] = []  # temporary files not yet renamed
    try:
        for tmp, write in zip(targets, files.values()):
            with open(tmp, "x", encoding="utf-8") as fh:
                pending.append(tmp)
                write(fh)
        while pending:
            os.replace(pending[0], targets[pending[0]])
            pending.pop(0)
    except OSError as exc:
        if exc.filename not in targets:
            raise
        raise OSError(exc.errno, exc.strerror, targets[exc.filename]) from exc
    finally:
        for tmp in pending:
            os.unlink(tmp)


def save_corpus(ds: Dataset, path: str) -> None:
    """Write a dataset back out as canonical JSONL, one document a line.

    A document that iter_corpus would refuse, for an id that is not a non-empty
    string or for a lone surrogate, raises CorpusParseError naming the file, its
    line and the document; path stays as it was.
    """
    def write(fh: TextIO) -> None:
        for n, doc in enumerate(ds.documents, 1):
            if not isinstance(doc.id, str) or not doc.id:
                raise CorpusParseError(f"{path}:{n}: 'id' must be a non-empty string")
            try:  # a text file encodes a line that is not ASCII as it is written
                fh.write(document_to_json(doc) + "\n")
            except UnicodeEncodeError:
                raise CorpusParseError(
                    f"{path}:{n}: document {doc.id!r} holds a lone surrogate"
                ) from None

    write_atomic({path: write})


def split_sentences(
    text: str, abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """Split text into sentences on terminal punctuation.

    A run of . ! ? or an ellipsis followed by whitespace or the end of
    the text closes a sentence, except when a lone period follows a
    known abbreviation. Text without terminal punctuation is a single
    sentence; empty strings are never returned.
    """
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        if match.group() == ".":
            before = text[start : match.start()].rsplit(None, 1)
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


def corpus_stats(ds: Iterable[Document], config: RunConfig = RunConfig()) -> CorpusStats:
    """Document counts per label plus token and sentence means, in one read of ds.

    Of the config only include_title is read.
    """
    counts = {Label.FAKE: 0, Label.VALID: 0}
    token_total = 0
    sentence_total = 0
    for doc in ds:
        counts[doc.label] += 1
        text = compose_text(doc.title, doc.text, config.include_title)
        token_total += len(tokenize(text))
        sentence_total += len(split_sentences(text))
    n = counts[Label.FAKE] + counts[Label.VALID]
    return CorpusStats(
        doc_count_by_label=counts,
        mean_tokens_per_doc=token_total / n if n else 0.0,
        mean_sentences_per_doc=sentence_total / n if n else 0.0,
        token_total=token_total,
    )


_BLOCK = 1 << 14  # characters of word-list text worked on at once


def _word_list_blocks(path: str) -> Iterator[str]:
    """A word list's text in blocks of whole lines, without the lines that
    start with # after leading whitespace. One leading byte order mark is
    ignored."""
    with open_text(path, InputError, "utf-8-sig") as fh:
        while block := fh.read(_BLOCK):
            block += fh.readline()
            if "#" in block:
                block = "\n".join(s for s in block.split("\n") if s.lstrip()[:1] != "#")
            yield block


def _entry_words(entry: str, turkish: bool) -> list[str]:
    """An entry's words, each normalized; words that normalize to nothing are dropped."""
    return [w for p in entry.split() if (w := normalize_token(p, turkish))]


def _blocks(items: Iterable[str]) -> Iterator[str]:
    """items joined by newlines into blocks of at least _BLOCK characters, but the last."""
    batch: list[str] = []
    size = 0
    for item in items:
        batch.append(item)
        size += len(item)
        if size >= _BLOCK:
            yield "\n".join(batch)
            batch, size = [], 0
    yield "\n".join(batch)


def _dictionary_words(dictionary: Iterable[str], turkish: bool) -> set[str]:
    """The union of _entry_words over the dictionary's items, each an entry
    or a block of entries, one per line, by _kernels' whole-text rule: items
    are joined into blocks, a block is lowercased once and split, and only
    its words that are not alphanumeric go through normalize_token, which
    gives the same for a word and its lowercase. A block holding Σ takes
    _entry_words whole. Generic İ needs no exception here: its dot is not
    whitespace."""
    words: set[str] = set()
    for block in _blocks(dictionary):
        if "Σ" in block:
            words.update(_entry_words(block, turkish))
            continue
        found = _lower(block, turkish).split()
        words.update(found)
        odd = [w for w in found if not w.isalnum()]
        if odd:  # they go in normalized; one that already was comes back
            words.difference_update(odd)
            words.update(_entry_words(" ".join(odd), turkish))
    return words


def load_word_list(path: str, locale: Locale = Locale.TURKISH) -> list[str]:
    """Load a one-entry-per-line UTF-8 word list, normalized.

    Lines starting with # and blank lines are skipped, and one leading
    byte order mark is ignored. An entry may hold several words (a
    phrase); each word is normalized under the locale, words that
    normalize to nothing are dropped, and so are entries left empty.
    Entries are de-duplicated, order kept. verify_stats takes the
    entries as written as well as this list.
    """
    turkish = _turkish(locale)
    lines = (line for block in _word_list_blocks(path) for line in block.split("\n"))
    entries = (" ".join(_entry_words(e, turkish)) for e in lines)
    return [e for e in dict.fromkeys(entries) if e]


def verify_stats_by_group(
    ds: Iterable[Document],
    slang: Iterable[str],
    dictionary: Iterable[str],
    group_key: Callable[[Document], Hashable],
    config: RunConfig = RunConfig(),
) -> tuple[VerificationReport, dict[Hashable, VerificationReport]]:
    """verify_stats over ds, any iterable of documents, and per group.

    The slang list is read first, then the dictionary, and an item of
    either may hold several entries, one per line. ds is read once, after
    the word lists are checked. Of the config the locale and
    include_title are read. The word lists are taken as verify_stats
    takes them. Each document is tokenized once; its sentence, slang and
    misspelling counts are added to its group's, and the overall figures
    are the sums over groups. Groups come in first-seen order; those
    without sentences are left out. Raises NoSentencesError when ds has
    no sentence.
    """
    for name, entries in (("slang", slang), ("dictionary", dictionary)):
        if isinstance(entries, str):  # it would be matched a character at a time
            raise TypeError(f"{name} must be a collection of entries, not a str")
    turkish, include_title = config.locale is Locale.TURKISH, config.include_title
    # A one-word entry is a phrase of length 1, probed last.
    lines = (line for item in slang for line in item.split("\n"))
    phrases = {tuple(words) for entry in lines if (words := _entry_words(entry, turkish))}
    dict_words = _dictionary_words(dictionary, turkish)
    if not phrases:
        raise DomainError("slang list is empty")
    phrase_lengths = sorted({len(p) for p in phrases}, reverse=True)
    # Only a token that starts some phrase needs the phrase probes.
    first_words = {p[0] for p in phrases}
    if not dict_words:
        raise DomainError("dictionary is empty")

    # group key -> [sentences, slang hits, misspellings]
    counts: dict[Hashable, list[int]] = {}
    for doc in ds:
        text = compose_text(doc.title, doc.text, include_title)
        tokens = normalized_tokens(text, turkish)
        hits = 0
        missed = 0
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok in first_words:
                hit = 0
                for length in phrase_lengths:
                    if length <= n - i and tuple(tokens[i : i + length]) in phrases:
                        hit = length
                        break
                if hit:
                    hits += 1
                    i += hit
                    continue
            if tok not in dict_words and not tok.isdigit():
                missed += 1
            i += 1
        group = counts.setdefault(group_key(doc), [0, 0, 0])
        group[0] += len(split_sentences(text))
        group[1] += hits
        group[2] += missed
    total = [sum(column) for column in zip((0, 0, 0), *counts.values())]
    if total[0] == 0:
        raise NoSentencesError("no sentences in dataset")
    return _rates(total), {key: _rates(c) for key, c in counts.items() if c[0]}


def _rates(counts: list[int]) -> VerificationReport:
    sentences, slang_hits, misspelled = counts
    return VerificationReport(slang_hits / sentences, misspelled / sentences)


def verify_stats(
    ds: Dataset,
    slang: Sequence[str],
    dictionary: Iterable[str],
    *,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> VerificationReport:
    """Slang and misspelling rates per sentence across a dataset.

    Entries are taken as written or as load_word_list returns them:
    each word of an entry is normalized once, here, under the locale,
    and words that normalize to nothing are dropped. A slang list or
    dictionary left with no word raises DomainError. Slang entries may
    span several words; multi-word phrases are matched greedily left
    to right and count one occurrence per match. A normalized token
    counts as misspelled when it is in neither the dictionary nor the
    slang list, unless it is all digits.
    """
    config = RunConfig(locale=locale, include_title=include_title)
    return verify_stats_by_group(ds, slang, dictionary, lambda doc: None, config)[0]


def _fold_of(labels: Sequence[Label], k: int, seed: int) -> list[int]:
    """Each document's fold, by position in its labels: documents of each
    label are shuffled with the seeded generator and dealt round-robin,
    so per-fold label counts differ by at most one."""
    if k < 2:
        raise FoldSizeError(f"need at least 2 folds, got {k}")
    rng = random.Random(seed)
    fold_of = [0] * len(labels)
    for label in (Label.FAKE, Label.VALID):
        positions = [i for i, got in enumerate(labels) if got is label]
        if len(positions) < k:
            raise FoldSizeError(
                f"label {label.value} has {len(positions)} documents, "
                f"fewer than k={k}"
            )
        rng.shuffle(positions)
        for dealt, position in enumerate(positions):
            fold_of[position] = dealt % k
    return fold_of


def stratified_folds(
    ds: Dataset, k: int, seed: int
) -> list[tuple[Dataset, Dataset]]:
    """Deterministic stratified k-fold split as dealt by _fold_of, in
    (train, test) pairs; each pair is disjoint and covers the dataset."""
    fold_of = _fold_of([doc.label for doc in ds.documents], k, seed)
    pairs: list[tuple[Dataset, Dataset]] = []
    for fold in range(k):
        train = tuple(doc for doc, f in zip(ds.documents, fold_of) if f != fold)
        test = tuple(doc for doc, f in zip(ds.documents, fold_of) if f == fold)
        pairs.append((Dataset(train, Split.TRAIN), Dataset(test, Split.TEST)))
    return pairs

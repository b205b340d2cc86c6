"""Class-conditional term lexicons built from labeled training splits.

A lexicon maps terms to raw counts in the fake and valid splits and to
scores, where a term's score for a class is its count divided by the
total count of all terms in that class. Counts are the source of
truth; scores are always derived from them. Four term definitions are
supported: surface forms (RAW), roots (ROOT), surface plus POS
(RAW_POS) and contiguous suffix-tag runs (SUFFIX).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from fanlex._kernels import normalize_token, normalized_tokens, suffix_runs
from fanlex.corpus import Dataset, Document, write_atomic
from fanlex.errors import (
    EmptyTrainingSplitError,
    LexiconChecksumError,
    LexiconConsistencyError,
    LexiconParseError,
    LexiconVersionError,
    ModelMismatchError,
    open_text,
    parse_json,
)
from fanlex.morph import (
    AnalyzerRuleTable,
    Locale,
    MorphAnalysis,
    analyze_document,
    compose_text,
)

FORMAT_NAME = "fanlex-lexicon"
FORMAT_VERSION = 1

# Separates the surface form from the POS tag inside RAW_POS terms.
# A control character cannot appear in tokenized text.
RAW_POS_SEPARATOR = ""


class ModelClass(Enum):
    RAW = "RAW"
    ROOT = "ROOT"
    RAW_POS = "RAW_POS"
    SUFFIX = "SUFFIX"


class CountMode(Enum):
    """How often a term counts inside one document.

    TOKEN_FREQ counts every occurrence; DOC_PRESENCE counts at most
    one per document.
    """

    TOKEN_FREQ = "TOKEN_FREQ"
    DOC_PRESENCE = "DOC_PRESENCE"


@dataclass(frozen=True)
class TermEntry:
    term: str
    fake_count: int
    valid_count: int
    fake_score: float
    valid_score: float


@dataclass
class Lexicon:
    """Term table for one model class. Treated as immutable."""

    model_class: ModelClass
    entries: dict[str, TermEntry]
    fake_total: int
    valid_total: int
    count_mode: CountMode
    smoothing: float = 0.0
    version: int = FORMAT_VERSION


@dataclass(frozen=True)
class LexiconStats:
    unique_terms: int
    common_terms: int
    only_fake: int
    only_valid: int


def expand_suffix_subsequences(suffixes: list[str]) -> list[list[str]]:
    """All contiguous, non-empty subsequences of a suffix tag list.

    For k tags there are k*(k+1)/2 of them. Shorter runs come first;
    runs of equal length are ordered by start index.
    """
    k = len(suffixes)
    out: list[list[str]] = []
    for length in range(1, k + 1):
        for start in range(k - length + 1):
            out.append(list(suffixes[start : start + length]))
    return out


def extract_terms(
    analyses: list[MorphAnalysis],
    model_class: ModelClass,
    locale: Locale = Locale.TURKISH,
) -> Counter:
    """Term multiset of one document under a model class.

    RAW uses normalized surface forms, ROOT the roots as analyzed,
    RAW_POS the normalized surface joined to the POS tag, and SUFFIX
    every contiguous run of suffix tags serialized with "-" joins.
    Surfaces that normalize to nothing contribute no term.
    """
    turkish = locale is Locale.TURKISH
    counts: Counter = Counter()
    if model_class is ModelClass.RAW:
        for a in analyses:
            term = normalize_token(a.raw, turkish)
            if term:
                counts[term] += 1
    elif model_class is ModelClass.ROOT:
        for a in analyses:
            counts[a.root] += 1
    elif model_class is ModelClass.RAW_POS:
        for a in analyses:
            surface = normalize_token(a.raw, turkish)
            if surface:
                counts[surface + RAW_POS_SEPARATOR + a.pos] += 1
    else:
        for a in analyses:
            if a.suffixes:
                counts.update(suffix_runs(a.suffixes))
    return counts


def document_terms(
    doc: Document,
    model_class: ModelClass,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> Counter:
    """Term multiset of a document, analyzing its text when needed.

    For RAW over plain-text documents the analysis step is skipped:
    the normalized letter-bearing tokens are the surface forms the
    full pipeline would produce.
    """
    return document_terms_by_class(
        doc,
        (model_class,),
        analyzer=analyzer,
        locale=locale,
        include_title=include_title,
    )[0]


def document_terms_by_class(
    doc: Document,
    classes: Sequence[ModelClass],
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> list[Counter]:
    """document_terms for several model classes, in the given order.

    The document is analyzed at most once, whatever the number of
    classes that need its analyses.
    """
    analyses = None
    out: list[Counter] = []
    for model_class in classes:
        if doc.analyses is None and model_class is ModelClass.RAW:
            text = compose_text(doc.title, doc.text, include_title)
            out.append(
                Counter(
                    normalized_tokens(text, locale is Locale.TURKISH, letters_only=True)
                )
            )
            continue
        if analyses is None:
            analyses = analyze_document(
                doc, analyzer, locale=locale, include_title=include_title
            )
        out.append(extract_terms(analyses, model_class, locale))
    return out


def add_document_terms(totals: Counter, terms: Counter, count_mode: CountMode) -> None:
    """Add one document's terms to running totals under a count mode."""
    if count_mode is CountMode.DOC_PRESENCE:
        totals.update(set(terms))
    else:
        totals.update(terms)


def lexicon_from_counts(
    model_class: ModelClass,
    fake_counts: dict[str, int],
    valid_counts: dict[str, int],
    count_mode: CountMode = CountMode.TOKEN_FREQ,
    smoothing: float = 0.0,
) -> Lexicon:
    """Assemble a lexicon from per-class term counts.

    Scores are (count + smoothing) / (total + smoothing * vocabulary),
    which reduces to count / total at the default smoothing of 0 and
    sums to 1 over the stored entries either way.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError("smoothing must be finite and >= 0")
    terms = sorted(set(fake_counts) | set(valid_counts))
    fake_total = sum(fake_counts.values())
    valid_total = sum(valid_counts.values())
    if fake_total <= 0:
        raise EmptyTrainingSplitError("empty training split: fake side yields no terms")
    if valid_total <= 0:
        raise EmptyTrainingSplitError(
            "empty training split: valid side yields no terms"
        )
    vocabulary = len(terms)
    fake_denom = fake_total + smoothing * vocabulary
    valid_denom = valid_total + smoothing * vocabulary
    entries: dict[str, TermEntry] = {}
    for term in terms:
        fc = fake_counts.get(term, 0)
        vc = valid_counts.get(term, 0)
        entries[term] = TermEntry(
            term=term,
            fake_count=fc,
            valid_count=vc,
            fake_score=(fc + smoothing) / fake_denom,
            valid_score=(vc + smoothing) / valid_denom,
        )
    return Lexicon(
        model_class=model_class,
        entries=entries,
        fake_total=fake_total,
        valid_total=valid_total,
        count_mode=count_mode,
        smoothing=smoothing,
    )


def count_splits(
    fake: Dataset,
    valid: Dataset,
    classes: Sequence[ModelClass],
    count_mode: CountMode = CountMode.TOKEN_FREQ,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> tuple[list[Counter], list[Counter]]:
    """Term totals of a fake and a valid split, one Counter per class.

    The Counters come in class order. Each document is analyzed at
    most once, whatever the number of classes.
    """
    if not fake.documents:
        raise EmptyTrainingSplitError("empty training split: fake")
    if not valid.documents:
        raise EmptyTrainingSplitError("empty training split: valid")
    opts = dict(analyzer=analyzer, locale=locale, include_title=include_title)
    out = ([Counter() for _ in classes], [Counter() for _ in classes])
    for totals, ds in zip(out, (fake, valid)):
        for doc in ds.documents:
            terms_by_class = document_terms_by_class(doc, classes, **opts)
            for counts, terms in zip(totals, terms_by_class):
                add_document_terms(counts, terms, count_mode)
    return out


def build_lexicon(
    fake_train: Dataset,
    valid_train: Dataset,
    model_class: ModelClass,
    count_mode: CountMode = CountMode.TOKEN_FREQ,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
    smoothing: float = 0.0,
) -> Lexicon:
    """Build a lexicon from fake and valid training splits.

    The result does not depend on document order, and counting is
    exact: building on a union of corpora equals merging lexicons
    built on the parts.
    """
    (fake_counts,), (valid_counts,) = count_splits(
        fake_train,
        valid_train,
        (model_class,),
        count_mode,
        analyzer=analyzer,
        locale=locale,
        include_title=include_title,
    )
    return lexicon_from_counts(
        model_class, fake_counts, valid_counts, count_mode, smoothing
    )


def lexicon_stats(lex: Lexicon) -> LexiconStats:
    """Unique term count and its split into common/only-fake/only-valid."""
    common = only_fake = only_valid = 0
    for entry in lex.entries.values():
        if entry.fake_count > 0 and entry.valid_count > 0:
            common += 1
        elif entry.fake_count > 0:
            only_fake += 1
        else:
            only_valid += 1
    return LexiconStats(
        unique_terms=len(lex.entries),
        common_terms=common,
        only_fake=only_fake,
        only_valid=only_valid,
    )


def _entry_lines(lex: Lexicon) -> list[str]:
    return [
        json.dumps(
            {"t": e.term, "fc": e.fake_count, "vc": e.valid_count},
            ensure_ascii=False,
            separators=(",", ":"),
        )
        for e in sorted(lex.entries.values(), key=lambda e: e.term)
    ]


def _checksum(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def save_lexicon(lex: Lexicon, path: str) -> None:
    """Write a lexicon: one JSON header line, then one entry per line.

    Only counts are stored; scores are recomputed at load.
    """
    lines = _entry_lines(lex)
    header = {
        "format": FORMAT_NAME,
        "version": lex.version,
        "class": lex.model_class.value,
        "count_mode": lex.count_mode.value,
        "fake_total": lex.fake_total,
        "valid_total": lex.valid_total,
        "smoothing": lex.smoothing,
        "checksum": _checksum(lines),
    }
    header_line = json.dumps(header, ensure_ascii=False, separators=(",", ":"))
    write_atomic(path, (line + "\n" for line in [header_line, *lines]))


def load_lexicon(path: str) -> Lexicon:
    """Load and validate a lexicon file.

    Raises LexiconVersionError for unknown versions,
    LexiconChecksumError when the entry lines do not hash to the
    stored checksum, and LexiconConsistencyError when totals disagree
    with the entry counts or an entry carries no evidence.
    """
    # Only "\n" ends a line. str.splitlines would also split at U+0085
    # or U+2028 inside a term, which json.dumps leaves unescaped.
    with open_text(path, LexiconParseError) as fh:
        raw_lines = fh.read().split("\n")
    if raw_lines == [""]:
        raise LexiconParseError(f"{path}: empty lexicon file")
    header = parse_json(raw_lines[0], LexiconParseError, f"{path}:1")
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise LexiconParseError(f"{path}: not a {FORMAT_NAME} file")
    # type() rather than isinstance(): JSON true and false load as bool,
    # which is an int subclass.
    for key in ("version", "fake_total", "valid_total"):
        if type(header.get(key)) is not int:
            raise LexiconParseError(f"{path}: header {key!r} must be an integer")
    version = header["version"]
    if version != FORMAT_VERSION:
        raise LexiconVersionError(f"{path}: unsupported lexicon version {version!r}")
    try:
        model_class = ModelClass(header["class"])
        count_mode = CountMode(header["count_mode"])
    except (KeyError, ValueError) as exc:
        raise LexiconParseError(f"{path}: bad header field ({exc})") from exc
    fake_total, valid_total = header["fake_total"], header["valid_total"]
    smoothing = header.get("smoothing", 0.0)
    # The upper bound also refuses integers too large for a float.
    if type(smoothing) not in (int, float) or not 0 <= smoothing <= sys.float_info.max:
        raise LexiconParseError(f"{path}: bad smoothing value {smoothing!r}")

    entry_lines = [line for line in raw_lines[1:] if line.strip()]
    if "checksum" in header and _checksum(entry_lines) != header["checksum"]:
        raise LexiconChecksumError(f"{path}: checksum mismatch")

    fake_counts: dict[str, int] = {}
    valid_counts: dict[str, int] = {}
    for offset, line in enumerate(entry_lines, 2):
        try:
            obj = json.loads(line)
            term = obj["t"]
            fc = obj["fc"]
            vc = obj["vc"]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise LexiconParseError(f"{path}:{offset}: bad entry line") from exc
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
        if term in fake_counts:
            raise LexiconParseError(f"{path}:{offset}: duplicate term {term!r}")
        fake_counts[term] = fc
        valid_counts[term] = vc

    if sum(fake_counts.values()) != fake_total:
        raise LexiconConsistencyError(
            f"{path}: fake_total {fake_total} does not match entry sum "
            f"{sum(fake_counts.values())}"
        )
    if sum(valid_counts.values()) != valid_total:
        raise LexiconConsistencyError(
            f"{path}: valid_total {valid_total} does not match entry sum "
            f"{sum(valid_counts.values())}"
        )
    return lexicon_from_counts(
        model_class, fake_counts, valid_counts, count_mode, float(smoothing)
    )


def merge_lexicons(a: Lexicon, b: Lexicon) -> Lexicon:
    """Merge two lexicons by adding counts term-wise.

    Both must share model class, count mode and smoothing. Merging the
    lexicons of two disjoint corpora equals building on their union.
    """
    if a.model_class is not b.model_class:
        raise ModelMismatchError(
            f"cannot merge {a.model_class.value} with {b.model_class.value}"
        )
    if a.count_mode is not b.count_mode:
        raise ModelMismatchError(
            f"cannot merge count modes {a.count_mode.value} and {b.count_mode.value}"
        )
    if a.smoothing != b.smoothing:
        raise ModelMismatchError(
            f"cannot merge smoothing {a.smoothing} with {b.smoothing}"
        )
    fake_counts: Counter = Counter()
    valid_counts: Counter = Counter()
    for lex in (a, b):
        for entry in lex.entries.values():
            fake_counts[entry.term] += entry.fake_count
            valid_counts[entry.term] += entry.valid_count
    return lexicon_from_counts(
        a.model_class, +fake_counts, +valid_counts, a.count_mode, a.smoothing
    )

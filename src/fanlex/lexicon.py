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
from itertools import chain
from typing import Iterable, Iterator, Sequence

from fanlex import morph
from fanlex._kernels import has_letter, normalize_token, normalized_tokens, suffix_runs
from fanlex.corpus import Dataset, Document, write_atomic
from fanlex.errors import (
    AnalysisError,
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
    compose_text,
    default_rule_table,
    tokenize,
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
    analyses: Iterable[MorphAnalysis],
    model_class: ModelClass,
    locale: Locale = Locale.TURKISH,
) -> Counter:
    """Term multiset of one document under a model class.

    RAW uses normalized surface forms, ROOT the roots as analyzed,
    RAW_POS the normalized surface joined to the POS tag, and SUFFIX
    every contiguous run of suffix tags serialized with "-" joins.
    Surfaces that normalize to nothing contribute no term.
    """
    return Counter(_terms(analyses, model_class, locale is Locale.TURKISH))


def _terms(
    analyses: Iterable[MorphAnalysis], model_class: ModelClass, turkish: bool
) -> Iterator[str]:
    """extract_terms as a stream of terms, repeats kept, in token order."""
    if model_class is ModelClass.RAW:
        for a in analyses:
            term = normalize_token(a.raw, turkish)
            if term:
                yield term
    elif model_class is ModelClass.ROOT:
        for a in analyses:
            yield a.root
    elif model_class is ModelClass.RAW_POS:
        for a in analyses:
            surface = normalize_token(a.raw, turkish)
            if surface:
                yield surface + RAW_POS_SEPARATOR + a.pos
    else:
        for a in analyses:
            if a.suffixes:
                yield from suffix_runs(a.suffixes)


class TermPipeline:
    """Turns documents into term multisets, one Counter per model class.

    A pipeline holds one run's classes, rule table, locale and title
    setting. It analyzes each distinct plain-text token once and keeps
    its terms per class in a memo that lives as long as the pipeline;
    failures are not memoized. Pre-analyzed documents, and plain text
    under RAW alone, skip the analyzer and the memo.
    """

    def __init__(
        self,
        classes: Sequence[ModelClass],
        analyzer: AnalyzerRuleTable | None = None,
        *,
        locale: Locale = Locale.TURKISH,
        include_title: bool = True,
    ) -> None:
        self.classes = tuple(classes)
        self.analyzer = default_rule_table() if analyzer is None else analyzer
        self.locale = locale
        self.include_title = include_title
        self._turkish = locale is Locale.TURKISH
        self._no_terms: tuple[tuple[str, ...], ...] = ((),) * len(self.classes)
        self._memo: dict[str, tuple[tuple[str, ...], ...]] = {}

    def terms(self, doc: Document) -> list[Counter]:
        """The document's term multisets, one per class in class order."""
        if doc.analyses is not None:
            return [extract_terms(doc.analyses, c, self.locale) for c in self.classes]
        text = compose_text(doc.title, doc.text, self.include_title)
        if self.classes == (ModelClass.RAW,):
            return [Counter(normalized_tokens(text, self._turkish, letters_only=True))]
        rows = []
        for position, token in enumerate(tokenize(text)):
            row = self._memo.get(token)
            rows.append(self._memoize(token, position) if row is None else row)
        # The leading term-less row keeps one column per class for empty text.
        return [Counter(chain.from_iterable(c)) for c in zip(self._no_terms, *rows)]

    def _memoize(self, token: str, position: int) -> tuple[tuple[str, ...], ...]:
        """Analyze one token and memoize its terms per class, repeats kept."""
        row = self._no_terms
        if has_letter(token):
            try:
                analysis = morph.analyze_token(token, self.analyzer, self.locale)
            except AnalysisError as exc:
                raise AnalysisError(f"token {position}: {exc}") from exc
            turkish = self._turkish
            # RAW is the normalized token, as on the RAW-only route.
            raw = (normalize_token(token, turkish),)
            row = tuple(
                raw if c is ModelClass.RAW else tuple(_terms((analysis,), c, turkish))
                for c in self.classes
            )
        self._memo[token] = row
        return row


def document_terms(
    doc: Document,
    model_class: ModelClass,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> Counter:
    """Term multiset of one document; see TermPipeline."""
    pipeline = TermPipeline(
        (model_class,), analyzer, locale=locale, include_title=include_title
    )
    return pipeline.terms(doc)[0]


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
    fake: Dataset, valid: Dataset, pipeline: TermPipeline, count_mode: CountMode
) -> tuple[list[Counter], list[Counter]]:
    """Term totals of a fake and a valid split, one Counter per class.

    The Counters come in the pipeline's class order.
    """
    if not fake.documents:
        raise EmptyTrainingSplitError("empty training split: fake")
    if not valid.documents:
        raise EmptyTrainingSplitError("empty training split: valid")
    out = ([Counter() for _ in pipeline.classes], [Counter() for _ in pipeline.classes])
    for totals, ds in zip(out, (fake, valid)):
        for doc in ds.documents:
            for counts, terms in zip(totals, pipeline.terms(doc)):
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
    pipeline = TermPipeline(
        (model_class,), analyzer, locale=locale, include_title=include_title
    )
    (fake_counts,), (valid_counts,) = count_splits(
        fake_train, valid_train, pipeline, count_mode
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

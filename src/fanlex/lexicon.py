"""Class-conditional term lexicons built from labeled training splits.

A lexicon maps terms to raw counts in the fake and valid splits and to
scores, where a term's score for a class is its count divided by the
total count of all terms in that class. Counts are the source of
truth; scores are always derived from them. Four term definitions are
supported: surface forms (RAW), roots (ROOT), surface plus POS
(RAW_POS) and contiguous suffix-tag runs (SUFFIX).
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class TermEntry(NamedTuple):
    term: str
    fake_count: int
    valid_count: int
    fake_score: float
    valid_score: float


class Lexicon:
    """Term counts for one model class; scores are derived from them.

    counts maps each term to its (fake, valid) counts, at least one of
    them above zero, and each total is the sum of its side. Counts,
    totals, count mode and smoothing are the whole state; treat them as
    immutable. scores is derived on first use and entries is a
    read-only TermEntry view of both. A lexicon given entries instead
    of counts takes their counts and scores as they are.

    Raises TypeError unless exactly one of counts and entries is given,
    ValueError for a smoothing that is not finite and >= 0 or that
    makes a score denominator overflow, and EmptyTrainingSplitError for
    a total that is not above zero.
    """

    def __init__(
        self,
        model_class: ModelClass,
        *,
        fake_total: int,
        valid_total: int,
        count_mode: CountMode,
        smoothing: float = 0.0,
        counts: dict[str, tuple[int, int]] | None = None,
        entries: Mapping[str, TermEntry] | None = None,
    ) -> None:
        if not (math.isfinite(smoothing) and smoothing >= 0):
            raise ValueError("smoothing must be finite and >= 0")
        if fake_total <= 0:
            raise EmptyTrainingSplitError(
                "empty training split: fake side yields no terms"
            )
        if valid_total <= 0:
            raise EmptyTrainingSplitError(
                "empty training split: valid side yields no terms"
            )
        self.model_class = model_class
        self.fake_total = fake_total
        self.valid_total = valid_total
        self.count_mode = count_mode
        self.smoothing = smoothing
        if (counts is None) == (entries is None):
            raise TypeError("Lexicon needs exactly one of counts or entries")
        self._scores: dict[str, tuple[float, float]] | None = None
        if entries is not None:
            counts = {t: (e.fake_count, e.valid_count) for t, e in entries.items()}
            self._scores = {
                t: (e.fake_score, e.valid_score) for t, e in entries.items()
            }
        if not math.isfinite(max(fake_total, valid_total) + smoothing * len(counts)):
            raise ValueError(
                f"smoothing {smoothing!r} is too large: the score denominator "
                "is not finite"
            )
        self.counts = counts

    @property
    def scores(self) -> dict[str, tuple[float, float]]:
        """term -> (fake, valid) scores, each
        (count + smoothing) / (total + smoothing * vocabulary)."""
        if self._scores is None:
            s = self.smoothing
            fake_denom = self.fake_total + s * len(self.counts)
            valid_denom = self.valid_total + s * len(self.counts)
            self._scores = {
                t: ((fc + s) / fake_denom, (vc + s) / valid_denom)
                for t, (fc, vc) in self.counts.items()
            }
        return self._scores

    @property
    def entries(self) -> Mapping[str, TermEntry]:
        return _EntryView(self.counts, self.scores)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._state() == other._state()

    def _state(self) -> tuple:
        return (
            self.model_class,
            self.count_mode,
            self.fake_total,
            self.valid_total,
            self.smoothing,
            self.counts,
            self.scores,
        )


class _EntryView(Mapping[str, TermEntry]):
    """Counts and scores as a read-only term -> TermEntry mapping.

    It holds the two dicts, not the lexicon: a view kept on the lexicon
    that pointed back at it would keep the lexicon alive until the
    cyclic garbage collector runs.
    """

    def __init__(
        self,
        counts: dict[str, tuple[int, int]],
        scores: dict[str, tuple[float, float]],
    ) -> None:
        self._counts = counts
        self._scores = scores

    def __getitem__(self, term: str) -> TermEntry:
        return TermEntry(term, *self._counts[term], *self._scores[term])

    def __contains__(self, term: object) -> bool:
        return term in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


class LexiconStats(NamedTuple):
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
    Surfaces that normalize to nothing contribute no term. This is the
    one-class case of TermPipeline's one pass over a document's
    analyses, with a suffix-run memo that lasts for this call.
    """
    return Counter(TermPipeline((model_class,), locale=locale)._term_lists(analyses)[0])


class _SuffixRuns(dict):
    """Memo: suffix tag tuple -> its suffix_runs as a tuple, which no
    caller can change. Tuple keys hash and compare in C."""

    def __missing__(self, tags: tuple[str, ...]) -> tuple[str, ...]:
        runs = self[tags] = tuple(suffix_runs(tags))
        return runs


class TermPipeline:
    """Turns documents into term multisets, one Counter per model class.

    A pipeline holds one run's classes, rule table, locale and title
    setting. One pass over a document's analyses yields the terms of
    all its classes. Two memos live as long as the pipeline: the suffix
    runs of each distinct tag tuple, and the terms per class of each
    distinct plain-text token, analyzed once; failures are not memoized.
    Pre-analyzed documents, and plain text under RAW alone, skip the
    analyzer and the token memo.
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
        self._runs = _SuffixRuns()
        # _term_lists fills one list per model class, in declaration order.
        self._wanted = [c in self.classes for c in ModelClass]
        self._columns = [list(ModelClass).index(c) for c in self.classes]

    def terms(self, doc: Document) -> list[Counter]:
        """The document's term multisets, one per class in class order."""
        if doc.analyses is not None:
            return [Counter(terms) for terms in self._term_lists(doc.analyses)]
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
            # RAW is the normalized token, as on the RAW-only route.
            raw = (normalize_token(token, self._turkish),)
            row = tuple(
                raw if c is ModelClass.RAW else tuple(terms)
                for c, terms in zip(self.classes, self._term_lists((analysis,)))
            )
        self._memo[token] = row
        return row

    def _term_lists(self, analyses: Iterable[MorphAnalysis]) -> list[list[str]]:
        """The term rules of extract_terms for every class in one pass:
        one list per class, in class order, token order and repeats kept.
        RAW and RAW_POS share one normalization of each surface."""
        raw, root, raw_pos, suffix = lists = [], [], [], []
        raws, roots, poses, suffixes = self._wanted
        turkish, runs = self._turkish, self._runs
        for a in analyses:
            if raws or poses:
                surface = normalize_token(a.raw, turkish)
                if surface:
                    raw.append(surface)
                    if poses:
                        raw_pos.append(surface + RAW_POS_SEPARATOR + a.pos)
            if roots:
                root.append(a.root)
            if suffixes and a.suffixes:
                suffix += runs[a.suffixes]
        return [lists[i] for i in self._columns]


def count_terms(
    rows: Iterable[Sequence[Counter]], width: int, count_mode: CountMode
) -> list[Counter]:
    """Sum many documents' term rows, each one Counter per class as
    TermPipeline.terms returns it, into width Counters under a count
    mode: DOC_PRESENCE adds each distinct term once per document."""
    totals = [Counter() for _ in range(width)]
    presence = count_mode is CountMode.DOC_PRESENCE
    for row in rows:
        for counts, terms in zip(totals, row):
            counts.update(terms.keys() if presence else terms)
    return totals


def lexicon_from_counts(
    model_class: ModelClass,
    fake_counts: Mapping[str, int],
    valid_counts: Mapping[str, int],
    count_mode: CountMode = CountMode.TOKEN_FREQ,
    smoothing: float = 0.0,
) -> Lexicon:
    """Assemble a lexicon from per-class term counts.

    Counts must be ints >= 0; terms counted zero on both sides are
    dropped. Scores are (count + smoothing) / (total + smoothing *
    vocabulary), which reduces to count / total at the default
    smoothing of 0 and sums to 1 over the stored terms either way.
    Nothing is sorted here: terms are ordered when the lexicon is saved.
    """
    for side, side_counts in (("fake", fake_counts), ("valid", valid_counts)):
        if not all(type(c) is int and c >= 0 for c in side_counts.values()):
            raise ValueError(f"{side} counts must be integers >= 0")
    valid_count = valid_counts.get
    counts = {t: (fc, valid_count(t, 0)) for t, fc in fake_counts.items() if fc}
    counts.update(
        (t, (0, vc)) for t, vc in valid_counts.items() if vc and t not in counts
    )
    return Lexicon(
        model_class,
        counts=counts,
        fake_total=sum(fake_counts.values()),
        valid_total=sum(valid_counts.values()),
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
    width = len(pipeline.classes)
    return tuple(
        count_terms(map(pipeline.terms, ds.documents), width, count_mode)
        for ds in (fake, valid)
    )


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
    for fc, vc in lex.counts.values():
        if fc > 0 and vc > 0:
            common += 1
        elif fc > 0:
            only_fake += 1
        else:
            only_valid += 1
    return LexiconStats(
        unique_terms=len(lex.counts),
        common_terms=common,
        only_fake=only_fake,
        only_valid=only_valid,
    )


def _entry_lines(lex: Lexicon) -> list[str]:
    """Entry lines in term order, as json.dumps(ensure_ascii=False,
    separators=(",", ":")) writes {"t": term, "fc": fc, "vc": vc}."""
    counts = lex.counts
    encode = json.encoder.encode_basestring
    return [
        '{"t":%s,"fc":%d,"vc":%d}' % (encode(term), *counts[term])
        for term in sorted(counts)
    ]


def _checksum(lines: list[str]) -> str:
    import hashlib  # maps OpenSSL's libcrypto; only lexicon files need it

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
        "version": FORMAT_VERSION,
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
    with the entry counts, a total is not above 0 or an entry carries no
    evidence.
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

    # Each line is parsed on its own, so an error names its line: one
    # scan, and json.loads for a line the scan cannot take whole. One
    # parse over the joined lines would accept an object split across
    # lines that fails line by line.
    scan = json.JSONDecoder().scan_once
    counts: dict[str, tuple[int, int]] = {}
    fake_sum = valid_sum = 0
    for offset, line in enumerate(entry_lines, 2):
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):
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
        if term in counts:
            raise LexiconParseError(f"{path}:{offset}: duplicate term {term!r}")
        counts[term] = (fc, vc)
        fake_sum += fc
        valid_sum += vc

    if fake_sum != fake_total:
        raise LexiconConsistencyError(
            f"{path}: fake_total {fake_total} does not match entry sum {fake_sum}"
        )
    if valid_sum != valid_total:
        raise LexiconConsistencyError(
            f"{path}: valid_total {valid_total} does not match entry sum {valid_sum}"
        )
    for side, total in (("fake", fake_total), ("valid", valid_total)):
        if total <= 0:
            raise LexiconConsistencyError(f"{path}: {side}_total {total} is not > 0")
    try:
        return Lexicon(
            model_class,
            counts=counts,
            fake_total=fake_total,
            valid_total=valid_total,
            count_mode=count_mode,
            smoothing=float(smoothing),
        )
    except ValueError as exc:
        raise LexiconParseError(f"{path}: {exc}") from exc


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
    counts = dict(a.counts)
    for term, (fc, vc) in b.counts.items():
        a_fc, a_vc = counts.get(term, (0, 0))
        counts[term] = (a_fc + fc, a_vc + vc)
    return Lexicon(
        a.model_class,
        counts=counts,
        fake_total=a.fake_total + b.fake_total,
        valid_total=a.valid_total + b.valid_total,
        count_mode=a.count_mode,
        smoothing=a.smoothing,
    )

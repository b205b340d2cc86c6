"""Class-conditional term lexicons built from labeled training splits.

A lexicon maps terms to raw counts in the fake and valid splits. A
term's score for a class is its count divided by the total count of
all terms in that class. Counts are the only stored state; a score is
worked out each time a term is looked up. Four term definitions are
supported: surface forms (RAW), roots (ROOT), surface plus POS
(RAW_POS) and contiguous suffix-tag runs (SUFFIX).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from enum import Enum
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from fanlex._kernels import expand_suffix_subsequences  # re-exported: C04 imports it from here
from fanlex._kernels import normalize_token, normalized_tokens, suffix_runs
from fanlex.config import CountMode, Locale, RunConfig
from fanlex.corpus import Dataset, Document, write_atomic
from fanlex.errors import (
    EmptyTrainingSplitError,
    FormatError,
    LexiconChecksumError,
    LexiconConsistencyError,
    LexiconParseError,
    LexiconVersionError,
    ModelMismatchError,
    open_text,
    parse_json,
)
from fanlex.morph import (
    DEFAULT_RULE_TABLE,
    AnalyzerRuleTable,
    MorphAnalysis,
    analyze_text,
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


class TermEntry(NamedTuple):
    term: str
    fake_count: int
    valid_count: int
    fake_score: float
    valid_score: float


class Lexicon:
    """Term counts for one model class; scores are worked out at lookup.

    fake_counts and valid_counts map each term a side counted to its count
    there, above zero, and each total is the sum of its side. The two
    mappings, kept as given and uncopied, the totals, count mode and
    smoothing are the whole state; treat them as immutable. A term's score
    for a class is (count + smoothing) / (total + smoothing * vocabulary),
    over the terms of either side, computed each time the term is looked
    up, and entries is a read-only TermEntry view of counts and scores. A
    lexicon given entries instead keeps their counts and per-side scores.

    Raises TypeError unless exactly one of the two counts and entries is
    given, ValueError for a smoothing that is not an int or float (a bool
    is not), finite and >= 0, or for a smoothing or total that makes a
    score denominator overflow, and EmptyTrainingSplitError for a total
    that is not above zero.
    """

    def __init__(
        self,
        model_class: ModelClass,
        *,
        fake_total: int,
        valid_total: int,
        count_mode: CountMode,
        smoothing: float = 0.0,
        fake_counts: Mapping[str, int] | None = None,
        valid_counts: Mapping[str, int] | None = None,
        entries: Mapping[str, TermEntry] | None = None,
    ) -> None:
        # A bool is no number: save_lexicon would write it as true, which
        # load_lexicon refuses.
        if isinstance(smoothing, bool) or not isinstance(smoothing, (int, float)):
            raise ValueError(f"smoothing must be int or float, not {type(smoothing).__name__}")
        # Bounds here and below, not math.isfinite: they refuse an int too
        # large for a float as not finite, where converting it would raise.
        if not 0 <= smoothing <= sys.float_info.max:
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
        if {fake_counts is None, valid_counts is None} != {entries is not None}:
            raise TypeError("Lexicon needs exactly one of counts (fake and valid) or entries")
        # _pair works out (value + shift) / denominator on each side. Given
        # scores pass it unchanged, bit for bit: x + -0.0 == x and x / 1.0 == x.
        if entries is None:
            self._values, self._shift = (fake_counts, valid_counts), smoothing
        else:
            fake_counts = {t: e.fake_count for t, e in entries.items() if e.fake_count}
            valid_counts = {t: e.valid_count for t, e in entries.items() if e.valid_count}
            self._values = ({t: e.fake_score for t, e in entries.items()},
                            {t: e.valid_score for t, e in entries.items()})
            self._shift = -0.0
        self.fake_counts, self.valid_counts = fake_counts, valid_counts
        # Counted, not a set: a set of the terms would outweigh both sides' keys.
        fake, valid = self._values
        self._vocabulary = len(fake) + len(valid) - sum(map(fake.__contains__, valid))
        mass = smoothing * self._vocabulary  # the smoothing in each denominator
        largest = max(fake_total, valid_total)
        top = sys.float_info.max
        if not (largest <= top and largest + mass <= top):
            raise ValueError(
                f"smoothing {smoothing!r} or a total is too large: the score "
                "denominator is not finite"
            )
        self._denominators = (
            (fake_total + mass, valid_total + mass) if entries is None else (1.0, 1.0)
        )

    def _pair(self, term: str) -> tuple[float, float] | None:
        """term's (fake, valid) scores, or None for a term not in the lexicon."""
        fake_values, valid_values = self._values
        fake, valid = fake_values.get(term, 0), valid_values.get(term, 0)
        if not (fake or valid) and term not in fake_values:  # a count is never 0
            return None
        shift, (fake_denominator, valid_denominator) = self._shift, self._denominators
        return (fake + shift) / fake_denominator, (valid + shift) / valid_denominator

    @property
    def entries(self) -> Mapping[str, TermEntry]:
        return _EntryView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        state = attrgetter(
            "model_class", "count_mode", "fake_total", "valid_total", "smoothing",
            "fake_counts", "valid_counts", "_vocabulary",
        )
        return state(self) == state(other) and all(
            self._pair(t) == other._pair(t) for t in self.entries
        )


class _EntryView(Mapping[str, TermEntry]):
    """A lexicon's counts and scores as a read-only term -> TermEntry mapping."""

    def __init__(self, lex: Lexicon) -> None:
        self._lex = lex

    def __getitem__(self, term: str) -> TermEntry:
        lex = self._lex
        pair = lex._pair(term)
        if pair is None:
            raise KeyError(term)
        return TermEntry(term, lex.fake_counts.get(term, 0), lex.valid_counts.get(term, 0), *pair)

    def __contains__(self, term: object) -> bool:
        fake, valid = self._lex._values
        return term in fake or term in valid

    def __iter__(self) -> Iterator[str]:
        fake, valid = self._lex._values
        return chain(fake, (t for t in valid if t not in fake))

    def __len__(self) -> int:
        return self._lex._vocabulary


class LexiconStats(NamedTuple):
    unique_terms: int
    common_terms: int
    only_fake: int
    only_valid: int


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
    pipeline = TermPipeline((model_class,), config=RunConfig(locale=locale))
    return Counter(pipeline._term_lists(analyses)[0])


class _SuffixRuns(dict):
    """Memo: suffix tag tuple -> its suffix_runs as a tuple, which no
    caller can change. Tuple keys hash and compare in C."""

    def __missing__(self, tags: tuple[str, ...]) -> tuple[str, ...]:
        runs = self[tags] = tuple(suffix_runs(tags))
        return runs


class TermPipeline:
    """Turns documents into term lists, one per model class.

    A pipeline holds one run's classes, rule table and RunConfig, of
    which it reads the locale and the title setting (default
    RunConfig()). One pass over a document's analyses, given or analyzed
    from its text, yields the terms of all its classes. Three memos
    live as long as the pipeline: token -> analysis, so each distinct
    plain-text token is analyzed once (failures are not memoized); the
    suffix runs of each distinct tag tuple; and one shared string per
    distinct RAW_POS term. Plain text under RAW alone skips the analyzer.
    """

    def __init__(
        self,
        classes: Sequence[ModelClass],
        analyzer: AnalyzerRuleTable | None = None,
        config: RunConfig | None = None,
    ) -> None:
        self.classes = tuple(classes)
        self.analyzer = DEFAULT_RULE_TABLE if analyzer is None else analyzer
        self.config = config = RunConfig() if config is None else config
        self._title = config.include_title
        self._turkish = config.locale is Locale.TURKISH
        self._memo: dict[str, MorphAnalysis] = {}
        self._runs = _SuffixRuns()
        self._raw_pos: dict[str, str] = {}
        # _term_lists fills one list per model class, in declaration order.
        self._wanted = [c in self.classes for c in ModelClass]
        self._columns = [list(ModelClass).index(c) for c in self.classes]

    def terms(self, doc: Document) -> list[list[str]]:
        """One new term list per class, in class order: token order, repeats kept."""
        analyses = doc.analyses
        if analyses is None:
            text = compose_text(doc.title, doc.text, self._title)
            if self.classes == (ModelClass.RAW,):
                return [normalized_tokens(text, self._turkish, letters_only=True)]
            analyses = analyze_text(text, self.analyzer, self.config.locale, self._memo)
        return self._term_lists(analyses)

    def _term_lists(self, analyses: Iterable[MorphAnalysis]) -> list[list[str]]:
        """The term rules of extract_terms for every class in one pass:
        one list per class, in class order, token order and repeats kept.
        RAW and RAW_POS share one normalization of each surface."""
        raw, root, raw_pos, suffix = lists = [], [], [], []
        raws, roots, poses, suffixes = self._wanted
        turkish, runs, shared = self._turkish, self._runs, self._raw_pos.setdefault
        for a in analyses:
            if raws or poses:
                surface = normalize_token(a.raw, turkish)
                if surface:
                    raw.append(surface)
                    if poses:
                        term = surface + RAW_POS_SEPARATOR + a.pos
                        raw_pos.append(shared(term, term))
            if roots:
                root.append(a.root)
            if suffixes and a.suffixes:
                suffix += runs[a.suffixes]
        return [lists[i] for i in self._columns]


def count_terms(
    rows: Iterable[Sequence[list[str]]], width: int, count_mode: CountMode
) -> list[Counter]:
    """Sum many documents' term rows, one list per class as TermPipeline.terms
    returns them, into width Counters; DOC_PRESENCE adds each distinct term
    once per document. Lists and keys views count in C, a Mapping in Python."""
    totals = [Counter() for _ in range(width)]
    presence = count_mode is CountMode.DOC_PRESENCE
    for row in rows:
        for counts, terms in zip(totals, row):
            counts.update(dict.fromkeys(terms).keys() if presence else terms)
    return totals


def lexicon_from_counts(
    model_class: ModelClass,
    fake_counts: Mapping[str, int],
    valid_counts: Mapping[str, int],
    count_mode: CountMode = CountMode.TOKEN_FREQ,
    smoothing: float = 0.0,
) -> Lexicon:
    """Assemble a lexicon from per-class term counts.

    Counts must be ints >= 0. The lexicon takes a side's mapping over,
    uncopied, when it holds no 0, and else a copy without its zeros.
    Scores are (count + smoothing) / (total + smoothing * vocabulary),
    which reduces to count / total at the default smoothing of 0 and sums
    to 1 over the stored terms either way. Nothing is sorted here: terms
    are ordered when the lexicon is saved.
    """
    for side, side_counts in (("fake", fake_counts), ("valid", valid_counts)):
        if not all(type(c) is int and c >= 0 for c in side_counts.values()):
            raise ValueError(f"{side} counts must be integers >= 0")
    fake, valid = ({t: c for t, c in counts.items() if c} if 0 in counts.values() else counts
                   for counts in (fake_counts, valid_counts))
    return Lexicon(
        model_class,
        fake_counts=fake,
        valid_counts=valid,
        fake_total=sum(fake_counts.values()),
        valid_total=sum(valid_counts.values()),
        count_mode=count_mode,
        smoothing=smoothing,
    )


def count_splits(
    fake: Iterable[Document], valid: Iterable[Document], pipeline: TermPipeline
) -> tuple[list[Counter], list[Counter]]:
    """Term totals of a fake and a valid split, each read once, a document at a
    time: one Counter per class, in the pipeline's class order, under its
    config's count mode. An empty split raises once both splits are read."""
    width, mode = len(pipeline.classes), pipeline.config.count_mode
    totals = []
    for docs in map(iter, (fake, valid)):
        first = next(docs, None)
        rows = map(pipeline.terms, chain((first,), docs))
        totals.append(None if first is None else count_terms(rows, width, mode))
    for side, counts in zip(("fake", "valid"), totals):
        if counts is None:
            raise EmptyTrainingSplitError(f"empty training split: {side}")
    return tuple(totals)


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
    config = RunConfig(locale=locale, count_mode=count_mode, include_title=include_title)
    pipeline = TermPipeline((model_class,), analyzer, config)
    (fake_counts,), (valid_counts,) = count_splits(fake_train, valid_train, pipeline)
    return lexicon_from_counts(model_class, fake_counts, valid_counts, count_mode, smoothing)


def lexicon_stats(lex: Lexicon) -> LexiconStats:
    """Unique term count and its split into common/only-fake/only-valid."""
    fake, valid = lex.fake_counts.keys(), lex.valid_counts.keys()
    common = sum(map(fake.__contains__, valid))
    return LexiconStats(
        unique_terms=len(fake) + len(valid) - common,
        common_terms=common,
        only_fake=len(fake) - common,
        only_valid=len(valid) - common,
    )


def _entry_blocks(lex: Lexicon) -> Iterator[str]:
    """Entry lines in term order, as json.dumps(ensure_ascii=False, separators=(",", ":"))
    writes {"t": term, "fc": fc, "vc": vc}, each ended by "\n", 256 to a block."""
    fake, valid, encode = lex.fake_counts.get, lex.valid_counts.get, json.encoder.encode_basestring
    terms = sorted(lex.entries)  # one list, sorted in place: a set of the terms outweighs it
    for start in range(0, len(terms), 256):
        yield "".join(['{"t":%s,"fc":%d,"vc":%d}\n' % (encode(t), fake(t, 0), valid(t, 0))
                       for t in terms[start : start + 256]])


def _add_lines(digest, text: str) -> None:
    """The checksum rule: sha256 over each entry line's UTF-8 plus "\n".
    text holds whole lines, each ended by "\n" but perhaps the last."""
    if text:
        digest.update((text if text[-1] == "\n" else text + "\n").encode("utf-8"))


def save_lexicon(lex: Lexicon, path: str) -> None:
    """Write a lexicon: one JSON header line, then one entry per line.

    Only counts are stored; scores are worked out at lookup. A term with a lone surrogate
    raises LexiconParseError, one with no count LexiconConsistencyError; path stays as it was.
    """
    fake, valid = lex.fake_counts, lex.valid_counts
    bare = lex._values[0] is not fake and [t for t in lex.entries if not (t in fake or t in valid)]
    if bare:  # only scores given as entries can leave a term uncounted
        raise LexiconConsistencyError(f"{path}: entry {min(bare)!r} has no evidence")
    try:
        write_atomic({path: lambda fh: _write_lexicon(lex, fh)})
    except UnicodeEncodeError:
        term = min(t for t in lex.entries if t.encode("utf-8", "replace").decode() != t)
        raise LexiconParseError(f"{path}: term {term!r} holds a lone surrogate") from None


def _write_lexicon(lex: Lexicon, fh: TextIO) -> None:
    """save_lexicon's text, written to fh's bytes in one pass: the header
    with a placeholder checksum, the entry blocks, hashed as they are
    written, and then the checksum over the placeholder."""
    import hashlib  # maps OpenSSL's libcrypto; only lexicon files need it

    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "class": lex.model_class.value,
        "count_mode": lex.count_mode.value,
        "fake_total": lex.fake_total,
        "valid_total": lex.valid_total,
        "smoothing": lex.smoothing,
        "checksum": "0" * 64,  # as long as a sha256 hex digest
    }
    text = json.dumps(header, ensure_ascii=False, separators=(",", ":")) + "\n"
    out, digest = fh.buffer, hashlib.sha256()
    out.write(text.encode("ascii"))
    for block in _entry_blocks(lex):
        data = block.encode("utf-8")
        digest.update(data)
        out.write(data)
    # An ASCII header's characters are its bytes; the checksum is its last field.
    out.seek(text.rindex(header["checksum"]))
    out.write(digest.hexdigest().encode("ascii"))


def load_lexicon(path: str) -> Lexicon:
    """Load and validate a lexicon file, read once, a block at a time.

    Raises LexiconVersionError for unknown versions,
    LexiconChecksumError when the entry lines do not hash to the
    stored checksum, which wins over any bad entry line, and
    LexiconConsistencyError when totals disagree with the entry counts,
    a total is not above 0 or an entry carries no evidence.
    """
    # Only "\n" ends a line. str.splitlines would also split at U+0085
    # or U+2028 inside a term, which json.dumps leaves unescaped.
    with open_text(path, LexiconParseError) as fh:
        first = fh.readline()
        if not first:
            raise LexiconParseError(f"{path}: empty lexicon file")
        header = parse_json(first, LexiconParseError, path, 1)
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

        import hashlib  # as in _write_lexicon
        digest = hashlib.sha256()
        fake_counts, valid_counts = {}, {}  # term -> its count, above 0
        fake_sum = valid_sum = 0
        error: FormatError | None = None  # the first bad entry line's
        lineno = 1
        # Lines of JSON whitespace alone are skipped, but line numbers
        # still count them. The checksum covers the kept lines as read.
        while block := fh.readlines(1 << 14):
            kept = list(map(str.strip, block, repeat(" \t\n\r")))
            _add_lines(digest, "".join(compress(block, kept)))
            try:
                for n, line in compress(enumerate(kept, lineno + 1), kept):
                    obj = parse_json(line, LexiconParseError, path, n)
                    try:
                        term, fc, vc = obj["t"], obj["fc"], obj["vc"]
                    except (KeyError, TypeError) as exc:
                        raise LexiconParseError(f"{path}:{n}: bad entry line") from exc
                    typed = isinstance(term, str) and term and type(fc) is int is type(vc)
                    if not typed or fc < 0 or vc < 0:
                        raise LexiconParseError(f"{path}:{n}: bad entry values")
                    if fc + vc < 1:
                        raise LexiconConsistencyError(f"{path}:{n}: entry {term!r} has no evidence")
                    if term in fake_counts or term in valid_counts:
                        raise LexiconParseError(f"{path}:{n}: duplicate term {term!r}")
                    if fc:
                        fake_counts[term] = fc
                    if vc:
                        valid_counts[term] = vc
                    fake_sum += fc
                    valid_sum += vc
            except FormatError as exc:
                error = error or exc
            lineno += len(block)
    if "checksum" in header and digest.hexdigest() != header["checksum"]:
        raise LexiconChecksumError(f"{path}: checksum mismatch")
    if error is not None:
        raise error

    for side, total, found in (("fake", fake_total, fake_sum), ("valid", valid_total, valid_sum)):
        if found != total:
            try:
                shown = f" {found}"
            except ValueError:  # more digits than int -> str allows
                shown = ""
            raise LexiconConsistencyError(
                f"{path}: {side}_total {total} does not match entry sum{shown}"
            )
    for side, total in (("fake", fake_total), ("valid", valid_total)):
        if total <= 0:
            raise LexiconConsistencyError(f"{path}: {side}_total {total} is not > 0")
    try:
        return Lexicon(
            model_class,
            fake_counts=fake_counts,
            valid_counts=valid_counts,
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
    fake, valid = Counter(a.fake_counts), Counter(a.valid_counts)
    fake.update(b.fake_counts)
    valid.update(b.valid_counts)
    return Lexicon(
        a.model_class,
        fake_counts=fake,
        valid_counts=valid,
        fake_total=a.fake_total + b.fake_total,
        valid_total=a.valid_total + b.valid_total,
        count_mode=a.count_mode,
        smoothing=a.smoothing,
    )

"""Tokenization, normalization and rule-driven morphological analysis.

Analysis is pluggable. Two routes ship with the toolkit: exact lookup
in a rule table (the first listed analysis wins when a surface is
ambiguous) and a longest-suffix stripper for surfaces the table does
not know. Documents that carry pre-computed analyses bypass both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from fanlex._kernels import has_letter, normalize_token, tokenize
from fanlex.config import FrozenRecord, Locale, _set
from fanlex.errors import AnalysisError, InputError, open_text, parse_json

if TYPE_CHECKING:
    from fanlex.corpus import Document


UNKNOWN_POS = "Unknown"

# Sentence-final punctuation, shared with corpus.split_sentences.
TERMINALS = ".!?…"

# Demo fallback rules for common Turkish inflections, ordered pairs of
# (surface, tag). They stand in for a full analyzer when no rule table
# is supplied; load_suffix_rules replaces them from a TSV file.
DEFAULT_SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("lar", "A3pl"),
    ("ler", "A3pl"),
    ("dan", "Abl"),
    ("den", "Abl"),
    ("tan", "Abl"),
    ("ten", "Abl"),
    ("nın", "Gen"),
    ("nin", "Gen"),
    ("nun", "Gen"),
    ("nün", "Gen"),
    ("mış", "Narr"),
    ("miş", "Narr"),
    ("muş", "Narr"),
    ("müş", "Narr"),
    ("da", "Loc"),
    ("de", "Loc"),
    ("ta", "Loc"),
    ("te", "Loc"),
    ("ın", "Gen"),
    ("in", "Gen"),
    ("un", "Gen"),
    ("ün", "Gen"),
    ("ya", "Dat"),
    ("ye", "Dat"),
    ("yı", "Acc"),
    ("yi", "Acc"),
    ("yu", "Acc"),
    ("yü", "Acc"),
    ("dı", "Past"),
    ("di", "Past"),
    ("du", "Past"),
    ("dü", "Past"),
    ("tı", "Past"),
    ("ti", "Past"),
    ("tu", "Past"),
    ("tü", "Past"),
)


class MorphAnalysis(FrozenRecord):
    """One analyzed token: normalized surface, root, POS and suffix tags."""

    __slots__ = __match_args__ = ("raw", "root", "pos", "suffixes")

    def __init__(self, raw: str, root: str, pos: str, suffixes: tuple[str, ...] = ()) -> None:
        if not raw:
            raise ValueError("analysis raw form must be non-empty")
        if not root:
            raise ValueError("analysis root must be non-empty")
        if any(not tag for tag in suffixes):
            raise ValueError("suffix tags must be non-empty")
        _set(self, "raw", raw)
        _set(self, "root", root)
        _set(self, "pos", pos)
        _set(self, "suffixes", suffixes)


def analysis_from_json(item: object, raw: str | None = None) -> MorphAnalysis:
    """A MorphAnalysis from a decoded JSON object, or ValueError saying why not.

    Rule-table analyses pass their table surface as raw and carry no
    "raw" field; corpus analyses carry one.
    """
    keys = ("raw", "root", "pos") if raw is None else ("root", "pos")
    if not isinstance(item, dict):
        raise ValueError("must be an object")
    for key in keys:
        if not isinstance(item.get(key), str):
            raise ValueError(f"needs string {key!r}")
    suffixes = item.get("suffixes", [])
    if not isinstance(suffixes, list) or any(not isinstance(s, str) for s in suffixes):
        raise ValueError("'suffixes' must be a list of strings")
    extra = set(item) - {*keys, "suffixes"}
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    return MorphAnalysis(
        raw=item.get("raw", raw),
        root=item["root"],
        pos=item["pos"],
        suffixes=tuple(suffixes),
    )


class AnalyzerRuleTable(FrozenRecord):
    """Surface lookup table plus ordered fallback suffix rules.

    entries is keyed by normalized surface form and may be edited; a
    hit's raw form is that surface, whatever raw the entry lists.
    suffix_rules hold (surface, tag) pairs and are applied longest
    surface first. The fields cannot be reassigned, so the suffix index
    built here stays in step with suffix_rules. The table caches no
    analyses: lexicon.TermPipeline keeps the per-run token memo.
    """

    __match_args__ = ("entries", "suffix_rules")
    __slots__ = (*__match_args__, "_by_last_char")  # the index is no field

    def __init__(self, entries: dict[str, tuple[MorphAnalysis, ...]] | None = None,
                 suffix_rules: tuple[tuple[str, str], ...] = DEFAULT_SUFFIX_RULES) -> None:
        suffix_rules = tuple(sorted(suffix_rules, key=lambda rule: -len(rule[0])))  # stable
        # Bucket by final character so tokens that match nothing are
        # rejected with one dict probe instead of a scan of all rules.
        by_last_char: dict[str, list[tuple[str, str]]] = {}
        for surface, tag in suffix_rules:
            if not surface:
                raise ValueError("suffix rule surface must be non-empty")
            by_last_char.setdefault(surface[-1], []).append((surface, tag))
        _set(self, "entries", {} if entries is None else entries)
        _set(self, "suffix_rules", suffix_rules)
        _set(self, "_by_last_char", by_last_char)


# Rule table with no exact entries and the demo suffix rules.
DEFAULT_RULE_TABLE = AnalyzerRuleTable()


def _turkish(locale: Locale) -> bool:
    """Whether locale is TURKISH; TypeError for anything not a Locale,
    which would otherwise read as GENERIC."""
    if not isinstance(locale, Locale):
        raise TypeError(f"locale must be Locale, not {type(locale).__name__}")
    return locale is Locale.TURKISH


def normalize(token: str, locale: Locale = Locale.TURKISH) -> str:
    """Lowercase and strip surrounding punctuation.

    TURKISH maps I to dotless i and dotted I to i before lowercasing.
    normalize(normalize(x)) == normalize(x) holds for every input.
    """
    return normalize_token(token, _turkish(locale))


def compose_text(title: str | None, text: str, include_title: bool = True) -> str:
    """Join a title and body with a sentence boundary between them."""
    if not include_title or title is None or not title.strip():
        return text
    head = title.strip()
    if head[-1] not in TERMINALS:
        head += "."
    return f"{head} {text}" if text else head


def strip_suffixes(
    surface: str, table: AnalyzerRuleTable
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Strip the table's suffix rules off the right end of a surface form.

    Repeatedly removes the longest matching rule surface, never leaving
    an empty remainder. Returns the root and the matched (surface, tag)
    pairs in word order, so root plus the matched surfaces concatenates
    back to the input.
    """
    by_last = table._by_last_char
    rest = surface
    matched_rev: list[tuple[str, str]] = []
    while rest:
        bucket = by_last.get(rest[-1])
        if not bucket:
            break
        for suf, tag in bucket:
            if len(rest) > len(suf) and rest.endswith(suf):
                rest = rest[: -len(suf)]
                matched_rev.append((suf, tag))
                break
        else:
            break
    return rest, tuple(reversed(matched_rev))


def analyze_token(
    token: str, table: AnalyzerRuleTable, locale: Locale = Locale.TURKISH
) -> MorphAnalysis:
    """Analyze one token via table lookup, falling back to suffix stripping."""
    norm = normalize(token, locale)
    if not norm:
        raise AnalysisError(f"token {token!r} is empty after normalization")
    hit = table.entries.get(norm)
    if hit:
        return hit[0] if hit[0].raw == norm else hit[0]._replace(raw=norm)
    root, matched = strip_suffixes(norm, table)
    return MorphAnalysis(
        raw=norm, root=root, pos=UNKNOWN_POS, suffixes=tuple(tag for _, tag in matched)
    )


def analyze_text(
    text: str, table: AnalyzerRuleTable, locale: Locale, memo: dict[str, MorphAnalysis]
) -> list[MorphAnalysis]:
    """Analyses of a text's tokens, in token order, skipping tokens
    without a letter (numerals): they carry no morphology.

    memo maps tokens to their analyses under one table and locale, so
    each distinct token is analyzed once per memo; a failure names the
    token's position and is not memoized."""
    out: list[MorphAnalysis] = []
    for position, token in enumerate(tokenize(text)):
        analysis = memo.get(token)
        if analysis is None:
            if not has_letter(token):
                continue
            try:
                analysis = memo[token] = analyze_token(token, table, locale)
            except AnalysisError as exc:
                raise AnalysisError(f"token {position}: {exc}") from exc
        out.append(analysis)
    return out


def analyze_document(
    doc: "Document",
    table: AnalyzerRuleTable | None = None,
    *,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> list[MorphAnalysis]:
    """Analyses for a document's tokens, in token order.

    Pre-computed analyses on the document are returned unchanged. Text
    goes through analyze_text with a fresh memo: each distinct token is
    analyzed once per call, by lexicon.TermPipeline once per run.
    """
    if doc.analyses is not None:
        return list(doc.analyses)
    if table is None:
        table = DEFAULT_RULE_TABLE
    text = compose_text(doc.title, doc.text, include_title)
    return analyze_text(text, table, locale, {})


def load_rule_table(
    path: str,
    locale: Locale = Locale.TURKISH,
    suffix_rules: Iterable[tuple[str, str]] = DEFAULT_SUFFIX_RULES,
) -> AnalyzerRuleTable:
    """Load exact analyses from a JSONL file.

    Each line holds {"surface": ..., "analyses": [{"root", "pos",
    "suffixes"}, ...]}; surfaces are normalized at load and the listed
    order of analyses is preserved. Two lines whose surfaces normalize
    alike raise InputError.
    """
    entries: dict[str, tuple[MorphAnalysis, ...]] = {}
    first_line: dict[str, int] = {}
    with open_text(path, InputError) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip(" \t\n\r"):
                continue
            obj = parse_json(line, InputError, path, lineno)
            if not isinstance(obj, dict):
                raise InputError(f"{path}:{lineno}: expected an object")
            surface = obj.get("surface")
            listed = obj.get("analyses")
            if not isinstance(surface, str) or not surface:
                raise InputError(f"{path}:{lineno}: missing or empty 'surface'")
            if not isinstance(listed, list) or not listed:
                raise InputError(f"{path}:{lineno}: missing or empty 'analyses'")
            norm = normalize(surface, locale)
            if not norm:
                raise InputError(
                    f"{path}:{lineno}: surface {surface!r} is empty after normalization"
                )
            if norm in first_line:
                raise InputError(
                    f"{path}:{lineno}: duplicate surface {norm!r} "
                    f"(first on line {first_line[norm]})"
                )
            first_line[norm] = lineno
            try:
                entries[norm] = tuple(analysis_from_json(a, raw=norm) for a in listed)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad analysis: {exc}") from exc
    return AnalyzerRuleTable(entries=entries, suffix_rules=tuple(suffix_rules))


def load_suffix_rules(path: str) -> tuple[tuple[str, str], ...]:
    """Load (surface, tag) fallback rules from a TSV file.

    One rule per line, surface and tag separated by a tab. Blank lines
    and lines starting with # are ignored, and so is one leading byte
    order mark. A surface must be lowercase: rules are matched against
    normalized surfaces only, so any other surface could never match.
    """
    rules: list[tuple[str, str]] = []
    with open_text(path, InputError, "utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise InputError(
                    f"{path}:{lineno}: expected 'surface<TAB>tag', got {body!r}"
                )
            if parts[0].lower() != parts[0]:
                raise InputError(f"{path}:{lineno}: suffix {parts[0]!r} is not lowercase")
            rules.append((parts[0], parts[1]))
    return tuple(rules)

"""Text kernels: tokenizing, normalization and suffix runs.

The rule set, which tests/oracle.py restates character by character
for the parity tests in tests/test_kernels.py:

* a token is a maximal run of alphanumeric characters (str.isalnum),
  where a single apostrophe (' or U+2019) or hyphen-minus joins two
  runs when it has an alphanumeric character on both sides;
* normalization strips non-alphanumeric characters from both ends,
  applies the Turkish I mappings (I -> dotless i, dotted I -> i) when
  requested, lowercases, then strips the ends again because
  lowercasing U+0130 can leave a combining mark at an edge;
* suffix_runs serializes every contiguous run of a tag sequence with
  "-" joins, shortest runs first, equal lengths ordered by start.

normalized_tokens works on the whole text: it applies the Turkish
mapping and lowercases once, then tokenizes the result. That equals
normalizing token by token because str.lower maps each code point to
one code point, keeps it alphanumeric or not and leaves the joiners
and the underscore alone (tests/test_kernels.py checks this over all
of Unicode). Two exceptions fall back to the per-token loop: U+03A3
(capital sigma), whose lowercase depends on the characters around it,
and U+0130 (dotted capital I) under generic casing, which lowercases
to i plus a non-alphanumeric combining dot.

The regular expressions rely on re treating \\w as exactly
str.isalnum plus the underscore; the character classes subtract the
underscore again.
"""

import re

_TOKEN = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")
_EDGE = re.compile(r"^[\W_]+|[\W_]+$")


def _lower(text, turkish):
    """Lowercase, after the Turkish I mappings when requested."""
    if turkish:
        text = text.replace("I", "ı").replace("İ", "i")
    return text.lower()


def tokenize(text):
    """Split text into tokens, keeping intra-word apostrophes and hyphens."""
    return _TOKEN.findall(text)


def normalize_token(token, turkish):
    """Lowercase a token and strip surrounding punctuation. Idempotent.

    Returns the token itself when it is already normalized.
    """
    if token.isalnum():
        # Lowercasing keeps it alphanumeric: no edge to strip. A token
        # that lowercases to itself holds neither I nor dotted I.
        norm = token.lower()
        if norm == token:
            return token
        if turkish:
            return _lower(token, True)
        if "İ" not in token:
            return norm
    return _EDGE.sub("", _lower(_EDGE.sub("", token), turkish))


def has_letter(token):
    """True if any character is alphabetic."""
    return any(ch.isalpha() for ch in token)


def normalized_tokens(text, turkish, letters_only=False):
    """Tokenize and normalize in one pass, dropping empty results.

    With letters_only, tokens without a single alphabetic character
    (numerals, mostly) are skipped.
    """
    if "Σ" not in text and (turkish or "İ" not in text):
        text = _lower(text, turkish)
        if letters_only:
            return [
                t for t in _TOKEN.findall(text)
                if t.isalpha() or not t.isdecimal() and any(ch.isalpha() for ch in t)
            ]
        return _TOKEN.findall(text)
    out = []
    for tok in _TOKEN.findall(text):
        if letters_only and not any(ch.isalpha() for ch in tok):
            continue
        norm = normalize_token(tok, turkish)
        if norm:
            out.append(norm)
    return out


def suffix_runs(tags):
    """Serialize all contiguous runs of a suffix tag sequence."""
    k = len(tags)
    out = []
    for length in range(1, k + 1):
        for start in range(k - length + 1):
            out.append("-".join(tags[start : start + length]))
    return out

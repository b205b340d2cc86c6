"""Exception taxonomy shared across the toolkit.

Each error family carries the CLI's exit code for it: InputError 2,
DomainError 3, FormatError 4; the CLI exits 2 for I/O problems and any
error without one. open_text and parse_json raise a loader's own type
for undecodable or unparsable input.
"""

import json
from contextlib import contextmanager
from typing import IO, Iterator


class FanlexError(Exception):
    """Base class for all toolkit errors."""


class InputError(FanlexError):
    """Malformed input data: corpora, word lists or rule tables."""

    exit_code = 2


class CorpusParseError(InputError):
    """A corpus line failed to parse or validate; the message names it."""


class DuplicateDocumentError(InputError):
    """Two documents share an id."""


class AnalysisError(InputError):
    """A token could not be analyzed, e.g. empty after normalization."""


class DomainError(FanlexError):
    """A precondition on otherwise well-formed data was violated."""

    exit_code = 3


class EmptyTrainingSplitError(DomainError):
    """A training split has no documents or yields no terms."""


class FoldSizeError(DomainError):
    """Some label has too few documents for the requested fold count."""


class LeakageError(DomainError):
    """Train and test splits share document ids."""


class NoSentencesError(DomainError):
    """Per-sentence statistics need at least one sentence."""


class ModelMismatchError(DomainError):
    """Lexicons disagree on model class, count mode or smoothing."""


class FormatError(FanlexError):
    """A persisted lexicon file is unreadable or inconsistent."""

    exit_code = 4


class LexiconParseError(FormatError):
    """The lexicon file does not follow the expected line format."""


class LexiconVersionError(FormatError):
    """The lexicon file declares an unsupported format version."""


class LexiconChecksumError(FormatError):
    """The stored checksum does not match the entry lines."""


class LexiconConsistencyError(FormatError):
    """Stored totals or entries contradict each other."""


@contextmanager
def open_text(
    path: str, error: type[FanlexError], encoding: str = "utf-8"
) -> Iterator[IO[str]]:
    """Open a UTF-8 text file; undecodable bytes raise `error` naming it.
    Encoding "utf-8-sig" drops one leading byte order mark."""
    with open(path, encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 text ({exc.reason})") from exc


_scan = json.JSONDecoder().scan_once


def parse_json(text: str, error: type[FanlexError], path: str, lineno: int) -> object:
    """json.loads; text it cannot parse raises `error` naming `path:lineno`.

    That includes integers past the interpreter's digit limit
    (ValueError), nesting past the recursion limit, and a string holding
    a lone surrogate, which no output could encode as UTF-8. A value the
    scanner takes whole, followed by JSON whitespace only, skips
    json.loads, which would scan it again to the same result.
    """
    try:
        try:
            obj, end = _scan(text, 0)
        except StopIteration:
            end = -1
        if end != len(text) and (end < 0 or text[end:].strip(" \t\n\r")):
            obj = json.loads(text)
        # Strictly decoded UTF-8 holds no surrogate, so one can only come
        # from a \uD800-style escape; a valid pair decodes to one character.
        if "\\" in text and ("\\ud" in text or "\\uD" in text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return obj
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
    except UnicodeEncodeError as exc:
        raise error(f"{path}:{lineno}: string holds a lone surrogate") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}:{lineno}: invalid JSON ({exc})") from exc

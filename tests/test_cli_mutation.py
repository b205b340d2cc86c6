"""The commands that read a lexicon file, run on a mutated one.

Each example damages a built lexicon once: a flipped byte, a dropped,
duplicated or swapped line, or one JSON value replaced by an extreme.
Some examples then make the header's totals and checksum agree with the
damaged entries again, so parsing reaches the later checks and the
scores worked out at lookup. Whatever the damage, `main` returns 0, 2,
3 or 4 without raising; a failed run prints nothing on stdout, and a
run that succeeds prints only finite numbers.
"""

import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlex.cli import main
from fanlex.corpus import Label, save_corpus
from fanlex.lexicon import ModelClass, _checksum, build_lexicon, save_lexicon
from synth import separable_corpus

# JSON texts that one value of a header or entry line becomes.
EXTREMES = [
    "1" + "0" * 400,  # 10**400, too large for a float
    "1e308",
    "1e309",  # parses as infinity
    "-1",
    "-0",
    "-0.0",
    "0.5",
    '""',
    "true",
    "null",
    "NaN",
    "Infinity",
    "[" * 5000 + "]" * 5000,  # nested past the recursion limit
    '"\\ud800"',  # a lone surrogate
    '"\u00a0"',  # JSON strings may hold these raw: no-break space,
    '"\u2028"',  # line separator
    '"\ufeff"',  # and byte order mark
]

COMMANDS = {
    "score --explain": ["score", "--lexicon", "{lex}", "--input", "{test}", "--explain", "3"],
    "inspect-term": ["inspect-term", "--term", "fraudcore", "--lexicon", "{lex}"],
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A built RAW lexicon's lines, each a JSON object, and the paths the
    commands read."""
    root = tmp_path_factory.mktemp("mutation")
    rng = random.Random(5)
    train = separable_corpus(rng, 6, 6, prefix="tr")
    save_corpus(separable_corpus(rng, 3, 3, prefix="te"), str(root / "test.jsonl"))
    lex = build_lexicon(
        train.filter(Label.FAKE), train.filter(Label.VALID), ModelClass.RAW, smoothing=0.5
    )
    save_lexicon(lex, str(root / "base.lex"))
    lines = (root / "base.lex").read_text(encoding="utf-8").split("\n")[:-1]
    return lines, {"lex": root / "mutated.lex", "test": root / "test.jsonl"}


def _mutate(data, lines):
    """The lexicon's bytes after one mutation drawn from `data`."""
    lines = list(lines)
    kind = data.draw(st.sampled_from(["flip", "drop", "duplicate", "swap", "value"]))
    at = data.draw(st.integers(0, len(lines) - 1))
    if kind == "flip":
        raw = bytearray(_joined(lines))
        i = data.draw(st.integers(0, len(raw) - 1))
        raw[i] ^= data.draw(st.integers(1, 255))
        return bytes(raw)
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = data.draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        obj = json.loads(lines[at])
        obj[data.draw(st.sampled_from(sorted(obj)))] = "\x00"
        extreme = data.draw(st.sampled_from(EXTREMES))
        lines[at] = json.dumps(obj).replace('"\\u0000"', extreme)
    return _joined(lines)


def _joined(lines):
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _refit(raw):
    """raw with the header's totals and checksum made to agree with its
    entry lines, where the header still parses as an object."""
    try:
        text = raw.decode("utf-8")
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        header = json.loads(lines[0])
    except (UnicodeDecodeError, ValueError, RecursionError):
        return raw
    if not isinstance(header, dict):
        return raw
    kept = [line for line in lines[1:] if line.strip(" \t\n\r")]
    totals = [0, 0]
    for line in kept:
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(entry, dict):
            for i, key in enumerate(("fc", "vc")):
                if type(entry.get(key)) is int:
                    totals[i] += entry[key]
    header.update(fake_total=totals[0], valid_total=totals[1], checksum=_checksum(kept))
    return "\n".join([json.dumps(header), *lines[1:]]).encode("utf-8")


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _run(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
    return code, stdout.buffer.getvalue(), stderr.buffer.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data(), refit=st.booleans())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_mutated_lexicon_ends_in_an_exit_code(base, command, data, refit):
    lines, paths = base
    raw = _mutate(data, lines)
    paths["lex"].write_bytes(_refit(raw) if refit else raw)
    argv = [part.format(**paths) for part in COMMANDS[command]]
    code, stdout, stderr = _run(argv)
    assert code in (0, 2, 3, 4), stderr
    if code:
        assert stdout == b""
        return
    for line in stdout.decode("utf-8").splitlines():
        for number in _numbers(json.loads(line)):
            assert math.isfinite(number), line

"""Every command, run on one mutated input file.

Each example damages one input once: a flipped, inserted or deleted
byte, a dropped, duplicated or swapped line, or one value replaced by
an extreme (a JSON value of a lexicon, corpus or rule-table line, or
the text of a config or word-list line). For the lexicon files, some
examples then make the header's totals and checksum agree with the
damaged entries again, so parsing reaches the later checks and the
scores worked out at lookup. Whatever the damage, `main` returns
without raising, and the exit code is the damaged file's own: 4, the
format family, for a lexicon, and 2, the input family, for any other
file, in both cases with a message that names the file; or 3, a domain
error of well-formed data, such as too few documents for the folds,
which need name no file; or 0. A config file that still loads is a set
of settings, and the run may fail for them as it would given them as
flags, naming no file. A failed run prints nothing on stdout
and leaves every output file as it was. A run that succeeds has read
the damaged file whole, so the file is UTF-8 and each line of a JSON
lines file that is not JSON whitespace alone is one JSON value with no
lone surrogate; it prints only finite numbers and writes a lexicon
that loads again.
"""

import hashlib
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
from fanlex.config import load_config_file, make_config
from fanlex.corpus import Dataset, Document, Label, save_corpus
from fanlex.errors import InputError
from fanlex.lexicon import ModelClass, build_lexicon, load_lexicon, save_lexicon
from synth import separable_corpus

# JSON texts that one value of a JSON line, or a text line's value, becomes.
EXTREMES = [
    "1" + "0" * 400,  # 10**400, too large for a float
    "9" * 4300,  # the most digits int() reads; one more is past int -> str's limit
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

# The mutation menu, in groups: each input command's property runs once
# per group, so that no group is drawn too rarely to find anything.
MUTATIONS = {
    "value": ("value",),
    "byte": ("flip", "insert", "delete"),
    "line": ("drop", "duplicate", "swap"),
}
ALL_MUTATIONS = tuple(kind for group in MUTATIONS.values() for kind in group)

# Bytes that str.strip takes for space: JSON's own, then the rest of ASCII's.
SPACES = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"

# The inputs in JSON lines formats; the others are lines of text.
JSON_LINES = {"lex", "fake", "valid", "test", "corpus", "table"}

COMMANDS = {
    "score --explain": ["score", "--lexicon", "{lex}", "--input", "{test}", "--explain", "3"],
    "inspect-term": ["inspect-term", "--term", "fraudcore", "--lexicon", "{lex}"],
}

# The other commands: argv, without the --config and --report that each
# also gets, and the inputs an example may mutate besides the config file.
INPUT_COMMANDS = {
    "build-lexicon --rule-table": (
        ["build-lexicon", "--fake", "{fake}", "--valid", "{valid}", "--class", "RAW_POS",
         "--rule-table", "{table}", "--out", "{out}"],
        ["fake", "valid", "table"],
    ),
    "evaluate": (
        ["evaluate", "--train-fake", "{fake}", "--train-valid", "{valid}", "--test", "{test}"],
        ["fake", "valid", "test"],
    ),
    "cross-validate": (["cross-validate", "--input", "{corpus}", "--folds", "2"], ["corpus"]),
    "corpus-stats": (["corpus-stats", "--input", "{corpus}"], ["corpus"]),
    "verify-corpus": (
        ["verify-corpus", "--input", "{corpus}", "--slang", "{slang}", "--dictionary", "{dict}"],
        ["corpus", "slang", "dict"],
    ),
}

# Every setting, so each one can be damaged: config files are shared by
# all commands, and each reads the settings it needs.
CONFIG = """\
# run settings
locale = TURKISH
count_mode = DOC_PRESENCE
term_set_mode = MULTISET
smoothing = 0.5
seed = 3
include_title = true
display_scale = 100
"""


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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each input's lines by name, and the path of every file a command names."""
    root = tmp_path_factory.mktemp("inputs")
    rng = random.Random(7)
    # Pre-analyzed documents and titled plain text that the rule table,
    # the suffix rules and the Turkish casing rule all see.
    titled = {
        "tf": ("IRMAK taştı", "Kitaplar İZMİR'de yandı. Vergi yok!"),
        "tv": ("İzmir", "Irmak evlerde. Kitaplar 47 sayfa."),
        "ef": (None, "Vergi yok insanlara, IRMAK taştı."),
        "ev": ("Haber", "İzmir'de kitaplar evlerde."),
    }
    plain = {
        key: Document(id=key, title=title, text=text, label=label)
        for (key, (title, text)), label in zip(titled.items(), [Label.FAKE, Label.VALID] * 2)
    }
    train = separable_corpus(rng, 2, 2, prefix="tr")
    test = separable_corpus(rng, 1, 1, prefix="te")
    corpora = {
        "fake": [*train.filter(Label.FAKE).documents, plain["tf"]],
        "valid": [*train.filter(Label.VALID).documents, plain["tv"]],
        "test": [*test.documents, plain["ef"], plain["ev"]],
    }
    corpora["corpus"] = [*corpora["fake"], *corpora["valid"]]
    for name, docs in corpora.items():
        save_corpus(Dataset(tuple(docs)), str(root / name))
    table = [
        {"surface": "ırmak", "analyses": [{"root": "ırmak", "pos": "Noun"}]},
        {"surface": "kitaplar",
         "analyses": [{"root": "kitap", "pos": "Noun", "suffixes": ["A3pl"]}]},
        {"surface": "izmir", "analyses": [{"root": "izmir", "pos": "Prop"}]},
    ]
    texts = {
        "table": "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in table),
        "slang": "# slang\nyok\nırmak taştı\n",
        "dict": "kitaplar\nizmir\nevlerde\nvergi\nsayfa\n",
        "config": CONFIG,
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    lines = {
        name: (root / name).read_text(encoding="utf-8").split("\n")[:-1]
        for name in [*corpora, *texts]
    }
    paths = {name: root / name for name in [*lines, "out", "report"]}
    return lines, paths


def _input_argv(command, paths):
    template, _ = INPUT_COMMANDS[command]
    argv = [part.format(**paths) for part in template]
    return [*argv, "--config", str(paths["config"]), "--report", str(paths["report"])]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_unmutated_inputs_succeed(inputs, command):
    lines, paths = inputs
    for name, original in lines.items():
        paths[name].write_bytes(_joined(original))
    code, stdout, stderr = _run(_input_argv(command, paths))
    assert code == 0, stderr
    assert stdout


@pytest.mark.parametrize("kinds", MUTATIONS.values(), ids=MUTATIONS)
@pytest.mark.parametrize("command", INPUT_COMMANDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutated_input_ends_in_an_exit_code(inputs, command, kinds, data):
    lines, paths = inputs
    _, targets = INPUT_COMMANDS[command]
    target = data.draw(st.sampled_from([*targets, "config"]))
    for name, original in lines.items():
        mutated = _mutate(data, original, kinds) if name == target else _joined(original)
        paths[name].write_bytes(mutated)
    before = b"earlier bytes\n"
    for name in ("out", "report"):
        paths[name].write_bytes(before)
    code, stdout, stderr = _run(_input_argv(command, paths))
    _check_exit(code, stderr, target, paths[target])
    if code:
        assert stdout == b""
        assert paths["out"].read_bytes() == paths["report"].read_bytes() == before
        return
    for line in stdout.decode("utf-8").splitlines():
        for number in _numbers(json.loads(line)):
            assert math.isfinite(number), line
    if command.startswith("build-lexicon"):
        load_lexicon(str(paths["out"]))


def _check_exit(code, stderr, target, path):
    """The exit code is the damaged file's fault family's, 3 or 0, as the
    module docstring says; a run that succeeds read the file as it is."""
    family = 4 if target == "lex" else 2
    assert code in ((0, 4) if family == 4 else (0, 2, 3)), stderr
    if code == family and not _loads_as_settings(target, path):
        assert str(path).encode("utf-8") in stderr, stderr
    if code == 0:
        text = path.read_bytes().decode("utf-8")
        if target in JSON_LINES:
            for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
                if line.strip(" \t\n\r"):
                    json.dumps(json.loads(line), ensure_ascii=False).encode("utf-8")


def _loads_as_settings(target, path):
    """Whether path is a config file whose settings load: a run may then fail
    for those settings, as it would given them as flags, naming no file."""
    if target != "config":
        return False
    try:
        make_config(load_config_file(str(path)))
    except InputError:
        return False
    return True


def _mutate(data, lines, kinds=ALL_MUTATIONS):
    """A file's bytes, given as its lines, after one mutation of one of
    `kinds` drawn from `data`."""
    lines = list(lines)
    kind = data.draw(st.sampled_from(kinds))
    at = data.draw(st.integers(0, len(lines) - 1))
    if kind in ("flip", "insert", "delete"):
        raw = bytearray(_joined(lines))
        # The file's end and its line edges as often as the rest, and bytes
        # that str.strip takes for space as often as any: an inserted byte
        # may open or end a line, or follow the last one.
        end = len(raw) if kind == "insert" else len(raw) - 1
        edges = [0, *(j + d for j, b in enumerate(raw) if b == 10 for d in (0, 1) if j + d <= end)]
        i = data.draw(st.just(end) | st.sampled_from(edges) | st.integers(0, end))
        if kind == "flip":
            raw[i] ^= data.draw(st.integers(1, 255))
        elif kind == "insert":
            raw.insert(i, data.draw(st.sampled_from(SPACES) | st.integers(0, 255)))
        else:
            del raw[i]
        return bytes(raw)
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = data.draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        lines[at] = _replace_value(data, lines[at])
    return _joined(lines)


def _replace_value(data, line):
    """line with one value replaced by an extreme: a top-level value of a
    JSON object, the value of a `key = value` line, or a whole other line."""
    try:
        obj = json.loads(line)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        obj[data.draw(st.sampled_from(sorted(obj)))] = "\x00"
        extreme = data.draw(st.sampled_from(EXTREMES))
        return json.dumps(obj).replace('"\\u0000"', extreme)
    key, equals, _ = line.partition("=")
    return (key + equals if equals else "") + data.draw(st.sampled_from(EXTREMES))


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
    header["checksum"] = hashlib.sha256(_joined(kept)).hexdigest()
    try:
        text = json.dumps({**header, "fake_total": totals[0], "valid_total": totals[1]})
    except ValueError:  # a sum past int -> str's digit limit: the checksum alone agrees
        text = json.dumps(header)
    return "\n".join([text, *lines[1:]]).encode("utf-8")


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
    _check_exit(code, stderr, "lex", paths["lex"])
    if code:
        assert stdout == b""
        return
    for line in stdout.decode("utf-8").splitlines():
        for number in _numbers(json.loads(line)):
            assert math.isfinite(number), line

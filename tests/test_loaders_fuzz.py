"""File loaders end in a typed error, never another exception type.

Whatever bytes a corpus, lexicon, config, rule table, word list or
suffix rule file holds, loading either succeeds or raises a FanlexError
(or an OSError for the file itself), which the CLI maps to its exit
codes.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fanlex.config import load_config_file
from fanlex.corpus import load_corpus, load_word_list
from fanlex.errors import CorpusParseError, FanlexError, InputError, LexiconParseError
from fanlex.lexicon import load_lexicon
from fanlex.morph import load_rule_table, load_suffix_rules

# Pieces of every supported format, so generated files get past the
# first checks of each loader and reach the later ones.
FRAGMENTS = [
    '{"id":"a","text":"Vergi yok.","label":"FAKE"}',
    '{"id":"b","title":"T","text":"x","label":"VALID","source":"s"}',
    '"analyses":[{"raw":"ev","root":"ev","pos":"Noun","suffixes":["Loc"]}]',
    '{"format":"fanlex-lexicon","version":1,"class":"RAW",'
    '"count_mode":"TOKEN_FREQ","fake_total":1,"valid_total":1,"smoothing":0.0}',
    '{"t":"a","fc":1,"vc":0}',
    '"checksum":"0"',
    '{"surface":"ev","analyses":[{"root":"ev","pos":"Noun"}]}',
    '"suffixes":"Abl"',
    "seed = 3",
    "locale = turkish",
    "count_mode = doc_presence",
    "include_title = maybe",
    "smoothing = 1e999",
    "lar\tA3pl",
    "# comment",
    "{", "}", "[", "]", ",", ":", '"', "=", "null", "true", "1", "-1", "0.5",
    "\n", "\r\n", " ", " ", "\x85", "\x00",
]

texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=6)), max_size=16
).map("".join)


@st.composite
def mutated(draw):
    """UTF-8 text with a few arbitrary bytes spliced in."""
    data = draw(texts).encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]


file_bytes = st.one_of(
    st.binary(max_size=120),
    texts.map(lambda s: s.encode()),
    mutated(),
)

LOADERS = [
    load_corpus,
    load_lexicon,
    load_config_file,
    load_rule_table,
    load_word_list,
    load_suffix_rules,
]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@given(data=file_bytes)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_loader_ends_in_typed_error(fuzz_path, loader, data):
    fuzz_path.write_bytes(data)
    try:
        loader(str(fuzz_path))
    except (FanlexError, OSError):
        pass


@pytest.mark.parametrize(
    "loader,error",
    [
        (load_corpus, CorpusParseError),
        (load_lexicon, LexiconParseError),
        (load_config_file, InputError),
        (load_rule_table, InputError),
        (load_word_list, InputError),
        (load_suffix_rules, InputError),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_loader_maps_undecodable_bytes(tmp_path, loader, error):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(error, match="input.txt: not valid UTF-8"):
        loader(str(path))


def _lexicon_with_entry_line(line):
    """A lexicon file whose checksum covers the given entry line."""
    header = {
        "format": "fanlex-lexicon",
        "version": 1,
        "class": "RAW",
        "count_mode": "TOKEN_FREQ",
        "fake_total": 1,
        "valid_total": 0,
        "checksum": hashlib.sha256(f"{line}\n".encode()).hexdigest(),
    }
    return f"{json.dumps(header)}\n{line}\n"


def _one_line(line):
    return line + "\n"


# Each JSON line a loader reads: the loader, its error type, the file
# text around the line, and the line's number.
JSON_LINES = [
    pytest.param(load_corpus, CorpusParseError, _one_line, 1,
                 id="load_corpus-CorpusParseError"),
    pytest.param(load_rule_table, InputError, _one_line, 1,
                 id="load_rule_table-InputError"),
    pytest.param(load_lexicon, LexiconParseError, _one_line, 1,
                 id="load_lexicon-LexiconParseError"),
    pytest.param(load_lexicon, LexiconParseError, _lexicon_with_entry_line, 2,
                 id="load_lexicon_entry-LexiconParseError"),
]

# Nesting past the recursion limit raises RecursionError, and integers
# past the digit limit a plain ValueError, inside json.loads.
PARSER_LIMITS = ["[" * 100_000, '{"t":"a","fc":' + "1" * 5000 + ',"vc":0}']


@pytest.mark.parametrize("line", PARSER_LIMITS, ids=["nesting", "digits"])
@pytest.mark.parametrize("loader,error,text,lineno", JSON_LINES)
def test_json_loader_types_parser_limits(tmp_path, loader, error, text, lineno, line):
    path = tmp_path / "input.jsonl"
    path.write_text(text(line), encoding="utf-8")
    with pytest.raises(error, match=f"input.jsonl:{lineno}: invalid JSON"):
        loader(str(path))


@pytest.mark.parametrize("loader,error,text,lineno", JSON_LINES)
def test_json_loader_refuses_lone_surrogate(tmp_path, loader, error, text, lineno):
    """A JSON escape can spell a lone surrogate, which no output could
    encode: every JSON line refuses it with its loader's error."""
    path = tmp_path / "input.jsonl"
    path.write_text(text(r'{"t":"a\ud800","fc":1,"vc":0}'), encoding="utf-8")
    with pytest.raises(error, match=f"input.jsonl:{lineno}: string holds a lone surrogate$"):
        loader(str(path))

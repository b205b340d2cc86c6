import ast
from pathlib import Path

import pytest

import fanlex
from fanlex import config, lexicon, morph, scorer
from fanlex.config import RunConfig, load_config_file, make_config
from fanlex.errors import InputError
from fanlex.lexicon import CountMode
from fanlex.morph import Locale
from fanlex.scorer import TermSetMode


def test_defaults():
    cfg = RunConfig()
    assert cfg.locale is Locale.TURKISH
    assert cfg.count_mode is CountMode.TOKEN_FREQ
    assert cfg.term_set_mode is TermSetMode.DISTINCT
    assert cfg.smoothing == 0.0
    assert cfg.seed == 0
    assert cfg.include_title is True
    assert cfg.display_scale == 1.0


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(smoothing=-1.0)
    with pytest.raises(ValueError):
        RunConfig(display_scale=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(smoothing=bad)
        with pytest.raises(ValueError):
            RunConfig(display_scale=bad)


def test_to_dict_round_trips_names():
    d = RunConfig(seed=3, smoothing=0.5).to_dict()
    assert d["locale"] == "TURKISH"
    assert d["count_mode"] == "TOKEN_FREQ"
    assert d["term_set_mode"] == "DISTINCT"
    assert d["seed"] == 3
    assert d["smoothing"] == 0.5
    assert d["include_title"] is True


def test_load_config_file(write_text):
    path = write_text(
        "run.conf",
        "# comment\n"
        "locale = generic\n"
        "count_mode = doc_presence  # trailing comment\n"
        "term_set_mode = MULTISET\n"
        "smoothing = 0.25\n"
        "seed = 42\n"
        "include_title = false\n"
        "display_scale = 1000\n"
        "\n",
    )
    values = load_config_file(path)
    assert values == {
        "locale": Locale.GENERIC,
        "count_mode": CountMode.DOC_PRESENCE,
        "term_set_mode": TermSetMode.MULTISET,
        "smoothing": 0.25,
        "seed": 42,
        "include_title": False,
        "display_scale": 1000.0,
    }


def test_load_config_file_ignores_byte_order_mark(write_text):
    path = write_text("bom.conf", "\ufeffsmoothing = 0.5\n")
    assert load_config_file(path) == {"smoothing": 0.5}


@pytest.mark.parametrize(
    "line,needle",
    [
        ("nonsense\n", "expected 'key = value'"),
        ("mystery = 3\n", "unknown config key"),
        ("seed = many\n", "bad value"),
        ("locale = KLINGON\n", "bad value"),
        ("include_title = maybe\n", "bad value"),
        ("seed = 1_0\n", "bad value '1_0' for 'seed'"),
        ("smoothing = 1_0.5\n", "bad value '1_0.5' for 'smoothing'"),
        ("display_scale = 1_000\n", "bad value"),
    ],
)
def test_load_config_file_rejects(write_text, line, needle):
    path = write_text("bad.conf", line)
    with pytest.raises(InputError) as err:
        load_config_file(path)
    msg = str(err.value)
    assert ":1:" in msg
    assert needle in msg


def test_load_config_file_rejects_repeated_key(write_text):
    path = write_text("dup.conf", "smoothing = 0.5\n# comment\nSmoothing = 0\n")
    with pytest.raises(InputError) as err:
        load_config_file(path)
    assert str(err.value) == f"{path}:3: duplicate config key 'smoothing' (first on line 1)"


def test_make_config_precedence():
    file_values = {"seed": 5, "smoothing": 0.5}
    cfg = make_config(file_values, seed=9, include_title=None)
    assert cfg.seed == 9
    assert cfg.smoothing == 0.5
    assert cfg.include_title is True


def test_make_config_rejects_bad_merge():
    with pytest.raises(InputError):
        make_config({"smoothing": -2.0})


@pytest.mark.parametrize(
    "field,value",
    [
        ("locale", "TURKISH"),
        ("locale", CountMode.TOKEN_FREQ),
        ("count_mode", "DOC_PRESENCE"),
        ("term_set_mode", "MULTISET"),
        ("smoothing", "0.5"),
        ("smoothing", True),
        ("seed", 1.0),
        ("seed", "1"),
        ("seed", True),
        ("include_title", "no"),
        ("include_title", 0),
        ("display_scale", None),
        ("display_scale", False),
    ],
)
def test_wrong_types_are_refused(field, value):
    with pytest.raises(TypeError, match=field):
        RunConfig(**{field: value})
    if value is not None:
        with pytest.raises(InputError, match="bad configuration"):
            make_config(**{field: value})


def test_ints_are_accepted_as_floats():
    cfg = RunConfig(smoothing=1, display_scale=3)
    assert cfg.smoothing == 1
    assert cfg.to_dict()["display_scale"] == 3


def test_config_imports_no_fanlex_module_but_errors():
    # Every module below the CLI builds or reads a RunConfig, so config.py
    # may import none of them: that import would be circular.
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith(("fanlex", "."))} == {"fanlex.errors"}


def test_setting_enums_are_the_config_objects():
    assert morph.Locale is fanlex.Locale is config.Locale
    assert lexicon.CountMode is fanlex.CountMode is config.CountMode
    assert scorer.TermSetMode is fanlex.TermSetMode is config.TermSetMode

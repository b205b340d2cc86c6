"""Kernel behavior plus pure/compiled parity."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanlex._kernels import _pure

try:
    from fanlex._kernels import _ckernels
except ImportError:
    _ckernels = None

BACKENDS = [pytest.param(_pure, id="pure")]
if _ckernels is not None:
    BACKENDS.append(pytest.param(_ckernels, id="compiled"))

needs_compiled = pytest.mark.skipif(
    _ckernels is None, reason="compiled kernels not built"
)

# Mix of scripts, Turkish casing, connectors and junk.
text_strategy = st.text(
    alphabet=st.one_of(
        st.sampled_from("abcçdeğIİiıoöşuü0123456789'’ʼ-_ .,!?\"()…\t\n"),
        st.characters(),
    ),
    max_size=80,
)


@pytest.mark.parametrize("kernels", BACKENDS)
def test_tokenize_examples(kernels):
    assert kernels.tokenize("") == []
    assert kernels.tokenize("Ta Küba! Kim gidecek demeyin!") == [
        "Ta",
        "Küba",
        "Kim",
        "gidecek",
        "demeyin",
    ]
    assert kernels.tokenize("47 yıldır cinayet işlenmedi.") == [
        "47",
        "yıldır",
        "cinayet",
        "işlenmedi",
    ]
    assert kernels.tokenize("Küba'da gezi-yazısı") == ["Küba'da", "gezi-yazısı"]
    assert kernels.tokenize("a--b a'b'c don't _x_ '-") == ["a", "b", "a'b'c", "don't", "x"]
    assert kernels.tokenize("...!?") == []


@pytest.mark.parametrize("kernels", BACKENDS)
def test_normalize_examples(kernels):
    assert kernels.normalize_token("Bile", True) == "bile"
    assert kernels.normalize_token("İNANILMAZ", True) == "inanılmaz"
    assert kernels.normalize_token("ISPARTA", True) == "ısparta"
    assert kernels.normalize_token('"Küba!"', True) == "küba"
    assert kernels.normalize_token("--", True) == ""
    assert kernels.normalize_token("Küba'da", True) == "küba'da"
    # Generic casing keeps the dotted/dotless distinction out of it.
    assert kernels.normalize_token("ISPARTA", False) == "isparta"


@pytest.mark.parametrize("kernels", BACKENDS)
def test_normalized_tokens_matches_composition(kernels):
    text = "İNANILMAZ AMA DOĞRU. Ta Küba! 47 yıl."
    expected = [
        kernels.normalize_token(tok, True) for tok in kernels.tokenize(text)
    ]
    assert kernels.normalized_tokens(text, True) == expected
    letters = [
        kernels.normalize_token(tok, True)
        for tok in kernels.tokenize(text)
        if kernels.has_letter(tok)
    ]
    assert kernels.normalized_tokens(text, True, True) == letters
    assert "47" not in kernels.normalized_tokens(text, True, True)


@pytest.mark.parametrize("kernels", BACKENDS)
def test_suffix_runs_order_and_count(kernels):
    assert kernels.suffix_runs([]) == []
    assert kernels.suffix_runs(["A3pl"]) == ["A3pl"]
    assert kernels.suffix_runs(["S1", "S2", "S3"]) == [
        "S1",
        "S2",
        "S3",
        "S1-S2",
        "S2-S3",
        "S1-S2-S3",
    ]
    for k in range(9):
        tags = [f"T{i}" for i in range(k)]
        assert len(kernels.suffix_runs(tags)) == k * (k + 1) // 2


@pytest.mark.parametrize("kernels", BACKENDS)
@given(token=text_strategy)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(kernels, token):
    for turkish in (True, False):
        once = kernels.normalize_token(token, turkish)
        assert kernels.normalize_token(once, turkish) == once


@needs_compiled
@given(text=text_strategy)
@settings(max_examples=300, deadline=None)
def test_tokenize_parity(text):
    assert _pure.tokenize(text) == _ckernels.tokenize(text)


@needs_compiled
@given(token=text_strategy, turkish=st.booleans())
@settings(max_examples=300, deadline=None)
def test_normalize_parity(token, turkish):
    assert _pure.normalize_token(token, turkish) == _ckernels.normalize_token(
        token, turkish
    )


@needs_compiled
@given(text=text_strategy, turkish=st.booleans(), letters_only=st.booleans())
@settings(max_examples=300, deadline=None)
def test_normalized_tokens_parity(text, turkish, letters_only):
    assert _pure.normalized_tokens(text, turkish, letters_only) == (
        _ckernels.normalized_tokens(text, turkish, letters_only)
    )


@needs_compiled
@given(token=text_strategy)
@settings(max_examples=200, deadline=None)
def test_has_letter_parity(token):
    assert _pure.has_letter(token) == _ckernels.has_letter(token)


@needs_compiled
@given(tags=st.lists(st.text(st.sampled_from("ABCdef123"), min_size=1, max_size=5), max_size=8))
@settings(max_examples=200, deadline=None)
def test_suffix_runs_parity(tags):
    assert _pure.suffix_runs(tags) == _ckernels.suffix_runs(tags)


@pytest.mark.parametrize("kernels", BACKENDS)
@given(text=text_strategy)
@settings(max_examples=150, deadline=None)
def test_tokens_have_content(kernels, text):
    for tok in kernels.tokenize(text):
        assert tok
        assert kernels.normalize_token(tok, True)


def test_ckernels_pyx_matches_recorded_hash():
    """_ckernels.c is generated from _ckernels.pyx, and only the .c can
    be compiled without Cython, so a .pyx edit must come with a new .c.
    """
    kernels_dir = Path(_pure.__file__).parent
    pyx = kernels_dir / "_ckernels.pyx"
    recorded = (kernels_dir / "_ckernels.pyx.sha256").read_text(encoding="utf-8")
    recorded = recorded.split()[0]
    actual = hashlib.sha256(pyx.read_bytes()).hexdigest()
    assert actual == recorded, (
        "_ckernels.pyx no longer matches the hash recorded when _ckernels.c "
        "was generated: regenerate the .c (cython -3 "
        "src/fanlex/_kernels/_ckernels.pyx) and update "
        "src/fanlex/_kernels/_ckernels.pyx.sha256 (sha256sum _ckernels.pyx)"
    )

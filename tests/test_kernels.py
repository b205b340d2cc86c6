"""Kernel behavior, and parity with the per-character oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fanlex import _kernels

# The behavior tests run on the package's pure-Python kernels and on the
# oracle the parity tests compare them with.
IMPLEMENTATIONS = [pytest.param(_kernels, id="pure"), pytest.param(oracle, id="oracle")]

# Mix of scripts, Turkish casing, connectors and junk.
text_strategy = st.text(
    alphabet=st.one_of(
        st.sampled_from("abcçdeğIİiıoöşuü0123456789'’ʼ-_ .,!?\"()…\t\n"),
        st.characters(),
    ),
    max_size=80,
)


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
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


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
def test_normalize_examples(kernels):
    assert kernels.normalize_token("Bile", True) == "bile"
    assert kernels.normalize_token("İNANILMAZ", True) == "inanılmaz"
    assert kernels.normalize_token("ISPARTA", True) == "ısparta"
    assert kernels.normalize_token('"Küba!"', True) == "küba"
    assert kernels.normalize_token("--", True) == ""
    assert kernels.normalize_token("Küba'da", True) == "küba'da"
    # Generic casing keeps the dotted/dotless distinction out of it.
    assert kernels.normalize_token("ISPARTA", False) == "isparta"


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
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


# Weighted towards the characters the whole-text path of
# _kernels.normalized_tokens treats specially: sigma, the four Turkish i's,
# the combining dot above, a full stop and the three joiners.
casing_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("ΣσςİIıi\u0307.'’-"),
        st.sampled_from("ΑΒaZ09 _"),
        st.characters(),
    ),
    max_size=40,
)


def _per_token(text, turkish, letters_only):
    """normalized_tokens as its definition: token by token."""
    return [
        norm
        for tok in _kernels.tokenize(text)
        if not letters_only or _kernels.has_letter(tok)
        if (norm := _kernels.normalize_token(tok, turkish))
    ]


@given(text=casing_text, turkish=st.booleans(), letters_only=st.booleans())
@settings(max_examples=500, deadline=None)
def test_pure_normalized_tokens_is_per_token_composition(text, turkish, letters_only):
    assert _kernels.normalized_tokens(text, turkish, letters_only=letters_only) == (
        _per_token(text, turkish, letters_only)
    )


@pytest.mark.parametrize(
    "text, turkish, expected",
    [
        # Sigma lowercases by context: alone the token ends in final sigma.
        ("ΑΣ.Β", True, ["ας", "β"]),
        ("ΑΣ.Β", False, ["ας", "β"]),
        # Generic dotted I lowercases to i plus a combining dot, inside the token.
        ("aİb", False, ["ai\u0307b"]),
        ("aİb", True, ["aib"]),
        ("İSTANBUL'DA 1947", True, ["istanbul'da", "1947"]),
        ("İSTANBUL'DA 1947", False, ["i\u0307stanbul'da", "1947"]),
    ],
)
def test_pure_normalized_tokens_casing_examples(text, turkish, expected):
    assert _kernels.normalized_tokens(text, turkish) == expected
    assert _kernels.normalized_tokens(text, turkish) == _per_token(text, turkish, False)
    letters = [t for t in expected if not t.isdigit()]
    assert _kernels.normalized_tokens(text, turkish, letters_only=True) == letters


def test_pure_normalize_token_returns_normalized_word_itself():
    # No copy: callers keep the input object, as in the dictionary set.
    word = "".join(["gez", "i"])
    assert _kernels.normalize_token(word, True) is word
    assert _kernels.normalize_token(word, False) is word


def test_unicode_casing_facts_of_whole_text_path():
    """The facts that let _kernels.normalized_tokens lowercase whole texts.

    A Python whose case tables break one of them fails here, instead of
    silently changing tokens.
    """
    chars = "".join(map(chr, range(0xD800))) + "".join(map(chr, range(0xE000, 0x110000)))
    turkish = chars.replace("I", "ı").replace("İ", "i")
    generic = chars.replace("İ", "")
    for mapped in (turkish, generic):
        lowered = "".join(map(str.lower, mapped))
        # One code point to one code point (none lowercases to nothing) ...
        assert len(lowered) == len(mapped)
        # ... that keeps isalnum and isalpha ...
        for predicate in (str.isalnum, str.isalpha):
            assert list(map(predicate, lowered)) == list(map(predicate, mapped))
        # ... maps no other character onto a joiner or the underscore ...
        for joiner in "'’-_":
            assert joiner.lower() == joiner
            assert lowered.count(joiner) == mapped.count(joiner)
        # ... and needs no context once sigma is gone.
        no_sigma = mapped.replace("Σ", "")
        assert no_sigma.lower() == "".join(map(str.lower, no_sigma))
    # The two exceptions, which take the per-token loop.
    assert "İ".lower() == "i\u0307" and not "\u0307".isalnum()
    assert "ΑΣ.Β".lower() == "ασ.β" and "ΑΣ".lower() == "ας"


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
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


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
@given(token=text_strategy)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(kernels, token):
    for turkish in (True, False):
        once = kernels.normalize_token(token, turkish)
        assert kernels.normalize_token(once, turkish) == once


@given(text=text_strategy)
@settings(max_examples=300, deadline=None)
def test_tokenize_parity(text):
    assert _kernels.tokenize(text) == oracle.tokenize(text)


@given(token=text_strategy, turkish=st.booleans())
@settings(max_examples=300, deadline=None)
def test_normalize_parity(token, turkish):
    assert _kernels.normalize_token(token, turkish) == oracle.normalize_token(
        token, turkish
    )


@given(text=text_strategy, turkish=st.booleans(), letters_only=st.booleans())
@settings(max_examples=300, deadline=None)
def test_normalized_tokens_parity(text, turkish, letters_only):
    assert _kernels.normalized_tokens(text, turkish, letters_only) == (
        oracle.normalized_tokens(text, turkish, letters_only)
    )


@given(token=text_strategy)
@settings(max_examples=200, deadline=None)
def test_has_letter_parity(token):
    assert _kernels.has_letter(token) == oracle.has_letter(token)


@given(tags=st.lists(st.text(st.sampled_from("ABCdef123"), min_size=1, max_size=5), max_size=8))
@settings(max_examples=200, deadline=None)
def test_suffix_runs_parity(tags):
    assert _kernels.suffix_runs(tags) == oracle.suffix_runs(tags)


@pytest.mark.parametrize("kernels", IMPLEMENTATIONS)
@given(text=text_strategy)
@settings(max_examples=150, deadline=None)
def test_tokens_have_content(kernels, text):
    for tok in kernels.tokenize(text):
        assert tok
        assert kernels.normalize_token(tok, True)


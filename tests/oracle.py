"""Naive reference implementations used as test oracles.

They share no code with the package. The score oracles transcribe the
score definitions literally, with nested loops and list.count, and
re-derive term extraction and counting inline; documents fed to them
must carry pre-computed analyses whose raw forms are already
normalized. The text-kernel oracles restate the rules of
fanlex._kernels character by character, with str.isalnum and
str.isalpha where the package uses regular expressions and lowercases
whole texts.
"""

SEP = ""
JOINERS = "'’-"


def tokenize(text):
    """Maximal alphanumeric runs; a joiner with an alphanumeric
    character on both sides joins two runs."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if not text[i].isalnum():
            i += 1
            continue
        start = i
        i += 1
        while i < n and (
            text[i].isalnum()
            or text[i] in JOINERS
            and text[i - 1].isalnum()
            and i + 1 < n
            and text[i + 1].isalnum()
        ):
            i += 1
        tokens.append(text[start:i])
    return tokens


def _strip_edges(s):
    a, b = 0, len(s)
    while a < b and not s[a].isalnum():
        a += 1
    while b > a and not s[b - 1].isalnum():
        b -= 1
    return s[a:b]


def normalize_token(token, turkish):
    """Strip the edges, map the Turkish I's if asked, lowercase, strip again."""
    core = _strip_edges(token)
    if turkish:
        core = core.replace("I", "ı").replace("İ", "i")
    return _strip_edges(core.lower())


def has_letter(token):
    for ch in token:
        if ch.isalpha():
            return True
    return False


def normalized_tokens(text, turkish, letters_only=False):
    out = []
    for tok in tokenize(text):
        if letters_only and not has_letter(tok):
            continue
        norm = normalize_token(tok, turkish)
        if norm:
            out.append(norm)
    return out


def suffix_runs(tags):
    """Every contiguous run, joined by "-": shortest first, then by start."""
    k = len(tags)
    runs = []
    for length in range(1, k + 1):
        for start in range(k - length + 1):
            runs.append("-".join(tags[start : start + length]))
    return runs


def term_list(doc, model_class):
    """Every term occurrence of one document, in order."""
    terms = []
    for a in doc.analyses:
        if model_class == "RAW":
            terms.append(a.raw)
        elif model_class == "ROOT":
            terms.append(a.root)
        elif model_class == "RAW_POS":
            terms.append(a.raw + SEP + a.pos)
        elif model_class == "SUFFIX":
            k = len(a.suffixes)
            for i in range(k):
                for j in range(i, k):
                    terms.append("-".join(a.suffixes[i : j + 1]))
        else:
            raise ValueError(model_class)
    return terms


def build_scores(fake_docs, valid_docs, model_class, presence=False):
    """Term counts and scores computed the long way.

    Returns (fake_counts, valid_counts, fake_total, valid_total,
    fake_scores, valid_scores) over the vocabulary of both splits.
    """
    fake_lists = [term_list(d, model_class) for d in fake_docs]
    valid_lists = [term_list(d, model_class) for d in valid_docs]
    vocabulary = sorted({t for lst in fake_lists + valid_lists for t in lst})

    def occurrences(lst, term):
        if presence:
            return 1 if term in lst else 0
        return lst.count(term)

    fake_counts = {}
    valid_counts = {}
    for term in vocabulary:
        fake_counts[term] = sum(occurrences(lst, term) for lst in fake_lists)
        valid_counts[term] = sum(occurrences(lst, term) for lst in valid_lists)
    fake_total = sum(
        occurrences(lst, term) for lst in fake_lists for term in vocabulary
    )
    valid_total = sum(
        occurrences(lst, term) for lst in valid_lists for term in vocabulary
    )
    fake_scores = {t: fake_counts[t] / fake_total for t in vocabulary}
    valid_scores = {t: valid_counts[t] / valid_total for t in vocabulary}
    return fake_counts, valid_counts, fake_total, valid_total, fake_scores, valid_scores


def score_doc(doc, model_class, fake_scores, valid_scores):
    """Document scores over its distinct terms; ties label FAKE."""
    terms = sorted(set(term_list(doc, model_class)))
    fake = sum(fake_scores.get(t, 0.0) for t in terms)
    valid = sum(valid_scores.get(t, 0.0) for t in terms)
    label = "VALID" if valid > fake else "FAKE"
    return fake, valid, label

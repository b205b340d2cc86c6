"""Seeded input generators for the fanlex CLI benchmark.

Standard library only, and never imports fanlex: the program under test
sees nothing but the files written here, so a change to fanlex cannot
change its own inputs. The same seed gives byte-identical files.

Words are Turkish-like: a root of consonant-vowel syllables plus a chain
of 0-3 inflection suffixes drawn from the surfaces the built-in suffix
stripper knows, so the fallback analyzer has real work to do. Token
frequencies follow a Zipf law over the vocabulary's ranks, so every seed
has the same shape but different words.
"""

from __future__ import annotations

import json
import os
import itertools
import random
from dataclasses import dataclass
from itertools import accumulate

CONSONANTS = "bcçdfgğhjklmnprsştvyz"
VOWELS = "aeıioöuü"
SUFFIXES = (
    ("lar", "A3pl"),
    ("ler", "A3pl"),
    ("dan", "Abl"),
    ("den", "Abl"),
    ("da", "Loc"),
    ("de", "Loc"),
    ("nın", "Gen"),
    ("nin", "Gen"),
    ("ya", "Dat"),
    ("ye", "Dat"),
    ("yı", "Acc"),
    ("yi", "Acc"),
    ("dı", "Past"),
    ("di", "Past"),
    ("mış", "Narr"),
    ("miş", "Narr"),
)
POS_TAGS = ("Noun", "Verb", "Adj", "Adv")
SOURCES = ("zaytung", "hurriyet", "sozcu", "ntv")
CLASSES = "RAW,ROOT,RAW_POS,SUFFIX"


@dataclass(frozen=True)
class Spec:
    """Size and vocabulary shape of one workload's corpus."""

    train_docs: int  # fake + valid training documents
    test_docs: int  # held-out documents, both labels
    tokens_per_doc: int  # mean letter tokens per document, title included
    vocab: int  # distinct surfaces the Zipf law ranges over
    zipf_s: float  # Zipf exponent; higher means a heavier head
    table_size: int = 0  # rule-table entries over the head, 0 for none
    preanalyzed: bool = False  # documents carry analyses


SPECS = {
    "raw-wide": Spec(
        train_docs=800, test_docs=200, tokens_per_doc=150, vocab=120_000, zipf_s=0.9
    ),
    "analyzed-cv": Spec(
        train_docs=160, test_docs=0, tokens_per_doc=120, vocab=4_000, zipf_s=1.2,
        table_size=200,
    ),
    "preanalyzed-eval": Spec(
        train_docs=400, test_docs=100, tokens_per_doc=150, vocab=20_000, zipf_s=1.0,
        preanalyzed=True,
    ),
}


def turkish_upper(word: str) -> str:
    return word.replace("i", "İ").replace("ı", "I").upper()


def capitalize(word: str) -> str:
    return turkish_upper(word[0]) + word[1:]


# Word structure is fixed by Zipf rank and only the letters are drawn, so
# every seed has the same characters and suffix tags per token to within
# a few percent: the head ranks carry much of the text, and random lengths
# there would move every per-token cost from seed to seed.
# Root shape by rank % 4: a coda consonant after each syllable or not.
ROOT_SHAPES = ((True,), (False, True), (True, True), (False, False, True))
# Roots end in a consonant that no suffix rule ends with, so the suffix
# stripper removes exactly the suffixes a word was built with. Otherwise
# its work per token depends on which roots happen to end like a suffix,
# and that moved analyzed-cv's time per token by 10% between seeds.
ROOT_FINALS = "".join(c for c in CONSONANTS if c not in "nrş")
# Suffix chain length by (rank // 4) % 6; the k-th suffix of a rank has
# two or three letters by (rank + k) % 2.
CHAIN_LENGTHS = (0, 1, 1, 2, 2, 3)
SUFFIXES_BY_LENGTH = tuple(tuple(s for s in SUFFIXES if len(s[0]) == n) for n in (2, 3))


def _root(rng: random.Random, shape: tuple[bool, ...]) -> str:
    out = []
    for k, coda in enumerate(shape):
        out.append(rng.choice(CONSONANTS) + rng.choice(VOWELS))
        if coda:
            out.append(rng.choice(ROOT_FINALS if k == len(shape) - 1 else CONSONANTS))
    return "".join(out)


def vocabulary(rng: random.Random, size: int) -> list[tuple[str, str, str, tuple[str, ...]]]:
    """Distinct (surface, root, pos, suffix tags) entries in Zipf rank order.

    Two of three ranks reuse the root of an earlier rank of the same root
    shape, so roots carry several inflected surfaces.
    """
    entries: list[tuple[str, str, str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for rank in range(size):
        shape = ROOT_SHAPES[rank % 4]
        chain_length = CHAIN_LENGTHS[(rank // 4) % 6]
        reuse = rank >= 4 and rank % 3 != 0
        for attempt in itertools.count():
            if reuse:
                _, root, pos, _ = entries[rng.randrange(rank // 4) * 4 + rank % 4]
            else:
                # Short shapes run out of fresh roots deep in the tail;
                # grow them there, where single ranks weigh nothing.
                root = _root(rng, (False,) * (attempt // 10) + shape)
                pos = rng.choice(POS_TAGS)
            chain = [rng.choice(SUFFIXES_BY_LENGTH[(rank + k) % 2]) for k in range(chain_length)]
            surface = root + "".join(s for s, _ in chain)
            if surface not in seen:
                break
            reuse = False
        seen.add(surface)
        entries.append((surface, root, pos, tuple(t for _, t in chain)))
    return entries


class Sampler:
    """Zipf-distributed draws of vocabulary ranks."""

    def __init__(self, rng: random.Random, size: int, s: float) -> None:
        self.rng = rng
        self.cum = list(accumulate(1.0 / (rank + 1) ** s for rank in range(size)))
        self.ranks = range(size)

    def draw(self, k: int) -> list[int]:
        return self.rng.choices(self.ranks, cum_weights=self.cum, k=k)


def _render(rng: random.Random, words: list[str], fake: bool) -> str:
    """Sentences of the given lowercase words, with casing and punctuation."""
    pieces = []
    i = 0
    while i < len(words):
        n = min(rng.randint(6, 18), len(words) - i)
        sentence = words[i : i + n]
        i += n
        out = []
        for j, word in enumerate(sentence):
            if rng.random() < 0.02:
                word = turkish_upper(word)
            elif j == 0 or rng.random() < 0.05:
                word = capitalize(word)
            if rng.random() < 0.03:
                out.append(str(rng.randint(1, 2030)))
            out.append(word + ("," if rng.random() < 0.08 and j < n - 1 else ""))
        end = rng.choice("!!?." if fake else "...?")
        pieces.append(" ".join(out) + end)
    return " ".join(pieces)


def _documents(rng, spec: Spec, vocab, sampler: Sampler, count: int, prefix: str):
    """Documents as JSON-ready dicts plus their letter-token surfaces."""
    docs = []
    for i in range(count):
        fake = i % 2 == 0
        n = max(8, int(rng.gauss(spec.tokens_per_doc, spec.tokens_per_doc / 4)))
        ranks = sampler.draw(n)
        # Each label leans on its own slice of the vocabulary, so the
        # lexicons separate the classes some of the time.
        shift = 1 if fake else 2
        ranks = [
            (r * 3 + shift) % len(vocab) if rng.random() < 0.15 else r for r in ranks
        ]
        n_title = min(rng.randint(4, 9), n // 2)
        surfaces = [vocab[r][0] for r in ranks]
        doc = {"id": f"{prefix}{i:05d}"}
        doc["title"] = " ".join(
            capitalize(w) if j == 0 else w for j, w in enumerate(surfaces[:n_title])
        )
        doc["text"] = _render(rng, surfaces[n_title:], fake)
        doc["label"] = "FAKE" if fake else "VALID"
        doc["source"] = rng.choice(SOURCES[:2] if fake else SOURCES[2:])
        if spec.preanalyzed:
            doc["analyses"] = [
                {"raw": vocab[r][0], "root": vocab[r][1], "pos": vocab[r][2],
                 "suffixes": list(vocab[r][3])}
                for r in ranks
            ]
        docs.append((doc, surfaces))
    return docs


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def generate(workload: str, seed: int, out_dir: str) -> tuple[dict, dict]:
    """Write one workload's inputs into out_dir.

    Returns the realised shape, which results record so that drift in a
    workload shows, and the facts the output checks compare against.
    """
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    vocab = vocabulary(rng, spec.vocab)
    sampler = Sampler(rng, spec.vocab, spec.zipf_s)
    train = _documents(rng, spec, vocab, sampler, spec.train_docs, "d")
    test = _documents(rng, spec, vocab, sampler, spec.test_docs, "t")

    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if workload == "analyzed-cv":
        _write_jsonl(path("corpus.jsonl"), (d for d, _ in train))
    else:
        _write_jsonl(path("train_fake.jsonl"), (d for d, _ in train if d["label"] == "FAKE"))
        _write_jsonl(path("train_valid.jsonl"), (d for d, _ in train if d["label"] == "VALID"))
        _write_jsonl(path("test.jsonl"), (d for d, _ in test))
    if workload == "raw-wide":
        _write_jsonl(path("corpus.jsonl"), (d for d, _ in train + test))

    # Word lists: a dictionary over the upper half of the ranks (so the
    # tail reads as misspelled) and a slang list of single words plus
    # two-word phrases built from frequent words so phrases match.
    words = [vocab[r][0] for r in range(spec.vocab // 2)]
    _write_lines(path("dict.txt"), ["# dictionary"] + words)
    slang = [vocab[r][0] for r in rng.sample(range(10, spec.vocab // 4), 150)]
    slang += [f"{vocab[a][0]} {vocab[b][0]}" for a, b in zip(range(0, 40, 2), range(1, 40, 2))]
    slang = [capitalize(w) if i % 7 == 0 else w for i, w in enumerate(slang)]
    _write_lines(path("slang.txt"), ["# slang", ""] + slang)

    # The table covers every other head rank, so that both analysis
    # routes (table hit and suffix-stripper fallback) carry load.
    table_ranks = range(0, 2 * spec.table_size, 2)
    table = {vocab[r][0] for r in table_ranks}
    if table:
        _write_jsonl(
            path("table.jsonl"),
            ({"surface": vocab[r][0],
              "analyses": [{"root": vocab[r][1], "pos": vocab[r][2],
                            "suffixes": list(vocab[r][3])}]}
             for r in table_ranks),
        )

    all_surfaces = [w for _, ws in train + test for w in ws]
    train_words = {label: [w for d, ws in train if d["label"] == label for w in ws]
                   for label in ("FAKE", "VALID")}
    shape = {
        "train_docs": len(train),
        "test_docs": len(test),
        "tokens": len(all_surfaces),
        "distinct_ratio": len(set(all_surfaces)) / len(all_surfaces),
        "table_entries": len(table),
        "table_hit_share": sum(w in table for w in all_surfaces) / len(all_surfaces),
        "lexicon_terms": len(set(train_words["FAKE"]) | set(train_words["VALID"])),
    }
    expect = {
        "fake_train_tokens": len(train_words["FAKE"]),
        "valid_train_tokens": len(train_words["VALID"]),
        "test_ids": [d["id"] for d, _ in test],
        "train_docs": len(train),
        "groups": len({(d["source"], d["label"]) for d, _ in train + test}),
        "tokens": shape["tokens"],
        "lexicon_terms": shape["lexicon_terms"],
    }
    return shape, expect

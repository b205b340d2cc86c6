#!/usr/bin/env python
"""Compare the pure-Python and compiled kernel backends.

The microbenchmark section imports both implementations into one
process and times the hot functions directly. The end-to-end section
builds a lexicon from scratch once per backend, each in its own
subprocess, because the backend is picked when fanlex is imported.

Usage: python benchmarks/bench_kernels.py [--docs N] [--tokens N]
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

SYLLABLES = [
    "ka", "le", "mi", "yor", "du", "ğu", "şe", "hir", "ler", "in",
    "üze", "rin", "den", "ta", "rih", "çe", "si", "ok", "ul", "da",
]
PUNCT = [" ", " ", " ", ". ", ", ", "! ", "? ", "'", "-"]
TAGS = ["A3pl", "Dat", "Loc", "Gen", "Acc", "Abl", "Narr", "Past", "Fut"]


def synth_text(rng, n_tokens):
    pieces = []
    for _ in range(n_tokens):
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.15:
            word = word.capitalize()
        if rng.random() < 0.05:
            word = word.upper()
        pieces.append(word)
        pieces.append(rng.choice(PUNCT))
    return "".join(pieces)


def timeit(fn, payload, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for item in payload:
            fn(item)
        best = min(best, time.perf_counter() - start)
    return best


def micro(args):
    from fanlex._kernels import _pure

    try:
        from fanlex._kernels import _ckernels
    except ImportError:
        print("compiled backend not built; microbenchmarks skipped")
        return
    rng = random.Random(7)
    texts = [synth_text(rng, 300) for _ in range(200)]
    tokens = [tok for text in texts for tok in _pure.tokenize(text)]
    tag_lists = [
        [rng.choice(TAGS) for _ in range(rng.randint(0, 6))] for _ in range(20000)
    ]

    rows = [
        ("tokenize", texts, _pure.tokenize, _ckernels.tokenize),
        (
            "normalized_tokens",
            texts,
            lambda t: _pure.normalized_tokens(t, True),
            lambda t: _ckernels.normalized_tokens(t, True),
        ),
        (
            "normalize_token",
            tokens,
            lambda t: _pure.normalize_token(t, True),
            lambda t: _ckernels.normalize_token(t, True),
        ),
        ("suffix_runs", tag_lists, _pure.suffix_runs, _ckernels.suffix_runs),
    ]
    print(f"{'kernel':<20}{'pure (s)':>10}{'compiled (s)':>14}{'speedup':>9}")
    for name, payload, pure_fn, compiled_fn in rows:
        pure_s = timeit(pure_fn, payload)
        comp_s = timeit(compiled_fn, payload)
        print(f"{name:<20}{pure_s:>10.4f}{comp_s:>14.4f}{pure_s / comp_s:>8.1f}x")


def child(args):
    """Build one lexicon and report the elapsed time as JSON."""
    import fanlex
    from fanlex.corpus import Dataset, Document, Label
    from fanlex.lexicon import ModelClass, build_lexicon

    rng = random.Random(11)
    docs = []
    for i in range(args.docs):
        label = Label.FAKE if i % 2 else Label.VALID
        docs.append(
            Document(
                id=f"d{i}", text=synth_text(rng, args.tokens), label=label
            )
        )
    ds = Dataset(tuple(docs))
    fake = ds.filter(Label.FAKE)
    valid = ds.filter(Label.VALID)
    start = time.perf_counter()
    lex = build_lexicon(fake, valid, ModelClass.RAW)
    elapsed = time.perf_counter() - start
    print(
        json.dumps(
            {
                "backend": fanlex.kernel_backend(),
                "seconds": elapsed,
                "terms": len(lex.entries),
            }
        )
    )


def end_to_end(args):
    print(f"\nend-to-end: RAW lexicon over {args.docs} docs x ~{args.tokens} tokens")
    results = {}
    for label, extra_env in (("pure", {"FANLEX_PURE": "1"}), ("compiled", {})):
        env = dict(os.environ)
        env.pop("FANLEX_PURE", None)
        env.update(extra_env)
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--child",
                "--docs",
                str(args.docs),
                "--tokens",
                str(args.tokens),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            print(f"{label}: failed\n{proc.stderr}", file=sys.stderr)
            continue
        payload = json.loads(proc.stdout)
        if payload["backend"] != label:
            # Without the extension fanlex falls back to pure Python.
            print(f"{label:<10}not built")
            continue
        results[label] = payload
        print(
            f"{label:<10}backend={payload['backend']:<10}"
            f"{payload['seconds']:.3f}s  ({payload['terms']} terms)"
        )
    if len(results) == 2:
        speedup = results["pure"]["seconds"] / results["compiled"]["seconds"]
        print(f"speedup: {speedup:.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=2000)
    parser.add_argument("--tokens", type=int, default=120)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args)
        return
    micro(args)
    end_to_end(args)


if __name__ == "__main__":
    main()

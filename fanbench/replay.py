"""Traced in-process replay of one benchmark workload.

run.py starts this as a child with the workload directory as cwd,
FANLEX_PURE=1 and the checkout's src on PYTHONPATH. It replays the
workload's CLI subcommands through the public API (fanlex.__all__ plus
fanlex._kernels) and times every call from outside: each subcommand is a
span and the calls it makes are its children. Layers that are reached
only inside those calls (kernels, analysis, term extraction), and layers
this workload's subcommands do not reach at all, are timed by probe spans
over the same inputs, so every layer is measured on every workload.

Each repetition runs the replay once untraced and once traced, in
alternating order; the difference is the tracing overhead. Each is
bracketed by host-speed calibrations (hostspeed.py) and carries its
scale factor. Spans, counters and the replay's labels and totals go to
one JSON file.

Usage: python replay.py --workload NAME --seconds S --out trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import fanlex
from fanlex import Dataset, Label, ModelClass, RunConfig
from fanlex import _kernels

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
CFG = RunConfig()
CLASSES = list(ModelClass)
CV_FOLDS = 5
# Folds of the cross_validate probe on workloads whose CLI run does not
# cross-validate: two keep the probe near the cost of one evaluate.
CV_PROBE_FOLDS = 2
EXPLAIN_TOP = 3
# Traced repetitions at least, so the overhead has an untraced partner
# on each side of the order.
MIN_REPS = 2
TERMINALS = ".!?…"


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}


class NullTracer:
    """The same interface, recording nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _opts(analyzer=None) -> dict:
    return {"analyzer": analyzer, "locale": CFG.locale, "include_title": CFG.include_title}


# ---------------------------------------------------------------- replays
# Each mirrors the public calls one CLI subcommand makes, in its order,
# and returns the same labels and totals the CLI prints, for comparison.


def replay_raw_wide(tr, out: dict) -> dict:
    with tr.span("cli.build-lexicon"):
        fake = tr.call("corpus.load", fanlex.load_corpus, "train_fake.jsonl")
        valid = tr.call("corpus.load", fanlex.load_corpus, "train_valid.jsonl")
        lex = tr.call(
            "lexicon.build", fanlex.build_lexicon, fake, valid, ModelClass.RAW,
            CFG.count_mode, smoothing=CFG.smoothing, **_opts(),
        )
        tr.call("lexicon.save", fanlex.save_lexicon, lex, "replay_raw.lex")
        stats = tr.call("lexicon.stats", fanlex.lexicon_stats, lex)
    with tr.span("cli.score"):
        lexicons = [tr.call("lexicon.load", fanlex.load_lexicon, "replay_raw.lex")]
        test = tr.call("corpus.load", fanlex.load_corpus, "test.jsonl")
        table = tr.call(
            "scorer.score", fanlex.score_batch, test, lexicons, CFG.term_set_mode, **_opts()
        )
        for doc in test.documents:
            for lx in lexicons:
                tr.call("scorer.explain", fanlex.explain, doc, lx, EXPLAIN_TOP, **_opts())
    with tr.span("cli.verify-corpus"):
        ds = tr.call("corpus.load", fanlex.load_corpus, "corpus.jsonl")
        overall = _verify(tr, ds)
    out.update(lexicons=lexicons, scores=table, test=test, files=["replay_raw.lex"])
    return {
        "build-lexicon": {
            "fake_total": lex.fake_total,
            "valid_total": lex.valid_total,
            "unique_terms": stats.unique_terms,
        },
        "score": {"labels": [table[d.id][ModelClass.RAW].label.value for d in test.documents]},
        "verify-corpus": {
            "overall": {
                "slang_per_sentence": overall.slang_per_sentence,
                "misspelling_per_sentence": overall.misspelling_per_sentence,
            }
        },
    }


def _verify(tr, ds: Dataset):
    """verify-corpus's calls: word lists, then overall and per-group stats."""
    slang = tr.call("corpus.wordlist_load", fanlex.load_word_list, "slang.txt", CFG.locale)
    words = tr.call("corpus.wordlist_load", fanlex.load_word_list, "dict.txt", CFG.locale)
    kw = {"locale": CFG.locale, "include_title": CFG.include_title}
    overall = tr.call("corpus.verify", fanlex.verify_stats, ds, slang, words, **kw)
    groups: dict[tuple[str, str], list] = {}
    for doc in ds.documents:
        groups.setdefault((doc.source or "(none)", doc.label.value), []).append(doc)
    for key in sorted(groups):
        subset = Dataset(tuple(groups[key]), ds.split)
        tr.call("corpus.verify", fanlex.verify_stats, subset, slang, words, **kw)
    return overall


def replay_analyzed_cv(tr, out: dict) -> dict:
    with tr.span("cli.cross-validate"):
        table = tr.call("morph.load_rule_table", fanlex.load_rule_table, "table.jsonl", CFG.locale)
        ds = tr.call("corpus.load", fanlex.load_corpus, "corpus.jsonl")
        report = tr.call(
            "evaluation.cross_validate", fanlex.cross_validate,
            ds, CV_FOLDS, CLASSES, CFG.seed, CFG, table,
        )
    return {
        "cross-validate": {
            "per_fold": [
                [fm.fold, fm.model_class.value, fm.metrics.precision, fm.metrics.recall,
                 fm.metrics.accuracy, fm.metrics.f1]
                for fm in report.per_fold
            ]
        }
    }


def replay_preanalyzed_eval(tr, out: dict) -> dict:
    with tr.span("cli.evaluate"):
        fake = tr.call("corpus.load", fanlex.load_corpus, "train_fake.jsonl")
        valid = tr.call("corpus.load", fanlex.load_corpus, "train_valid.jsonl")
        test = tr.call("corpus.load", fanlex.load_corpus, "test.jsonl")
        results = tr.call(
            "evaluation.evaluate", fanlex.evaluate_models, fake, valid, test, CLASSES, CFG, None
        )
    return {
        "evaluate": {
            c.value: {"tp": r.confusion.tp, "fn": r.confusion.fn,
                      "fp": r.confusion.fp, "tn": r.confusion.tn}
            for c, r in results.items()
        }
    }


REPLAYS = {
    "raw-wide": replay_raw_wide,
    "analyzed-cv": replay_analyzed_cv,
    "preanalyzed-eval": replay_preanalyzed_eval,
}


# ----------------------------------------------------------------- probes


class Inputs:
    """The workload's inputs as the probes use them, loaded untimed."""

    def __init__(self, workload: str) -> None:
        self.table = None
        self.classes = CLASSES
        if workload == "analyzed-cv":
            self.docs = fanlex.load_corpus("corpus.jsonl")
            self.table = fanlex.load_rule_table("table.jsonl", CFG.locale)
            train, self.test = fanlex.stratified_folds(self.docs, CV_FOLDS, CFG.seed)[0]
            self.fake, self.valid = train.filter(Label.FAKE), train.filter(Label.VALID)
        else:
            self.fake = fanlex.load_corpus("train_fake.jsonl")
            self.valid = fanlex.load_corpus("train_valid.jsonl")
            self.test = fanlex.load_corpus("test.jsonl")
            self.docs = Dataset(self.fake.documents + self.valid.documents + self.test.documents)
        if workload == "raw-wide":
            self.classes = [ModelClass.RAW]
        self.input_files = {
            "raw-wide": ["train_fake.jsonl", "train_valid.jsonl", "test.jsonl", "corpus.jsonl"],
            "analyzed-cv": ["corpus.jsonl"],
            "preanalyzed-eval": ["train_fake.jsonl", "train_valid.jsonl", "test.jsonl"],
        }[workload]


def _compose(doc) -> str:
    """Title and body joined as the analyzer sees them (title included)."""
    if doc.title is None or not doc.title.strip():
        return doc.text
    head = doc.title.strip()
    if head[-1] not in TERMINALS:
        head += "."
    return f"{head} {doc.text}" if doc.text else head


def probe(tr: Tracer, inp: Inputs, out: dict) -> dict:
    """Time every layer the replay did not reach directly; return counters."""
    reached = tr.names()
    docs = inp.docs.documents
    texts = [_compose(d) for d in docs]
    turkish = CFG.locale is fanlex.Locale.TURKISH
    counters: dict[str, float] = {}

    with tr.span("kernels.tokenize"):
        tokens = [_kernels.tokenize(t) for t in texts]
    with tr.span("kernels.normalized_tokens"):
        for t in texts:
            _kernels.normalized_tokens(t, turkish, letters_only=True)
    with tr.span("morph.analyze"):
        analyses = [
            fanlex.analyze_document(
                d, inp.table, locale=CFG.locale, include_title=CFG.include_title)
            for d in docs
        ]
    suffixed = [a.suffixes for doc_an in analyses for a in doc_an if a.suffixes]
    with tr.span("kernels.suffix_runs"):
        for tags in suffixed:
            _kernels.suffix_runs(tags)
    for c in CLASSES:
        with tr.span("lexicon.extract"):
            for doc_an in analyses:
                fanlex.extract_terms(doc_an, c, CFG.locale)

    lexicons = out.get("lexicons")
    if "lexicon.build" not in reached:
        lexicons = [
            tr.call("lexicon.build", fanlex.build_lexicon, inp.fake, inp.valid, c,
                    CFG.count_mode, smoothing=CFG.smoothing, **_opts(inp.table))
            for c in inp.classes
        ]
    for lex in lexicons:
        tr.call("lexicon.merge", fanlex.merge_lexicons, lex, lex)
    files = out.get("files", [])
    if "lexicon.save" not in reached:
        files = [f"probe_{lex.model_class.value}.lex" for lex in lexicons]
        for lex, path in zip(lexicons, files):
            tr.call("lexicon.save", fanlex.save_lexicon, lex, path)
        for path in files:
            tr.call("lexicon.load", fanlex.load_lexicon, path)
    scores = out.get("scores")
    if "scorer.score" not in reached:
        scores = tr.call("scorer.score", fanlex.score_batch, inp.test, lexicons,
                         CFG.term_set_mode, **_opts(inp.table))
        for doc in inp.test.documents:
            for lex in lexicons:
                tr.call("scorer.explain", fanlex.explain, doc, lex, EXPLAIN_TOP, **_opts(inp.table))
    if "evaluation.evaluate" not in reached:
        tr.call("evaluation.evaluate", fanlex.evaluate_models, inp.fake, inp.valid, inp.test,
                inp.classes, CFG, inp.table)
    if "evaluation.cross_validate" not in reached:
        tr.call("evaluation.cross_validate", fanlex.cross_validate, inp.docs, CV_PROBE_FOLDS,
                inp.classes, CFG.seed, CFG, inp.table)
    tr.call("corpus.folds", fanlex.stratified_folds, inp.docs, CV_FOLDS, CFG.seed)
    if "corpus.verify" not in reached:
        _verify(tr, inp.docs)

    # Counters, untimed.
    flat = [a for doc_an in analyses for a in doc_an]
    table_entries = inp.table.entries if inp.table is not None else {}
    counters["kernels.tokens"] = sum(len(t) for t in tokens)
    counters["kernels.suffix_runs_calls"] = len(suffixed)
    counters["morph.analyzed_tokens"] = len(flat)
    counters["morph.distinct_surfaces"] = len({a.raw for a in flat})
    plain = [a for d, doc_an in zip(docs, analyses) if d.analyses is None for a in doc_an]
    counters["morph.table_hit_ratio"] = (
        sum(a.raw in table_entries for a in plain) / len(plain) if plain else 0.0
    )
    counters["corpus.docs"] = len(docs)
    counters["corpus.input_mb"] = sum(os.path.getsize(f) for f in inp.input_files) / 1e6
    counters["lexicon.terms"] = sum(len(lex.entries) for lex in lexicons)
    counters["lexicon.file_mb"] = sum(os.path.getsize(f) for f in files) / 1e6
    by_id = {d.id: doc_an for d, doc_an in zip(docs, analyses)}
    distinct = unknown = ties = total = 0
    for doc in inp.test.documents:
        for lex in lexicons:
            terms = fanlex.extract_terms(by_id[doc.id], lex.model_class, CFG.locale)
            distinct += len(terms)
            unknown += sum(t not in lex.entries for t in terms)
            score = scores[doc.id][lex.model_class]
            ties += score.fake_score == score.valid_score
            total += 1
    counters["scorer.unknown_ratio"] = unknown / distinct if distinct else 0.0
    counters["scorer.tie_ratio"] = ties / total
    return counters


def _check_code_under_test() -> None:
    if fanlex.kernel_backend() != "pure":
        raise SystemExit(f"kernel backend is {fanlex.kernel_backend()!r}, expected 'pure'")
    src = (ROOT / "src").resolve()
    if src not in Path(fanlex.__file__).resolve().parents:
        raise SystemExit(f"fanlex imported from {fanlex.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPLAYS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    _check_code_under_test()
    replay = REPLAYS[args.workload]
    inputs = Inputs(args.workload)

    clock = hostspeed.Clock()
    reps = []
    untraced = []
    durations = []
    summary = None
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
            time.perf_counter() - start + max(durations) <= args.seconds):
        rep_start = time.perf_counter()
        traced_first = len(reps) % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                tr = Tracer()
                out: dict = {}
                with tr.span("replay"):
                    summary = replay(tr, out)
                with tr.span("probes"):
                    counters = probe(tr, inputs, out)
                scale = clock.factor()
                t0 = tr.spans[0][1]
                reps.append({
                    "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tr.spans],
                    "scale": scale,
                    "counters": counters,
                })
            else:
                t0 = time.perf_counter()
                replay(NullTracer(), {})
                untraced.append(clock.scale(time.perf_counter() - t0))
        durations.append(time.perf_counter() - rep_start)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "span_fields": ["name", "start", "end", "parent"],
            "reps": reps,
            "untraced_replay_s": untraced,
            "calibrations": clock.calibrations,
            "summary": summary,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

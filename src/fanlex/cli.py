"""Command-line interface.

Machine-readable output (JSON or JSONL) goes to stdout as UTF-8 bytes,
whatever the locale; human-readable tables go to stderr, or to a file
via --report. A command's handler only computes: it returns its
Outputs, and main encodes stdout, writes all files, then stdout, then
the report. So a run that exits non-zero replaces no file and prints
nothing on stdout. The two limits: if a rename fails after an earlier
one succeeded, that earlier target stays replaced; and a stdout that
cannot be written exits 2 after every file is replaced.
Exit codes: 0 success, 2 usage or input/IO errors, 3 domain
precondition failures, 4 lexicon file format or version problems; each
error type in fanlex.errors carries its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from enum import Enum
from operator import methodcaller
from typing import Callable, Iterator, TextIO

from fanlex import __version__
from fanlex.config import ENV_CONFIG, FIELD_TYPES, RunConfig, _parse, load_config_file, make_config
from fanlex.corpus import (
    Document,
    Label,
    _word_list_blocks,
    corpus_stats,
    iter_corpus,
    labeled,
    tallied,
    verify_stats_by_group,
    write_atomic,
)
from fanlex.errors import DomainError, FanlexError, InputError
from fanlex.evaluation import cross_validate, evaluate_models
from fanlex.lexicon import (
    ModelClass,
    RAW_POS_SEPARATOR,
    _write_lexicon,
    build_lexicon,
    lexicon_stats,
    load_lexicon,
)
from fanlex.morph import (
    AnalyzerRuleTable,
    DEFAULT_SUFFIX_RULES,
    MorphAnalysis,
    load_rule_table,
    load_suffix_rules,
    normalize,
)
from fanlex.scorer import _explain_terms, _score_rows

_ALL_CLASSES = [c.value for c in ModelClass]

# A handler's stdout text, report (None for none) and files: path -> its writer.
Outputs = tuple[str, "str | None", dict[str, Callable[[TextIO], object]]]


def _model_class(value: str) -> ModelClass:
    try:
        return ModelClass(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown model class {value!r}; pick from {', '.join(_ALL_CLASSES)}"
        ) from None


def _model_classes(text: str) -> list[ModelClass]:
    return [_model_class(name) for name in map(str.strip, text.split(",")) if name]


def _parse_classes(values: list[ModelClass] | None) -> list[ModelClass]:
    if values is None:
        return list(ModelClass)
    if not values:
        raise InputError("--classes names no model class")
    if len(set(values)) != len(values):
        raise InputError("duplicate entries in --classes")
    return values


def _number(kind: type):
    """A flag parser with the config file's number rule, named after kind
    so that argparse reports "invalid float value" as for kind itself."""

    def parse(text: str):
        return _parse(kind, text)

    parse.__name__ = kind.__name__
    return parse


def _config_path(args: argparse.Namespace) -> str | None:
    return args.config or os.environ.get(ENV_CONFIG)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = _config_path(args)
    file_values = load_config_file(path) if path else None
    flags = {name: getattr(args, name) for name in COMMANDS[args.command][2]}
    # Enum flags hold the member's name; no other setting is a string.
    overrides = {k: FIELD_TYPES[k][v] if isinstance(v, str) else v for k, v in flags.items()}
    return make_config(file_values, **overrides)


def _resolve_analyzer(args: argparse.Namespace, cfg: RunConfig) -> AnalyzerRuleTable:
    suffix_rules = (
        load_suffix_rules(args.suffix_rules) if args.suffix_rules else DEFAULT_SUFFIX_RULES
    )
    if args.rule_table:
        return load_rule_table(args.rule_table, cfg.locale, suffix_rules)
    return AnalyzerRuleTable(suffix_rules=suffix_rules)


def _json_line(obj: object) -> str:
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _group_key(doc) -> tuple[str, str]:
    return (doc.source or "(none)", doc.label.value)


def _nonempty(docs: Iterator[Document], message: str) -> Iterator[Document]:
    """docs as they come; DomainError(message) if the first read finds none."""
    first = next(docs, None)
    if first is None:
        raise DomainError(message)
    yield first
    yield from docs


def cmd_build_lexicon(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    analyzer = _resolve_analyzer(args, cfg)
    interned: dict[tuple, MorphAnalysis] = {}  # one table for both corpora
    fake_docs = labeled(iter_corpus(args.fake, interned=interned), Label.FAKE, "--fake")
    valid_docs = labeled(iter_corpus(args.valid, interned=interned), Label.VALID, "--valid")
    lex = build_lexicon(fake_docs, valid_docs, args.model_class, cfg.count_mode, analyzer=analyzer,
                        locale=cfg.locale, include_title=cfg.include_title, smoothing=cfg.smoothing)
    stats = lexicon_stats(lex)
    stdout = _json_line(
        {
            "class": lex.model_class.value,
            "count_mode": lex.count_mode.value,
            **stats._asdict(),
            "fake_total": lex.fake_total,
            "valid_total": lex.valid_total,
            "out": args.out,
        }
    )
    report = _table(
        ["model", "unique terms", "common", "only fake", "only valid"],
        [[lex.model_class.value, *map(str, stats)]],
    )
    return stdout, report, {args.out: lambda fh: _write_lexicon(lex, fh)}


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    if args.explain is not None and args.explain < 0:
        raise InputError("--explain must be >= 0")
    if args.report and not args.explain:
        raise InputError("--report needs --explain N with N > 0: score has no other report")
    analyzer = _resolve_analyzer(args, cfg)
    lexicons = [load_lexicon(path) for path in args.lexicon]
    scale = cfg.display_scale
    lines = []
    blocks = []
    for doc, lex, terms, score in _score_rows(iter_corpus(args.input), lexicons, cfg, analyzer):
        lines.append(
            _json_line(
                {
                    "id": doc.id,
                    "class": score.model_class.value,
                    "fake_score": score.fake_score,
                    "valid_score": score.valid_score,
                    "label": score.label.value,
                    "unknown_terms": score.unknown_terms,
                }
            )
        )
        if args.explain:
            rows = [
                [
                    c.term.replace(RAW_POS_SEPARATOR, "/"),
                    f"{c.fake_score * scale:.4f}",
                    f"{c.valid_score * scale:.4f}",
                    f"{c.delta * scale:+.4f}",
                ]
                for c in _explain_terms(terms, lex, args.explain)
            ]
            blocks.append(
                f"doc {doc.id} [{lex.model_class.value}] top terms (x{scale:g}):\n"
                + _table(["term", "fake", "valid", "delta"], rows)
            )
    report = "\n\n".join(blocks) if args.explain else None
    if args.out:
        return "", report, {args.out: methodcaller("writelines", lines)}
    return "".join(lines), report, {}


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    analyzer = _resolve_analyzer(args, cfg)
    classes = _parse_classes(args.classes)
    interned: dict[tuple, MorphAnalysis] = {}
    fake = labeled(iter_corpus(args.train_fake, interned=interned), Label.FAKE, "--train-fake")
    valid = labeled(iter_corpus(args.train_valid, interned=interned), Label.VALID, "--train-valid")
    test = _nonempty(iter_corpus(args.test, interned=interned), "test corpus is empty")
    del interned  # held by the readers only, so freed once the test corpus is read
    results = evaluate_models(fake, valid, test, classes, cfg, analyzer)
    stdout = _json_line(
        {
            "config": cfg.to_dict(),
            "classes": [c.value for c in classes],
            "results": {
                c.value: {"confusion": r.confusion._asdict(), "metrics": r.metrics._asdict()}
                for c, r in results.items()
            },
        }
    )
    blocks = []
    for model_class, result in results.items():
        cm = result.confusion
        m = result.metrics
        blocks.append(
            f"== {model_class.value} ==\n"
            + _table(
                ["", "actual FAKE", "actual VALID"],
                [
                    ["predicted FAKE", str(cm.tp), str(cm.fp)],
                    ["predicted VALID", str(cm.fn), str(cm.tn)],
                ],
            )
            + f"\nprecision {m.precision:.3f}  recall {m.recall:.3f}"
            + f"  accuracy {m.accuracy:.3f}  f1 {m.f1:.3f}"
        )
    return stdout, "\n\n".join(blocks), {}


def cmd_cross_validate(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    analyzer = _resolve_analyzer(args, cfg)
    classes = _parse_classes(args.classes)
    report = cross_validate(iter_corpus(args.input), args.folds, classes, cfg.seed, cfg, analyzer)
    stdout = _json_line(
        {
            "config": cfg.to_dict(),
            "folds": args.folds,
            "classes": [c.value for c in classes],
            "per_fold": [
                {"fold": fm.fold, "class": fm.model_class.value, **fm.metrics._asdict()}
                for fm in report.per_fold
            ],
            "means": {c.value: m._asdict() for c, m in report.means.items()},
        }
    )
    named = [(str(fm.fold), fm.model_class, fm.metrics) for fm in report.per_fold]
    named += [("mean", c, m) for c, m in report.means.items()]
    rows = [[fold, c.value, *(f"{v:.3f}" for v in m)] for fold, c, m in named]
    return stdout, _table(["fold", "class", "precision", "recall", "accuracy", "f1"], rows), {}


def cmd_corpus_stats(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    groups: Counter = Counter()
    stats = corpus_stats(tallied(iter_corpus(args.input), groups, _group_key), cfg)
    ordered = sorted(groups.items())
    stdout = _json_line(
        {
            "doc_count_by_label": {
                label.value: stats.doc_count_by_label[label]
                for label in (Label.FAKE, Label.VALID)
            },
            "mean_tokens_per_doc": stats.mean_tokens_per_doc,
            "mean_sentences_per_doc": stats.mean_sentences_per_doc,
            "token_total": stats.token_total,
            "groups": [
                {"source": source, "label": label, "count": count}
                for (source, label), count in ordered
            ],
        }
    )
    rows = [
        [source, label, str(count)] for (source, label), count in ordered
    ]
    summary = (
        f"documents: FAKE {stats.doc_count_by_label[Label.FAKE]}, "
        f"VALID {stats.doc_count_by_label[Label.VALID]}\n"
        f"tokens total {stats.token_total}, "
        f"mean tokens/doc {stats.mean_tokens_per_doc:.3f}, "
        f"mean sentences/doc {stats.mean_sentences_per_doc:.3f}"
    )
    return stdout, _table(["source", "label", "documents"], rows) + "\n" + summary, {}


def cmd_verify_corpus(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    slang = _word_list_blocks(args.slang)
    dictionary = _word_list_blocks(args.dictionary)
    docs = iter_corpus(args.input)
    overall, groups = verify_stats_by_group(docs, slang, dictionary, _group_key, cfg)
    group_rows = sorted(groups.items())
    stdout = _json_line(
        {
            "overall": overall._asdict(),
            "groups": [
                {"source": source, "label": label, **rep._asdict()}
                for (source, label), rep in group_rows
            ],
        }
    )
    named = [(f"{source} ({label})", rep) for (source, label), rep in group_rows]
    named.append(("overall", overall))
    rows = [[name, *(f"{v:.3f}" for v in rep)] for name, rep in named]
    return stdout, _table(["group", "slang/sentence", "misspellings/sentence"], rows), {}


def cmd_inspect_term(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    lexicons = [load_lexicon(path) for path in args.lexicon]
    scale = cfg.display_scale
    results = []
    rows = []
    for lex in lexicons:
        entry = lex.entries.get(args.term)
        if entry is None and args.pos is not None:
            key = normalize(args.term, cfg.locale) + RAW_POS_SEPARATOR + args.pos
            entry = lex.entries.get(key)
        if entry is None:
            entry = lex.entries.get(normalize(args.term, cfg.locale))
        record: dict = {"class": lex.model_class.value, "found": entry is not None}
        if entry is None:
            rows.append([record["class"], "no", "-", "-"])
        else:
            record.update(entry._asdict())
            rows.append(
                [
                    record["class"],
                    "yes",
                    f"{entry.fake_score * scale:.4f}",
                    f"{entry.valid_score * scale:.4f}",
                ]
            )
        results.append(record)
    stdout = _json_line({"term": args.term, "results": results})
    report = f"term {args.term!r} (scores x{scale:g})\n"
    return stdout, report + _table(["class", "found", "fake", "valid"], rows), {}


# Each command's help line, handler and the settings the handler reads:
# it takes flags for those only. --help lists both in this order.
COMMANDS = {
    "build-lexicon": ("build a lexicon from two training corpora", cmd_build_lexicon,
                      ("locale", "count_mode", "smoothing", "include_title")),
    "score": ("score documents against lexicons", cmd_score,
              ("locale", "term_set_mode", "include_title", "display_scale")),
    "evaluate": ("train on two splits and evaluate on a test set", cmd_evaluate,
                 ("locale", "count_mode", "term_set_mode", "smoothing", "include_title")),
    "cross-validate": ("stratified k-fold cross-validation", cmd_cross_validate,
                       ("locale", "count_mode", "term_set_mode", "smoothing", "seed",
                        "include_title")),
    "corpus-stats": ("document counts and token/sentence means", cmd_corpus_stats,
                     ("include_title",)),
    "verify-corpus": ("slang and misspelling rates per sentence", cmd_verify_corpus,
                      ("locale", "include_title")),
    "inspect-term": ("look one term up across lexicons", cmd_inspect_term,
                     ("locale", "display_scale")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's name and help line, which is all that top-level
    help and usage errors show; the arguments of the named command only,
    or of every command when command names none."""
    parser = argparse.ArgumentParser(
        prog="fanlex",
        description="Build, score and evaluate fake/valid news term lexicons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, (text, *_) in COMMANDS.items()}
    if command in parsers:
        parsers = {command: parsers[command]}

    if p := parsers.get("build-lexicon"):
        p.add_argument("--fake", required=True, metavar="FILE")
        p.add_argument("--valid", required=True, metavar="FILE")
        p.add_argument("--class", dest="model_class", required=True, type=_model_class)
        p.add_argument("--out", required=True, metavar="FILE")

    if p := parsers.get("score"):
        p.add_argument("--lexicon", action="append", required=True, metavar="FILE")
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--out", metavar="FILE", help="write JSONL scores here instead of stdout")
        p.add_argument("--explain", type=_number(int), metavar="N", help="report top N terms per document")

    if p := parsers.get("evaluate"):
        p.add_argument("--train-fake", required=True, metavar="FILE")
        p.add_argument("--train-valid", required=True, metavar="FILE")
        p.add_argument("--test", required=True, metavar="FILE")
        p.add_argument("--classes", action="extend", type=_model_classes, metavar="LIST")

    if p := parsers.get("cross-validate"):
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--folds", type=_number(int), default=5)
        p.add_argument("--classes", action="extend", type=_model_classes, metavar="LIST")

    if p := parsers.get("corpus-stats"):
        p.add_argument("--input", required=True, metavar="FILE")

    if p := parsers.get("verify-corpus"):
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--slang", required=True, metavar="FILE")
        p.add_argument("--dictionary", required=True, metavar="FILE")

    if p := parsers.get("inspect-term"):
        p.add_argument("--term", required=True)
        p.add_argument("--pos", help="POS tag for surface+POS lexicon lookups")
        p.add_argument("--lexicon", action="append", required=True, metavar="FILE")

    for name, p in parsers.items():
        p.add_argument("--config", metavar="FILE", help=f"config file (default ${ENV_CONFIG})")
        for setting in COMMANDS[name][2]:
            kind = FIELD_TYPES[setting]
            flag = "--" + setting.replace("_", "-")
            if kind is bool:
                pair = p.add_mutually_exclusive_group()
                pair.add_argument(flag, dest=setting, action="store_true", default=None)
                negative = "--no-" + setting.removeprefix("include_").replace("_", "-")
                pair.add_argument(negative, dest=setting, action="store_false")
            elif issubclass(kind, Enum):
                p.add_argument(flag, choices=[m.name for m in kind])
            else:
                p.add_argument(flag, type=_number(kind))
        if name in ("build-lexicon", "score", "evaluate", "cross-validate"):
            p.add_argument("--rule-table", metavar="FILE", help="JSONL analyzer rule table")
            p.add_argument("--suffix-rules", metavar="FILE", help="TSV fallback suffix rules")
        p.add_argument("--report", metavar="FILE", help="write the human-readable report here instead of stderr")
    return parser


# The arguments that name files a run reads, besides the config file.
_READS = ("fake", "valid", "lexicon", "input", "train_fake", "train_valid", "test", "slang",
          "dictionary", "rule_table", "suffix_rules")


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse --report or --out naming the same file as the other output
    or as any file the run reads, before anything is read."""
    out = getattr(args, "out", None)
    named = [("--out", out)]
    for dest in _READS:
        value = getattr(args, dest, None)
        flag = "--" + dest.replace("_", "-")
        named += [(flag, path) for path in (value if isinstance(value, list) else [value])]
    named.append(("--config" if args.config else "$" + ENV_CONFIG, _config_path(args)))
    for flag, target in (("--report", args.report), ("--out", out)):
        real = target and os.path.realpath(target)
        for other, path in named:
            if real and path and other != flag and real == os.path.realpath(path):
                raise InputError(f"{flag} and {other} name the same file")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A first argument that names a command is the command that runs.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_outputs(args)
        stdout, report, files = COMMANDS[args.command][1](args, _resolve_config(args))
        # Stdout and a report on stderr are UTF-8 whatever the locale;
        # text it cannot encode fails here, before any file is replaced.
        stdout_bytes = stdout.encode("utf-8")
        if report is not None and not report.endswith("\n"):
            report += "\n"
        if args.report:
            files[args.report] = methodcaller("write", report)
            report = None
        report_bytes = b"" if report is None else report.encode("utf-8")
        write_atomic(files)
        sys.stdout.buffer.write(stdout_bytes)
        sys.stdout.buffer.flush()
    except (FanlexError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 2)
    sys.stderr.buffer.write(report_bytes)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface.

Machine-readable output (JSON or JSONL) goes to stdout; human-readable
tables go to stderr, or to a file via --report. Exit codes: 0 success,
2 usage or input/IO errors, 3 domain precondition failures, 4 lexicon
file format or version problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from enum import Enum

from fanlex import __version__
from fanlex.config import ENV_CONFIG, FIELD_TYPES, RunConfig, _parse, load_config_file, make_config
from fanlex.corpus import (
    Dataset,
    Label,
    corpus_stats,
    load_corpus,
    load_word_list,
    verify_stats_by_group,
    write_atomic,
)
from fanlex.errors import DomainError, FormatError, InputError
from fanlex.evaluation import cross_validate, evaluate_models
from fanlex.lexicon import (
    ModelClass,
    RAW_POS_SEPARATOR,
    build_lexicon,
    lexicon_stats,
    load_lexicon,
    save_lexicon,
)
from fanlex.morph import (
    AnalyzerRuleTable,
    DEFAULT_SUFFIX_RULES,
    load_rule_table,
    load_suffix_rules,
    normalize,
)
from fanlex.scorer import _explain_terms, _score_rows

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_FORMAT = 4

_ALL_CLASSES = [c.value for c in ModelClass]


def _model_class(value: str) -> ModelClass:
    try:
        return ModelClass(value.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown model class {value!r}; pick from {', '.join(_ALL_CLASSES)}"
        ) from None


def _parse_classes(values: list[str] | None) -> list[ModelClass]:
    if not values:
        return list(ModelClass)
    out: list[ModelClass] = []
    for chunk in values:
        for name in chunk.split(","):
            name = name.strip()
            if name:
                out.append(_model_class(name))
    if not out:
        raise InputError("--classes names no model class")
    if len(set(out)) != len(out):
        raise InputError("duplicate entries in --classes")
    return out


def _number(kind: type):
    """A flag parser with the config file's number rule, named after kind
    so that argparse reports "invalid float value" as for kind itself."""

    def parse(text: str):
        return _parse(kind, text)

    parse.__name__ = kind.__name__
    return parse


def _add_common(parser: argparse.ArgumentParser, analyzes: bool = False) -> None:
    parser.add_argument("--config", metavar="FILE", help=f"config file (default ${ENV_CONFIG})")
    for name, kind in FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            pair = parser.add_mutually_exclusive_group()
            pair.add_argument(flag, dest=name, action="store_true", default=None)
            negative = "--no-" + name.removeprefix("include_").replace("_", "-")
            pair.add_argument(negative, dest=name, action="store_false")
        elif issubclass(kind, Enum):
            parser.add_argument(flag, choices=[m.name for m in kind])
        else:
            parser.add_argument(flag, type=_number(kind))
    if analyzes:
        parser.add_argument("--rule-table", metavar="FILE", help="JSONL analyzer rule table")
        parser.add_argument("--suffix-rules", metavar="FILE", help="TSV fallback suffix rules")
    parser.add_argument("--report", metavar="FILE", help="write the human-readable report here instead of stderr")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    file_values = load_config_file(path) if path else None
    overrides = {}
    for name, kind in FIELD_TYPES.items():
        value = getattr(args, name)
        overrides[name] = kind[value] if value is not None and issubclass(kind, Enum) else value
    return make_config(file_values, **overrides)


def _resolve_analyzer(args: argparse.Namespace, cfg: RunConfig) -> AnalyzerRuleTable | None:
    suffix_rules = (
        load_suffix_rules(args.suffix_rules) if args.suffix_rules else DEFAULT_SUFFIX_RULES
    )
    if args.rule_table:
        return load_rule_table(args.rule_table, cfg.locale, suffix_rules)
    if args.suffix_rules:
        return AnalyzerRuleTable(suffix_rules=suffix_rules)
    return None


def _json_line(obj: object) -> str:
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _emit_json(obj: object) -> None:
    sys.stdout.write(_json_line(obj))


def _emit_report(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.report:
        write_atomic(args.report, [text])
    else:
        sys.stderr.write(text)


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


def _check_label_purity(ds: Dataset, expected: Label, flag: str) -> None:
    for doc in ds.documents:
        if doc.label is not expected:
            raise InputError(
                f"{flag} corpus contains a document labeled {doc.label.value}: {doc.id!r}"
            )


def _group_key(doc) -> tuple[str, str]:
    return (doc.source or "(none)", doc.label.value)


def cmd_build_lexicon(args: argparse.Namespace, cfg: RunConfig) -> int:
    analyzer = _resolve_analyzer(args, cfg)
    fake = load_corpus(args.fake)
    valid = load_corpus(args.valid)
    _check_label_purity(fake, Label.FAKE, "--fake")
    _check_label_purity(valid, Label.VALID, "--valid")
    lex = build_lexicon(
        fake,
        valid,
        args.model_class,
        cfg.count_mode,
        analyzer=analyzer,
        locale=cfg.locale,
        include_title=cfg.include_title,
        smoothing=cfg.smoothing,
    )
    save_lexicon(lex, args.out)
    stats = lexicon_stats(lex)
    _emit_json(
        {
            "class": lex.model_class.value,
            "count_mode": lex.count_mode.value,
            **stats._asdict(),
            "fake_total": lex.fake_total,
            "valid_total": lex.valid_total,
            "out": args.out,
        }
    )
    _emit_report(
        args,
        _table(
            ["model", "unique terms", "common", "only fake", "only valid"],
            [[lex.model_class.value, *map(str, stats)]],
        ),
    )
    return EXIT_OK


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.explain is not None and args.explain < 0:
        raise InputError("--explain must be >= 0")
    if args.report and not args.explain:
        raise InputError("--report needs --explain N with N > 0: score has no other report")
    analyzer = _resolve_analyzer(args, cfg)
    lexicons = [load_lexicon(path) for path in args.lexicon]
    ds = load_corpus(args.input)
    scale = cfg.display_scale
    lines = []
    blocks = []
    for doc, lex, terms, score in _score_rows(
        ds,
        lexicons,
        cfg.term_set_mode,
        analyzer=analyzer,
        locale=cfg.locale,
        include_title=cfg.include_title,
    ):
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
    if args.out:
        write_atomic(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    if args.explain:
        _emit_report(args, "\n\n".join(blocks))
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    analyzer = _resolve_analyzer(args, cfg)
    classes = _parse_classes(args.classes)
    train_fake = load_corpus(args.train_fake)
    train_valid = load_corpus(args.train_valid)
    _check_label_purity(train_fake, Label.FAKE, "--train-fake")
    _check_label_purity(train_valid, Label.VALID, "--train-valid")
    test = load_corpus(args.test)
    if not test.documents:
        raise DomainError("test corpus is empty")
    results = evaluate_models(train_fake, train_valid, test, classes, cfg, analyzer)
    _emit_json(
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
    _emit_report(args, "\n\n".join(blocks))
    return EXIT_OK


def cmd_cross_validate(args: argparse.Namespace, cfg: RunConfig) -> int:
    analyzer = _resolve_analyzer(args, cfg)
    classes = _parse_classes(args.classes)
    ds = load_corpus(args.input)
    report = cross_validate(ds, args.folds, classes, cfg.seed, cfg, analyzer)
    _emit_json(
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
    labeled = [(str(fm.fold), fm.model_class, fm.metrics) for fm in report.per_fold]
    labeled += [("mean", c, m) for c, m in report.means.items()]
    rows = [[fold, c.value, *(f"{v:.3f}" for v in m)] for fold, c, m in labeled]
    _emit_report(
        args, _table(["fold", "class", "precision", "recall", "accuracy", "f1"], rows)
    )
    return EXIT_OK


def cmd_corpus_stats(args: argparse.Namespace, cfg: RunConfig) -> int:
    ds = load_corpus(args.input)
    stats = corpus_stats(ds, include_title=cfg.include_title)
    ordered = sorted(Counter(_group_key(doc) for doc in ds.documents).items())
    _emit_json(
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
    _emit_report(args, _table(["source", "label", "documents"], rows) + "\n" + summary)
    return EXIT_OK


def cmd_verify_corpus(args: argparse.Namespace, cfg: RunConfig) -> int:
    ds = load_corpus(args.input)
    slang = load_word_list(args.slang, cfg.locale)
    dictionary = load_word_list(args.dictionary, cfg.locale)
    overall, groups = verify_stats_by_group(
        ds,
        slang,
        dictionary,
        _group_key,
        locale=cfg.locale,
        include_title=cfg.include_title,
    )
    group_rows = sorted(groups.items())
    _emit_json(
        {
            "overall": overall._asdict(),
            "groups": [
                {"source": source, "label": label, **rep._asdict()}
                for (source, label), rep in group_rows
            ],
        }
    )
    labeled = [(f"{source} ({label})", rep) for (source, label), rep in group_rows]
    labeled.append(("overall", overall))
    rows = [[name, *(f"{v:.3f}" for v in rep)] for name, rep in labeled]
    _emit_report(
        args, _table(["group", "slang/sentence", "misspellings/sentence"], rows)
    )
    return EXIT_OK


def cmd_inspect_term(args: argparse.Namespace, cfg: RunConfig) -> int:
    lexicons = [load_lexicon(path) for path in args.lexicon]
    results = []
    for lex in lexicons:
        entry = lex.entries.get(args.term)
        if entry is None and args.pos is not None:
            key = normalize(args.term, cfg.locale) + RAW_POS_SEPARATOR + args.pos
            entry = lex.entries.get(key)
        if entry is None:
            entry = lex.entries.get(normalize(args.term, cfg.locale))
        record: dict = {"class": lex.model_class.value, "found": entry is not None}
        if entry is not None:
            record.update(entry._asdict())
        results.append(record)
    _emit_json({"term": args.term, "results": results})
    scale = cfg.display_scale
    rows = []
    for record in results:
        if record["found"]:
            rows.append(
                [
                    record["class"],
                    "yes",
                    f"{record['fake_score'] * scale:.4f}",
                    f"{record['valid_score'] * scale:.4f}",
                ]
            )
        else:
            rows.append([record["class"], "no", "-", "-"])
    _emit_report(
        args,
        f"term {args.term!r} (scores x{scale:g})\n"
        + _table(["class", "found", "fake", "valid"], rows),
    )
    return EXIT_OK


# Each command's help line and handler, in the order --help lists them.
COMMANDS = {
    "build-lexicon": ("build a lexicon from two training corpora", cmd_build_lexicon),
    "score": ("score documents against lexicons", cmd_score),
    "evaluate": ("train on two splits and evaluate on a test set", cmd_evaluate),
    "cross-validate": ("stratified k-fold cross-validation", cmd_cross_validate),
    "corpus-stats": ("document counts and token/sentence means", cmd_corpus_stats),
    "verify-corpus": ("slang and misspelling rates per sentence", cmd_verify_corpus),
    "inspect-term": ("look one term up across lexicons", cmd_inspect_term),
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
    parsers = {name: sub.add_parser(name, help=text) for name, (text, _) in COMMANDS.items()}
    if command in parsers:
        parsers = {command: parsers[command]}

    if p := parsers.get("build-lexicon"):
        p.add_argument("--fake", required=True, metavar="FILE")
        p.add_argument("--valid", required=True, metavar="FILE")
        p.add_argument("--class", dest="model_class", required=True, type=_model_class)
        p.add_argument("--out", required=True, metavar="FILE")
        _add_common(p, analyzes=True)

    if p := parsers.get("score"):
        p.add_argument("--lexicon", action="append", required=True, metavar="FILE")
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--out", metavar="FILE", help="write JSONL scores here instead of stdout")
        p.add_argument("--explain", type=_number(int), metavar="N", help="report top N terms per document")
        _add_common(p, analyzes=True)

    if p := parsers.get("evaluate"):
        p.add_argument("--train-fake", required=True, metavar="FILE")
        p.add_argument("--train-valid", required=True, metavar="FILE")
        p.add_argument("--test", required=True, metavar="FILE")
        p.add_argument("--classes", action="append", metavar="LIST")
        _add_common(p, analyzes=True)

    if p := parsers.get("cross-validate"):
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--folds", type=_number(int), default=5)
        p.add_argument("--classes", action="append", metavar="LIST")
        _add_common(p, analyzes=True)

    if p := parsers.get("corpus-stats"):
        p.add_argument("--input", required=True, metavar="FILE")
        _add_common(p)

    if p := parsers.get("verify-corpus"):
        p.add_argument("--input", required=True, metavar="FILE")
        p.add_argument("--slang", required=True, metavar="FILE")
        p.add_argument("--dictionary", required=True, metavar="FILE")
        _add_common(p)

    if p := parsers.get("inspect-term"):
        p.add_argument("--term", required=True)
        p.add_argument("--pos", help="POS tag for surface+POS lexicon lookups")
        p.add_argument("--lexicon", action="append", required=True, metavar="FILE")
        _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A first argument that names a command is the command that runs.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return COMMANDS[args.command][1](args, _resolve_config(args))
    except (InputError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FORMAT


def entry() -> None:
    raise SystemExit(main())

"""Classifier evaluation: confusion matrices, metrics, cross-validation.

FAKE is the positive class throughout: tp counts documents that are
FAKE and predicted FAKE, tn counts VALID predicted VALID.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import add, attrgetter
from typing import Iterable, NamedTuple, Sequence

from fanlex.config import RunConfig
from fanlex.corpus import Document, Label, _fold_of, tallied
from fanlex.errors import LeakageError
from fanlex.lexicon import (
    ModelClass,
    TermPipeline,
    count_splits,
    count_terms,
    lexicon_from_counts,
)
from fanlex.morph import AnalyzerRuleTable
from fanlex.scorer import _score_terms


class ConfusionMatrix(NamedTuple):
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


class Metrics(NamedTuple):
    precision: float
    recall: float
    accuracy: float
    f1: float


class EvalResult(NamedTuple):
    confusion: ConfusionMatrix
    metrics: Metrics


class FoldMetrics(NamedTuple):
    fold: int
    model_class: ModelClass
    metrics: Metrics


class CvReport(NamedTuple):
    per_fold: tuple[FoldMetrics, ...]
    means: dict[ModelClass, Metrics]


def confusion(predicted: Sequence[Label], actual: Sequence[Label]) -> ConfusionMatrix:
    """Count prediction outcomes with FAKE as the positive class."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions, {len(actual)} labels"
        )
    if not predicted:
        raise ValueError("empty prediction list")
    outcomes = Counter(zip(predicted, actual))
    fake, valid = Label.FAKE, Label.VALID
    return ConfusionMatrix(
        tp=outcomes[fake, fake],
        fn=outcomes[valid, fake],
        fp=outcomes[fake, valid],
        tn=outcomes[valid, valid],
    )


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Precision, recall, accuracy and F1 from a confusion matrix.

    Ratios with a zero denominator are reported as 0 rather than
    raising.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    accuracy = (cm.tp + cm.tn) / cm.total
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return Metrics(precision=precision, recall=recall, accuracy=accuracy, f1=f1)


def evaluate_models(
    train_fake: Iterable[Document],
    train_valid: Iterable[Document],
    test: Iterable[Document],
    classes: Sequence[ModelClass],
    config: RunConfig = RunConfig(),
    analyzer: AnalyzerRuleTable | None = None,
) -> dict[ModelClass, EvalResult]:
    """Train one lexicon per model class and evaluate on the test set.

    Each split is any iterable of documents, read once, training first;
    of the test set only terms and labels are kept. Refuses id overlap
    between training and test before scoring. Results do not depend on
    test document order. Each document is analyzed at most once.
    """
    _check_classes(classes)
    pipeline = TermPipeline(classes, analyzer, config)
    train_ids: Counter = Counter()
    fake, valid = (tallied(d, train_ids, attrgetter("id")) for d in (train_fake, train_valid))
    fake_counts, valid_counts = count_splits(fake, valid, pipeline)
    rows = [(doc.id, doc.label, pipeline.terms(doc)) for doc in test]
    del pipeline  # with its memos: scoring reads only the terms made
    overlap = {doc_id for doc_id, _, _ in rows if doc_id in train_ids}
    if overlap:
        sample = ", ".join(sorted(overlap)[:5])
        raise LeakageError(
            f"{len(overlap)} document id(s) shared between train and test: {sample}"
        )
    actual = [label for _, label, _ in rows]
    test_terms = [terms for _, _, terms in rows]
    return _score_fold(classes, fake_counts, valid_counts, test_terms, actual, config)


def cross_validate(
    docs: Iterable[Document],
    k: int,
    classes: Sequence[ModelClass],
    seed: int,
    config: RunConfig = RunConfig(),
    analyzer: AnalyzerRuleTable | None = None,
) -> CvReport:
    """Stratified k-fold cross-validation over mixed-label documents.

    docs is any iterable, read once; only each document's label and terms
    are kept, not its id. Per-class means are the arithmetic means of the
    per-fold metrics. The same documents and seed give the same report.

    Each document's terms are computed once per run and counted once
    per class and label; each fold's training counts are those totals
    minus its test documents' counts. Counts add up exactly, under
    either count mode, so each fold's metrics equal those of
    build_lexicon on its training split and score_document on its test
    split.
    """
    _check_classes(classes)
    pipeline = TermPipeline(classes, analyzer, config)
    kept = [(doc.label, pipeline.terms(doc)) for doc in docs]
    del pipeline  # with its memos: the folds read only the terms made
    # actual, terms and fold_of are aligned by position with docs.
    actual, terms = [label for label, _ in kept], [t for _, t in kept]
    fold_of = _fold_of(actual, k, seed)
    mode = config.count_mode
    width = len(classes)

    def count(rows: Iterable[int], label: Label) -> list[Counter]:
        return count_terms((terms[i] for i in rows if actual[i] is label), width, mode)

    totals = {label: count(range(len(actual)), label) for label in Label}
    per_fold: list[FoldMetrics] = []
    for fold in range(k):
        held = [i for i, f in enumerate(fold_of) if f == fold]
        fake = map(_minus, totals[Label.FAKE], count(held, Label.FAKE))
        valid = map(_minus, totals[Label.VALID], count(held, Label.VALID))
        test_terms = [terms[i] for i in held]
        results = _score_fold(
            classes, fake, valid, test_terms, [actual[i] for i in held], config
        )
        per_fold.extend(FoldMetrics(fold, c, results[c].metrics) for c in classes)
    means = {}
    for c in classes:
        rows = [f.metrics for f in per_fold if f.model_class is c]
        # Fold order, left to right: sum() compensates rounding since 3.12.
        means[c] = Metrics(*(reduce(add, column) / k for column in zip(*rows)))
    return CvReport(per_fold=tuple(per_fold), means=means)


def _check_classes(classes: Sequence[ModelClass]) -> None:
    if not classes:
        raise ValueError("no model class")
    if len(set(classes)) != len(classes):
        raise ValueError("model classes must be distinct")


def _minus(total: Counter, held: Counter) -> Counter:
    """total - held, looping over held only; a term may be left at 0."""
    out = total.copy()
    out.subtract(held)
    return out


def _score_fold(
    classes: Sequence[ModelClass],
    fake_counts: Iterable[Counter],
    valid_counts: Iterable[Counter],
    test_terms: Sequence[Sequence[list[str]]],
    actual: Sequence[Label],
    config: RunConfig,
) -> dict[ModelClass, EvalResult]:
    """Build each class's lexicon from its counts and score the test terms.

    Counts hold one Counter per class and each test document's terms one
    list per class, in class order. Counts are drawn one class at a time.
    """
    results: dict[ModelClass, EvalResult] = {}
    counts = zip(classes, fake_counts, valid_counts)
    for i, (model_class, fake, valid) in enumerate(counts):
        lex = lexicon_from_counts(
            model_class, fake, valid, config.count_mode, config.smoothing
        )
        predicted = [
            _score_terms(Counter(terms[i]), lex, config.term_set_mode).label
            for terms in test_terms
        ]
        cm = confusion(predicted, actual)
        results[model_class] = EvalResult(confusion=cm, metrics=metrics(cm))
    return results

"""Classifier evaluation: confusion matrices, metrics, cross-validation.

FAKE is the positive class throughout: tp counts documents that are
FAKE and predicted FAKE, tn counts VALID predicted VALID.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from fanlex.config import RunConfig
from fanlex.corpus import Dataset, Label, stratified_folds
from fanlex.errors import LeakageError
from fanlex.lexicon import (
    ModelClass,
    add_document_terms,
    build_lexicon,
    document_terms_by_class,
    lexicon_from_counts,
)
from fanlex.morph import AnalyzerRuleTable
from fanlex.scorer import _score_terms, score_document


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    accuracy: float
    f1: float


@dataclass(frozen=True)
class EvalResult:
    confusion: ConfusionMatrix
    metrics: Metrics


class FoldMetrics(NamedTuple):
    fold: int
    model_class: ModelClass
    metrics: Metrics


@dataclass(frozen=True)
class CvReport:
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
    tp = fn = fp = tn = 0
    for pred, act in zip(predicted, actual):
        if act is Label.FAKE:
            if pred is Label.FAKE:
                tp += 1
            else:
                fn += 1
        else:
            if pred is Label.FAKE:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


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
    train_fake: Dataset,
    train_valid: Dataset,
    test: Dataset,
    classes: Sequence[ModelClass],
    config: RunConfig | None = None,
    analyzer: AnalyzerRuleTable | None = None,
) -> dict[ModelClass, EvalResult]:
    """Train one lexicon per model class and evaluate on the test set.

    Refuses id overlap between the training splits and the test set.
    Results do not depend on test document order.
    """
    if config is None:
        config = RunConfig()
    if len(set(classes)) != len(classes):
        raise ValueError("model classes must be distinct")
    train_ids = train_fake.ids() | train_valid.ids()
    overlap = train_ids & test.ids()
    if overlap:
        sample = ", ".join(sorted(overlap)[:5])
        raise LeakageError(
            f"{len(overlap)} document id(s) shared between train and test: {sample}"
        )
    actual = [doc.label for doc in test.documents]
    results: dict[ModelClass, EvalResult] = {}
    for model_class in classes:
        lex = build_lexicon(
            train_fake,
            train_valid,
            model_class,
            config.count_mode,
            analyzer=analyzer,
            locale=config.locale,
            include_title=config.include_title,
            smoothing=config.smoothing,
        )
        predicted = [
            score_document(
                doc,
                lex,
                config.term_set_mode,
                analyzer=analyzer,
                locale=config.locale,
                include_title=config.include_title,
            ).label
            for doc in test.documents
        ]
        cm = confusion(predicted, actual)
        results[model_class] = EvalResult(confusion=cm, metrics=metrics(cm))
    return results


def cross_validate(
    ds: Dataset,
    k: int,
    classes: Sequence[ModelClass],
    seed: int,
    config: RunConfig | None = None,
    analyzer: AnalyzerRuleTable | None = None,
) -> CvReport:
    """Stratified k-fold cross-validation over a mixed-label dataset.

    Per-class means are the arithmetic means of the per-fold metrics.
    The same seed always produces the same folds and the same report.

    The corpus is counted once per class and label; each fold's
    training counts are those totals minus its test documents' counts,
    so fold lexicons are built by subtraction. Counts add up exactly,
    under either count mode, so the report equals one built by
    running evaluate_models on every fold of stratified_folds.
    """
    if config is None:
        config = RunConfig()
    if len(set(classes)) != len(classes):
        raise ValueError("model classes must be distinct")
    folds = stratified_folds(ds, k, seed)
    mode = config.count_mode
    opts = dict(
        analyzer=analyzer, locale=config.locale, include_title=config.include_title
    )
    totals = [{Label.FAKE: Counter(), Label.VALID: Counter()} for _ in classes]
    for doc in ds.documents:
        for counts, terms in zip(totals, document_terms_by_class(doc, classes, **opts)):
            add_document_terms(counts[doc.label], terms, mode)
    per_fold: list[FoldMetrics] = []
    sums: dict[ModelClass, list[float]] = {c: [0.0, 0.0, 0.0, 0.0] for c in classes}
    for index, (_, test) in enumerate(folds):
        # Recomputed per fold rather than cached for the run: the
        # analyzer memo makes this cheap, and memory stays one fold's.
        test_terms = [
            document_terms_by_class(doc, classes, **opts) for doc in test.documents
        ]
        actual = [doc.label for doc in test.documents]
        for i, model_class in enumerate(classes):
            held = {Label.FAKE: Counter(), Label.VALID: Counter()}
            for label, terms in zip(actual, test_terms):
                add_document_terms(held[label], terms[i], mode)
            lex = lexicon_from_counts(
                model_class,
                totals[i][Label.FAKE] - held[Label.FAKE],
                totals[i][Label.VALID] - held[Label.VALID],
                mode,
                config.smoothing,
            )
            predicted = [
                _score_terms(terms[i], lex, config.term_set_mode).label
                for terms in test_terms
            ]
            m = metrics(confusion(predicted, actual))
            per_fold.append(FoldMetrics(index, model_class, m))
            acc = sums[model_class]
            acc[0] += m.precision
            acc[1] += m.recall
            acc[2] += m.accuracy
            acc[3] += m.f1
    means = {
        c: Metrics(
            precision=sums[c][0] / k,
            recall=sums[c][1] / k,
            accuracy=sums[c][2] / k,
            f1=sums[c][3] / k,
        )
        for c in classes
    }
    return CvReport(per_fold=tuple(per_fold), means=means)

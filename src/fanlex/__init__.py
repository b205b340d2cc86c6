"""Lexicon-based fake/valid news labeling toolkit.

Builds class-conditional term lexicons from labeled corpora, scores
documents by summed term scores, and evaluates the resulting labels
with stratified cross-validation. Text kernels run compiled when the
accelerator extension is installed and fall back to pure Python
otherwise.
"""

from fanlex._kernels import BACKEND as _KERNEL_BACKEND
from fanlex.config import RunConfig
from fanlex.corpus import (
    CorpusStats,
    Dataset,
    Document,
    Label,
    Split,
    VerificationReport,
    corpus_stats,
    load_corpus,
    load_word_list,
    save_corpus,
    split_sentences,
    stratified_folds,
    verify_stats,
    verify_stats_by_group,
)
from fanlex.evaluation import (
    ConfusionMatrix,
    CvReport,
    EvalResult,
    FoldMetrics,
    Metrics,
    confusion,
    cross_validate,
    evaluate_models,
    metrics,
)
from fanlex.lexicon import (
    CountMode,
    Lexicon,
    LexiconStats,
    ModelClass,
    TermEntry,
    build_lexicon,
    expand_suffix_subsequences,
    extract_terms,
    lexicon_stats,
    load_lexicon,
    merge_lexicons,
    save_lexicon,
)
from fanlex.morph import (
    AnalyzerRuleTable,
    Locale,
    MorphAnalysis,
    analyze_document,
    analyze_token,
    load_rule_table,
    load_suffix_rules,
    normalize,
    tokenize,
)
from fanlex.scorer import (
    DocumentScore,
    TermContribution,
    TermSetMode,
    explain,
    score_batch,
    score_document,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the active text-kernel backend: 'compiled' or 'pure'."""
    return _KERNEL_BACKEND


__all__ = [
    "AnalyzerRuleTable",
    "ConfusionMatrix",
    "CorpusStats",
    "CountMode",
    "CvReport",
    "Dataset",
    "Document",
    "DocumentScore",
    "EvalResult",
    "FoldMetrics",
    "Label",
    "Lexicon",
    "LexiconStats",
    "Locale",
    "Metrics",
    "ModelClass",
    "MorphAnalysis",
    "RunConfig",
    "Split",
    "TermContribution",
    "TermEntry",
    "TermSetMode",
    "VerificationReport",
    "analyze_document",
    "analyze_token",
    "build_lexicon",
    "confusion",
    "corpus_stats",
    "cross_validate",
    "evaluate_models",
    "expand_suffix_subsequences",
    "explain",
    "extract_terms",
    "kernel_backend",
    "lexicon_stats",
    "load_corpus",
    "load_lexicon",
    "load_rule_table",
    "load_suffix_rules",
    "load_word_list",
    "merge_lexicons",
    "metrics",
    "normalize",
    "save_corpus",
    "save_lexicon",
    "score_batch",
    "score_document",
    "split_sentences",
    "stratified_folds",
    "tokenize",
    "verify_stats",
    "verify_stats_by_group",
]

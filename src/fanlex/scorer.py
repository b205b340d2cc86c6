"""Document scoring against built lexicons.

A document's fake score is the sum of the fake scores of its terms,
same for valid; terms absent from the lexicon contribute zero to both
sides. The predicted label is VALID only when the valid score is
strictly greater, so exact ties (including empty documents) go to
FAKE.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from fanlex.config import Locale, RunConfig, TermSetMode
from fanlex.corpus import Dataset, Document, Label
from fanlex.errors import ModelMismatchError
from fanlex.lexicon import Lexicon, ModelClass, TermPipeline
from fanlex.morph import AnalyzerRuleTable


class DocumentScore(NamedTuple):
    fake_score: float
    valid_score: float
    label: Label
    model_class: ModelClass
    unknown_terms: int


class TermContribution(NamedTuple):
    """One known term's scores and their difference (fake minus valid)."""

    term: str
    fake_score: float
    valid_score: float
    delta: float


def score_document(
    doc: Document,
    lex: Lexicon,
    config: RunConfig | None = None,
    analyzer: AnalyzerRuleTable | None = None,
) -> DocumentScore:
    """Score one document against one lexicon.

    The config's term_set_mode says how repeated terms count: DISTINCT
    sums each of the document's distinct terms once, MULTISET weights
    each term by its occurrence count. unknown_terms counts lexicon
    misses the same way: distinct terms or occurrences. Its locale and
    include_title shape the terms (default RunConfig()). For many
    documents use score_batch, which shares one TermPipeline.
    """
    pipeline = TermPipeline((lex.model_class,), analyzer, config)
    terms = Counter(pipeline.terms(doc)[0])
    return _score_terms(terms, lex, pipeline.config.term_set_mode)


def _score_terms(
    terms: Counter, lex: Lexicon, term_set_mode: TermSetMode
) -> DocumentScore:
    """score_document on a document's term multiset, already extracted.

    Scores are summed in the multiset's iteration order, so the same
    Counter always yields bit-identical scores.
    """
    distinct = term_set_mode is TermSetMode.DISTINCT
    fake = 0.0
    valid = 0.0
    unknown = 0
    pair_of = lex._pair
    for term, count in terms.items():
        weight = 1 if distinct else count
        pair = pair_of(term)
        if pair is None:
            unknown += weight
        else:
            fake += weight * pair[0]
            valid += weight * pair[1]
    label = Label.VALID if valid > fake else Label.FAKE
    return DocumentScore(
        fake_score=fake,
        valid_score=valid,
        label=label,
        model_class=lex.model_class,
        unknown_terms=unknown,
    )


def explain(
    doc: Document,
    lex: Lexicon,
    top_n: int,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> list[TermContribution]:
    """The document's strongest known terms, by absolute score difference.

    Covers the document's distinct terms that the lexicon knows, sorted
    by |fake - valid| descending with lexicographic term order breaking
    ties. Unknown terms never appear.
    """
    if top_n < 0:
        raise ValueError("top_n must be >= 0")
    config = RunConfig(locale=locale, include_title=include_title)
    terms = TermPipeline((lex.model_class,), analyzer, config).terms(doc)[0]
    return _explain_terms(Counter(terms), lex, top_n)


def _explain_terms(terms: Counter, lex: Lexicon, top_n: int) -> list[TermContribution]:
    """explain on a document's term multiset, already extracted.

    nsmallest equals a full sort cut to top_n, so only the kept terms
    become TermContributions.
    """
    pair_of = lex._pair
    known = ((t, *pair) for t in terms if (pair := pair_of(t)) is not None)
    top = heapq.nsmallest(top_n, known, key=lambda row: (-abs(row[1] - row[2]), row[0]))
    return [
        TermContribution(term=t, fake_score=f, valid_score=v, delta=f - v)
        for t, f, v in top
    ]


def score_batch(
    docs: Dataset,
    lexicons: Sequence[Lexicon],
    term_set_mode: TermSetMode = TermSetMode.DISTINCT,
    *,
    analyzer: AnalyzerRuleTable | None = None,
    locale: Locale = Locale.TURKISH,
    include_title: bool = True,
) -> dict[str, dict[ModelClass, DocumentScore]]:
    """Score every document against every lexicon.

    Lexicons must have pairwise distinct model classes. The result is
    keyed by document id in dataset order, then by model class in the
    given lexicon order; each document's scores are independent of the
    rest of the batch.
    """
    config = RunConfig(locale=locale, term_set_mode=term_set_mode, include_title=include_title)
    table: dict[str, dict[ModelClass, DocumentScore]] = {
        doc.id: {} for doc in docs.documents
    }
    for doc, lex, _, score in _score_rows(docs, lexicons, config, analyzer):
        table[doc.id][lex.model_class] = score
    return table


def _score_rows(
    docs: Iterable[Document],
    lexicons: Sequence[Lexicon],
    config: RunConfig,
    analyzer: AnalyzerRuleTable | None,
) -> Iterator[tuple[Document, Lexicon, Counter, DocumentScore]]:
    """(document, lexicon, terms, score) in document, then lexicon order.

    One TermPipeline over the lexicon classes serves every document,
    so each document's terms for all lexicons come from one call; the
    config gives its locale and title setting and the term_set_mode.
    """
    classes = [lex.model_class for lex in lexicons]
    for i, model_class in enumerate(classes):
        if model_class in classes[:i]:
            raise ModelMismatchError(
                f"duplicate lexicon class {model_class.value} in batch"
            )
    pipeline = TermPipeline(classes, analyzer, config)
    mode = config.term_set_mode
    for doc in docs:
        for lex, terms in zip(lexicons, map(Counter, pipeline.terms(doc))):
            yield doc, lex, terms, _score_terms(terms, lex, mode)

"""End-to-end answering: question -> structured query -> best supporting fact.

The entity candidates are ranks with TF-IDF scores, best first; the
relation acts as a hard filter over their facts, and the answer score is
the entity candidate's score, unmodified.  Names are looked up only for
the facts that pass.  no-answer is an explicit None outcome, never an
exception.
"""

from dataclasses import dataclass

from .corpus import Fact
from .index import (
    DEFAULT_CANDIDATE_CAP,
    EntityIndex,
    ReachIndex,
    query_entity_index,
    query_reach,
)
from .models import TagPrediction, entity_phrase, predict_relation, predict_tags
from .textproc import tokenize

__all__ = ["Answer", "StructuredQuery", "answer", "build_structured_query"]


@dataclass(frozen=True)
class StructuredQuery:
    entity_phrase: tuple[str, ...]
    relation: str
    degraded: bool = False

    @classmethod
    def of(cls, tag_pred: TagPrediction, relation: str, tokens) -> "StructuredQuery":
        """The query formed by a question's tag prediction and relation."""
        phrase = entity_phrase(tag_pred.mapped_tags, tokens)
        return cls(tuple(phrase), relation, tag_pred.degraded)


@dataclass(frozen=True)
class Answer:
    supporting_fact: Fact
    score: float
    degraded: bool


def build_structured_query(
    entity_model, relation_model, question_text: str, lexicon=None
) -> StructuredQuery:
    """Distill a question into {entity phrase, relation} via the two models."""
    tokens = tokenize(question_text)
    if not tokens:
        raise ValueError(f"question {question_text!r} has no tokens")
    tag_pred = predict_tags(entity_model, tokens, lexicon)
    relation, _ = predict_relation(relation_model, tokens, lexicon)
    return StructuredQuery.of(tag_pred, relation, tokens)


def answer(
    query: StructuredQuery,
    entity_index: EntityIndex,
    reach_index: ReachIndex,
    k: int = DEFAULT_CANDIDATE_CAP,
) -> Answer | None:
    """Best candidate fact for the query, or None when nothing matches."""
    candidates = query_entity_index(entity_index, list(query.entity_phrase), k)
    answer_set = query_reach(reach_index, candidates, query.relation)
    if not answer_set:
        return None
    # candidates come best first, ties by rank, so the first fact is the best
    best = answer_set[0]
    return Answer(
        supporting_fact=Fact(best.entity, best.relation, best.object),
        score=best.score,
        degraded=query.degraded,
    )

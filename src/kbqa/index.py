"""Retrieval structures: the TF-IDF n-gram entity index and the reachability index.

Each (entity, alias) pair is one document.  For an n-gram g in alias a:

    tf(g, a)  = count(g in a) / total n-grams of a   (sizes 1..3 pooled)
    idf(g)    = ln((1 + N) / (1 + df(g))) + 1
    weight    = tf * idf

An entity's weight for g is its best over its aliases, so the index
keeps one posting per (n-gram, entity).  Query scoring sums those
weights over the phrase's n-grams, so multi-gram overlap is rewarded
while duplicated aliases cannot inflate a single gram's contribution.

Both indexes are saved as one `QAIDX 2` artifact:

    QAIDX 2 payload=N aliases=A
    PARAM weight 1 P
    POSTINGS G
    gram<TAB>entity<TAB>entity...     one row per n-gram, sorted
    EDGES M
    subject<TAB>relation<TAB>object   grouped by sorted subject

The payload holds the P posting weights, in row order.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .artifact import Artifact, write_artifact
from .corpus import KnowledgeBase
from .errors import IntegrityError, ParseError
from .textproc import ngrams

__all__ = [
    "AnswerCandidate",
    "CandidateSet",
    "DEFAULT_CANDIDATE_CAP",
    "EntityIndex",
    "MAX_NGRAM",
    "ReachIndex",
    "build_entity_index",
    "build_reach_index",
    "load_indexes",
    "query_entity_index",
    "query_reach",
    "save_indexes",
]

MAX_NGRAM = 3
DEFAULT_CANDIDATE_CAP = 50


@dataclass(frozen=True)
class EntityIndex:
    """postings: n-gram -> ((entity, weight), ...) sorted by entity, with
    each entity's best weight over its aliases."""

    postings: dict[str, tuple[tuple[str, float], ...]]
    alias_count: int


@dataclass(frozen=True)
class CandidateSet:
    """Entities scored against a phrase, descending score, ties by entity id."""

    candidates: tuple[tuple[str, float], ...]
    k: int


@dataclass(frozen=True)
class ReachIndex:
    """entity -> ((relation, object), ...) in source fact order."""

    edges: dict[str, tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class AnswerCandidate:
    entity: str
    relation: str
    object: str
    score: float


def build_entity_index(kb: KnowledgeBase) -> EntityIndex:
    """Index every (entity, alias) document by its 1..3-grams with TF-IDF
    weights, keeping each entity's best weight per n-gram."""
    documents = [
        (entity, Counter(ngrams(alias.split(" "), MAX_NGRAM)))
        for entity in kb.aliases
        for alias in kb.aliases[entity]
    ]
    if not documents:
        raise IntegrityError("cannot build an entity index from a KB with no aliases")

    n_docs = len(documents)
    df: dict[str, int] = {}
    for _, counts in documents:
        for gram in counts:
            df[gram] = df.get(gram, 0) + 1

    best: dict[str, dict[str, float]] = {}
    for entity, counts in documents:
        total = sum(counts.values())
        for gram, count in counts.items():
            tf = count / total
            idf = math.log((1 + n_docs) / (1 + df[gram])) + 1.0
            rows = best.setdefault(gram, {})
            if tf * idf > rows.get(entity, 0.0):
                rows[entity] = tf * idf

    return EntityIndex({gram: tuple(sorted(rows.items())) for gram, rows in best.items()}, n_docs)


def query_entity_index(idx: EntityIndex, phrase_tokens, k: int) -> CandidateSet:
    """Top-k entities for a phrase; score = sum over phrase n-grams of the
    entity's weight for that n-gram."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores: dict[str, float] = {}
    for gram in ngrams(list(phrase_tokens), MAX_NGRAM):
        for entity, weight in idx.postings.get(gram, ()):
            scores[entity] = scores.get(entity, 0.0) + weight
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return CandidateSet(tuple(ranked[:k]), k)


def build_reach_index(kb: KnowledgeBase) -> ReachIndex:
    """Group facts by subject, preserving input order (duplicates retained)."""
    edges: dict[str, list[tuple[str, str]]] = {}
    for fact in kb.facts:
        edges.setdefault(fact.subject, []).append((fact.relation, fact.object))
    return ReachIndex({s: tuple(rows) for s, rows in edges.items()})


def query_reach(idx: ReachIndex, candidates: CandidateSet, relation: str) -> list[AnswerCandidate]:
    """Facts of candidate entities matching the relation, carrying entity scores."""
    out = []
    for entity, score in candidates.candidates:
        for rel, obj in idx.edges.get(entity, ()):
            if rel == relation:
                out.append(AnswerCandidate(entity, rel, obj, score))
    return out


def save_indexes(entity_index: EntityIndex, reach_index: ReachIndex, path: str) -> None:
    """Write both indexes as one byte-reproducible `QAIDX 2` artifact."""
    grams = sorted(entity_index.postings)
    rows = [entity_index.postings[gram] for gram in grams]
    weights = [weight for row in rows for _, weight in row]
    lines = [f"aliases={entity_index.alias_count}", f"PARAM weight 1 {len(weights)}",
             f"POSTINGS {len(grams)}"]
    lines += ["\t".join([gram, *(entity for entity, _ in row)]) for gram, row in zip(grams, rows)]
    lines.append(f"EDGES {sum(len(edges) for edges in reach_index.edges.values())}")
    for subject in sorted(reach_index.edges):
        for relation, obj in reach_index.edges[subject]:
            lines.append(f"{subject}\t{relation}\t{obj}")
    write_artifact(path, "QAIDX 2 ", lines, [np.array(weights)])


def load_indexes(path: str) -> tuple[EntityIndex, ReachIndex]:
    """Inverse of save_indexes."""
    src = Artifact(path, "QAIDX 2 ")
    alias_count = src.counts([src.fields.get("aliases", "")])[0]
    kind, *fields = src.header()
    if kind != "PARAM" or len(fields) < 2 or fields[0] != "weight":
        raise src.error(f"expected 'PARAM weight' header, got {src.lines[src.pos - 1]!r}")
    param_line, shape = src.pos, src.shape(fields[1:])
    weights = src.arrays()[0].ravel().tolist()

    postings: dict[str, tuple[tuple[str, float], ...]] = {}
    at = 0
    for i, line in enumerate(src.take(src.count("POSTINGS"))):
        gram, *entities = fields = line.split("\t")
        if not entities or "" in fields or gram in postings:
            raise ParseError(path, src.start + i + 1, f"bad posting line {line!r}")
        postings[gram] = tuple(zip(entities, weights[at : at + len(entities)]))
        at += len(entities)
    if shape != (at,):
        raise ParseError(path, param_line, f"PARAM weight has shape {shape}, "
                         f"but the postings hold {at} entities")

    edges: dict[str, list[tuple[str, str]]] = {}
    for i, line in enumerate(src.take(src.count("EDGES"))):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(path, src.start + i + 1, f"bad edge line {line!r}")
        edges.setdefault(fields[0], []).append((fields[1], fields[2]))
    if not src.done():
        raise ParseError(path, src.pos + 1, f"unexpected line after EDGES: {src.lines[src.pos]!r}")

    reach_index = ReachIndex({s: tuple(rows) for s, rows in edges.items()})
    return EntityIndex(postings, alias_count), reach_index

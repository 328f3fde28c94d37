"""Retrieval structures: the TF-IDF n-gram entity index and the reachability index.

Each (entity, alias) pair is one document.  For an n-gram g in alias a:

    tf(g, a)  = count(g in a) / total n-grams of a   (sizes 1..3 pooled)
    idf(g)    = ln((1 + N) / (1 + df(g))) + 1
    weight    = tf * idf

Query scoring sums, over the phrase's n-grams, the maximum posting
weight per entity, so multi-gram overlap is rewarded while duplicated
aliases cannot inflate a single gram's contribution.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .artifact import Artifact
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
    """postings: n-gram -> ((entity, alias, weight), ...) sorted by (entity, alias)."""

    postings: dict[str, tuple[tuple[str, str, float], ...]]
    alias_count: int
    df: dict[str, int]


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
    """Index every (entity, alias) document by its 1..3-grams with TF-IDF weights."""
    documents = [
        (entity, alias)
        for entity in kb.aliases
        for alias in kb.aliases[entity]
    ]
    if not documents:
        raise IntegrityError("cannot build an entity index from a KB with no aliases")

    n_docs = len(documents)
    doc_counts = []
    df: dict[str, int] = {}
    for entity, alias in documents:
        counts = Counter(ngrams(alias.split(" "), MAX_NGRAM))
        doc_counts.append((entity, alias, counts))
        for gram in counts:
            df[gram] = df.get(gram, 0) + 1

    raw: dict[str, list[tuple[str, str, float]]] = {}
    for entity, alias, counts in doc_counts:
        total = sum(counts.values())
        for gram, count in counts.items():
            tf = count / total
            idf = math.log((1 + n_docs) / (1 + df[gram])) + 1.0
            raw.setdefault(gram, []).append((entity, alias, tf * idf))

    postings = {
        gram: tuple(sorted(rows, key=lambda r: (r[0], r[1])))
        for gram, rows in raw.items()
    }
    return EntityIndex(postings, n_docs, df)


def query_entity_index(idx: EntityIndex, phrase_tokens, k: int) -> CandidateSet:
    """Top-k entities for a phrase; score = sum over phrase n-grams of the
    entity's best posting weight for that n-gram."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tokens = list(phrase_tokens)
    if not tokens:
        return CandidateSet((), k)
    scores: dict[str, float] = {}
    for gram in ngrams(tokens, MAX_NGRAM):
        rows = idx.postings.get(gram)
        if not rows:
            continue
        best: dict[str, float] = {}
        for entity, _alias, weight in rows:
            prev = best.get(entity)
            if prev is None or weight > prev:
                best[entity] = weight
        for entity, weight in best.items():
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
    """Write both indexes as one versioned, byte-reproducible text file."""
    lines = ["QAIDX 1"]
    lines.append(f"ALIASES {entity_index.alias_count}")
    df_items = sorted(entity_index.df.items())
    lines.append(f"DF {len(df_items)}")
    for gram, df in df_items:
        lines.append(f"{gram}\t{df}")
    n_postings = sum(len(rows) for rows in entity_index.postings.values())
    lines.append(f"POSTINGS {n_postings}")
    for gram in sorted(entity_index.postings):
        for entity, alias, weight in entity_index.postings[gram]:
            lines.append(f"{gram}\t{entity}\t{alias}\t{weight!r}")
    n_edges = sum(len(rows) for rows in reach_index.edges.values())
    lines.append(f"EDGES {n_edges}")
    for subject in sorted(reach_index.edges):
        for relation, obj in reach_index.edges[subject]:
            lines.append(f"{subject}\t{relation}\t{obj}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_indexes(path: str) -> tuple[EntityIndex, ReachIndex]:
    """Inverse of save_indexes."""
    src = Artifact(path, "QAIDX 1\n")
    alias_count = src.count("ALIASES")

    df: dict[str, int] = {}
    try:
        for line in src.take(src.count("DF")):
            gram, value = line.split("\t")
            df[gram] = int(value)
    except ValueError:
        raise src.bad(line, f"bad DF line {line!r}") from None

    postings: dict[str, list[tuple[str, str, float]]] = {}
    try:
        for line in src.take(src.count("POSTINGS")):
            gram, entity, alias, weight = line.split("\t")
            postings.setdefault(gram, []).append((entity, alias, float(weight)))
    except ValueError:
        raise src.bad(line, f"bad posting line {line!r}") from None

    edges: dict[str, list[tuple[str, str]]] = {}
    try:
        for line in src.take(src.count("EDGES")):
            subject, relation, obj = line.split("\t")
            edges.setdefault(subject, []).append((relation, obj))
    except ValueError:
        raise src.bad(line, f"bad edge line {line!r}") from None
    if not src.done():
        raise ParseError(path, src.pos + 1, f"unexpected line after EDGES: {src.lines[src.pos]!r}")

    entity_index = EntityIndex(
        {g: tuple(rows) for g, rows in postings.items()}, alias_count, df
    )
    reach_index = ReachIndex({s: tuple(rows) for s, rows in edges.items()})
    return entity_index, reach_index

"""Retrieval structures: the TF-IDF n-gram entity index and the reachability index.

Each (entity, alias) pair is one document.  For an n-gram g in alias a:

    tf(g, a)  = count(g in a) / total n-grams of a   (sizes 1..3 pooled)
    idf(g)    = ln((1 + N) / (1 + df(g))) + 1
    weight    = tf * idf

An entity's weight for g is its best over its aliases, so the index
keeps one posting per (n-gram, entity).  Query scoring sums those
weights over the phrase's n-grams, so multi-gram overlap is rewarded
while duplicated aliases cannot inflate a single gram's contribution.

The build joins the documents, in rank order, into one flat token list
and keeps each token's document id (`np.repeat`).  The unigrams are the
tokens; a bigram or trigram starts wherever the tokens it spans share a
document, so every n-gram comes from one pass with no call per
document.  The rest is numpy: every occurrence becomes the id of its
n-gram in sorted order, `np.unique` over (n-gram, document) keys counts
each pair (so the order of the occurrences does not matter),
`np.bincount` gives df and each document's n-gram total, idf is
`math.log` once per distinct df, and `np.maximum.reduceat` keeps each
entity's best weight.  These are the IEEE operations a loop over dicts
performs, so the arrays, and the saved file, are bit-identical to that
loop's.  The reachability index is built from the KB's fact columns:
subjects become ranks and relations ids (`map` over a dict), and a
stable `argsort` by rank with `np.bincount` groups them.

Both indexes are flat sequences over one sorted list of entity names, so
an entity's rank is its place in name order.  The postings of grams[g]
are the entity ranks entities[offsets[g]:offsets[g + 1]], strictly
increasing, with their weights at the same places of weights, all numpy
arrays.  The facts of names[r] are the places offsets[r]:offsets[r + 1]
of the edge lists, in source fact order: a relation id into the sorted
relation names, and an object.  Queries pass entities as ranks:
query_entity_index gives a CandidateSet of ranks and scores, and
query_reach reads each rank's facts straight from offsets, so a name is
looked up only for a fact that comes out.  Both indexes are saved as one
`QAIDX 3` artifact:

    QAIDX 3 payload=N aliases=A
    NAMES E                       entity names, sorted
    POSTINGS G                    n-grams, sorted
    RELATIONS R                   relation names, sorted
    EDGES M                       fact objects, grouped by subject rank
    PARAM offsets 1 G+1           int32: where each n-gram's postings start
    PARAM entities 1 P            int32: entity ranks
    PARAM weights 1 P             float64: best weights
    PARAM edge_offsets 1 E+1      int32: where each entity's facts start
    PARAM relations 1 M           int32: relation ids

The payload holds the five arrays in that order.  `load_indexes` uses
them in place, and raises ParseError at the line that declares a defect:
rows unsorted or repeated, offsets that do not rise from 0 to the length
of what they index (an n-gram row may not be empty; an entity may have
no facts), ranks or relation ids out of range, ranks that do not rise
within a row, weights that are not finite and positive.  `QAIDX 1` and
`QAIDX 2` files are rejected at line 1.
"""

import math
import operator
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat

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

# the payload's arrays, in file order
_ARRAYS = (("offsets", "<i4"), ("entities", "<i4"), ("weights", "<f8"),
           ("edge_offsets", "<i4"), ("relations", "<i4"))


class _View(Mapping):
    """A read-only mapping whose values are built from arrays on lookup."""

    def __init__(self, keys, lookup):
        self._keys, self._lookup = keys, lookup

    def __getitem__(self, key):
        return self._lookup(key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _positions(keys: list[str]) -> dict[str, int]:
    return dict(zip(keys, range(len(keys))))


def _equal(a, b) -> bool:
    """Field-wise equality of two indexes, arrays by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


@dataclass(frozen=True, eq=False)
class EntityIndex:
    """The n-gram inverted index as arrays (see the module docstring)."""

    names: list[str]
    grams: list[str]
    offsets: np.ndarray
    entities: np.ndarray
    weights: np.ndarray
    alias_count: int

    __eq__ = _equal

    def row(self, gram: str) -> int | None:
        """The row of offsets that holds gram's postings, or None."""
        g = bisect_left(self.grams, gram)
        return g if g < len(self.grams) and self.grams[g] == gram else None

    @cached_property
    def postings(self) -> Mapping[str, tuple[tuple[str, float], ...]]:
        """n-gram -> ((entity, weight), ...) sorted by entity, read-only."""

        def lookup(gram):
            g = self.row(gram)
            if g is None:
                raise KeyError(gram)
            span = slice(*self.offsets[g : g + 2])
            return tuple(zip([self.names[r] for r in self.entities[span].tolist()],
                             self.weights[span].tolist()))

        return _View(self.grams, lookup)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Entity ranks scored against a phrase, in result order: descending
    score, ties by rank (an int array and a float64 array)."""

    ranks: np.ndarray
    scores: np.ndarray

    __eq__ = _equal


@dataclass(frozen=True, eq=False)
class ReachIndex:
    """Each entity's facts (see the module docstring).  A query reads a few
    edges per candidate, so offsets and relation ids are Python lists:
    indexing them is cheaper than a numpy call."""

    names: list[str]
    offsets: list[int]
    relation_names: list[str]
    relations: list[int]
    objects: list[str]

    __eq__ = _equal

    @cached_property
    def relation_id(self) -> dict[str, int]:
        """relation -> its id in relation_names."""
        return _positions(self.relation_names)


@dataclass(frozen=True)
class AnswerCandidate:
    entity: str
    relation: str
    object: str
    score: float


def build_entity_index(kb: KnowledgeBase) -> EntityIndex:
    """Index every (entity, alias) document by its 1..3-grams with TF-IDF
    weights, keeping each entity's best weight per n-gram."""
    names = kb.entities  # the ranks both indexes share
    per_entity = list(map(kb.aliases.get, names, repeat(())))
    docs = list(chain.from_iterable(per_entity))  # in rank order
    n_docs = len(docs)
    if not n_docs:
        raise IntegrityError("cannot build an entity index from a KB with no aliases")
    ranks = np.repeat(np.arange(len(names)), list(map(len, per_entity)))

    tokens = " ".join(docs).split(" ")
    token_doc = np.repeat(np.arange(n_docs), [doc.count(" ") + 1 for doc in docs])
    stream, stream_docs = list(tokens), [token_doc]  # every n-gram and its document
    for n in range(2, MAX_NGRAM + 1):
        # an n-gram starts at each token whose document holds the n - 1 after it
        at = np.flatnonzero(token_doc[n - 1 :] == token_doc[: len(tokens) - n + 1])
        stream += [" ".join(tokens[i : i + n]) for i in at.tolist()]
        stream_docs.append(token_doc[at])
    doc_of = np.concatenate(stream_docs)

    grams = sorted(set(stream))
    gram_of = np.fromiter(map(_positions(grams).__getitem__, stream), np.int64, len(stream))
    # one (n-gram, document) pair per distinct key, n-gram major
    pairs, counts = np.unique(gram_of * n_docs + doc_of, return_counts=True)
    gram, doc = np.divmod(pairs, n_docs)
    dfs, df_row = np.unique(np.bincount(gram, minlength=len(grams)), return_inverse=True)
    idf = np.array([math.log((1 + n_docs) / (1 + df)) + 1.0 for df in dfs.tolist()])
    weights = (counts / np.bincount(doc_of, minlength=n_docs)[doc]) * idf[df_row][gram]

    # documents come in rank order, so the pairs are sorted by (n-gram, rank)
    # and each run of equal pairs is one posting
    rank = ranks[doc]
    first = np.ones(len(pairs), bool)
    first[1:] = (gram[1:] != gram[:-1]) | (rank[1:] != rank[:-1])
    starts = np.flatnonzero(first)
    offsets = np.searchsorted(gram[starts], np.arange(len(grams) + 1)).astype(np.int32)
    return EntityIndex(names, grams, offsets, rank[starts].astype(np.int32),
                       np.maximum.reduceat(weights, starts), n_docs)


def query_entity_index(idx: EntityIndex, phrase_tokens, k: int) -> CandidateSet:
    """Top-k entity ranks for a phrase; score = sum over phrase n-grams of
    the entity's weight for that n-gram."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = np.array([r for r in map(idx.row, ngrams(list(phrase_tokens), MAX_NGRAM))
                     if r is not None], dtype=np.intp)
    if not len(rows):
        return CandidateSet(idx.entities[:0], idx.weights[:0])
    spans = [slice(*span) for span in zip(idx.offsets[rows].tolist(),
                                          idx.offsets[rows + 1].tolist())]
    if len(spans) == 1:
        ranks, scores = idx.entities[spans[0]], idx.weights[spans[0]]
    else:
        # a stable sort keeps each entity's postings in n-gram order, and
        # bincount adds them in that order, as a loop over the rows would
        ranks = np.concatenate([idx.entities[s] for s in spans])
        order = np.argsort(ranks, kind="stable")
        ranks = ranks[order]
        first = np.concatenate(([True], ranks[1:] != ranks[:-1]))
        scores = np.bincount(np.cumsum(first) - 1,
                             np.concatenate([idx.weights[s] for s in spans])[order])
        ranks = ranks[first]
    top = np.lexsort((ranks, -scores))[:k]
    return CandidateSet(ranks[top], scores[top])


def build_reach_index(kb: KnowledgeBase) -> ReachIndex:
    """Group facts by subject, preserving input order (duplicates retained)."""
    names = kb.entities
    relation_names = sorted(set(kb.relations))
    n = len(kb.subjects)
    subjects = np.fromiter(map(_positions(names).__getitem__, kb.subjects), np.int64, n)
    relations = np.fromiter(map(_positions(relation_names).__getitem__, kb.relations),
                            np.int64, n)
    # a stable sort keeps each subject's facts in source order
    order = np.argsort(subjects, kind="stable")
    counts = np.bincount(subjects, minlength=len(names))
    return ReachIndex(names, [0, *np.cumsum(counts).tolist()], relation_names,
                      relations[order].tolist(), list(map(kb.objects.__getitem__, order.tolist())))


def query_reach(idx: ReachIndex, candidates: CandidateSet, relation: str) -> list[AnswerCandidate]:
    """Facts of the candidate entities matching the relation, in candidate
    order, carrying entity scores; a candidate's name is looked up only for
    the facts it yields."""
    rel, offsets, relations = idx.relation_id.get(relation), idx.offsets, idx.relations
    out = []
    if rel is None:
        return out
    for r, score in zip(candidates.ranks.tolist(), candidates.scores.tolist()):
        for i in range(offsets[r], offsets[r + 1]):
            if relations[i] == rel:
                out.append(AnswerCandidate(idx.names[r], relation, idx.objects[i], score))
    return out


def save_indexes(entity_index: EntityIndex, reach_index: ReachIndex, path: str) -> None:
    """Write both indexes as one byte-reproducible `QAIDX 3` artifact."""
    if reach_index.names != entity_index.names:
        raise ValueError("the entity and reach indexes were built from different KBs")
    sections = (("NAMES", entity_index.names), ("POSTINGS", entity_index.grams),
                ("RELATIONS", reach_index.relation_names), ("EDGES", reach_index.objects))
    arrays = [entity_index.offsets, entity_index.entities, entity_index.weights,
              np.array(reach_index.offsets, np.int32), np.array(reach_index.relations, np.int32)]
    lines = [f"aliases={entity_index.alias_count}"]
    for name, rows in sections:
        lines += [f"{name} {len(rows)}", *rows]
    lines += [f"PARAM {name} 1 {len(a)}" for (name, _), a in zip(_ARRAYS, arrays)]
    write_artifact(path, "QAIDX 3 ", lines, arrays)


def _sorted_rows(src: Artifact, name: str) -> list[str]:
    """The rows of the next section, which must be sorted and unique."""
    rows = src.take(src.count(name))
    if not all(map(operator.lt, rows, rows[1:])):
        raise ParseError(src.path, src.start, f"{name} rows are not sorted and unique")
    return rows


def _runs_to(offsets: np.ndarray, end: int, step: int) -> bool:
    """True iff offsets start at 0, end at end and rise by >= step."""
    return offsets[0] == 0 and offsets[-1] == end and bool(np.all(np.diff(offsets) >= step))


def _within(values: np.ndarray, end: int) -> bool:
    return bool(np.all((values >= 0) & (values < end)))


def load_indexes(path: str) -> tuple[EntityIndex, ReachIndex]:
    """Inverse of save_indexes; the entity index's arrays are read-only
    views of the file's bytes."""
    src = Artifact(path, "QAIDX 3 ")
    alias_count = src.counts([src.fields.get("aliases", "")])[0]
    names = _sorted_rows(src, "NAMES")
    grams = _sorted_rows(src, "POSTINGS")
    relation_names = _sorted_rows(src, "RELATIONS")
    objects = src.take(src.count("EDGES"))
    line_of = {}
    for name, dtype in _ARRAYS:
        kind, *fields = src.header()
        if kind != "PARAM" or fields[:1] != [name]:
            raise src.error(f"expected 'PARAM {name}' header, got {src.lines[src.pos - 1]!r}")
        line_of[name] = src.pos
        if len(src.shape(fields[1:], dtype)) != 1:
            raise src.error(f"PARAM {name} must have one dimension")
    if not src.done():
        raise ParseError(path, src.pos + 1, f"unexpected line after the arrays: "
                         f"{src.lines[src.pos]!r}")
    offsets, entities, weights, edge_offsets, relations = src.arrays()

    def check(ok: bool, name: str, message: str) -> None:
        if not ok:
            raise ParseError(path, line_of[name], f"PARAM {name}: {message}")

    check(len(offsets) == len(grams) + 1, "offsets", f"expected {len(grams) + 1} values")
    check(_runs_to(offsets, len(entities), 1), "offsets",
          f"must rise from 0 to {len(entities)}, the entities' length")
    check(_within(entities, len(names)), "entities", f"ranks must be in [0, {len(names)})")
    rising = np.diff(entities) > 0
    rising[offsets[1:-1] - 1] = True  # where one row ends and the next starts
    check(bool(np.all(rising)), "entities", "ranks must rise within each n-gram's row")
    check(len(weights) == len(entities), "weights", f"expected {len(entities)} values")
    check(bool(np.all((weights > 0) & (weights < np.inf))), "weights",
          "must be finite and positive")
    check(len(edge_offsets) == len(names) + 1, "edge_offsets", f"expected {len(names) + 1} values")
    check(_runs_to(edge_offsets, len(objects), 0), "edge_offsets",
          f"must run from 0 to {len(objects)} without falling")
    check(len(relations) == len(objects), "relations", f"expected {len(objects)} values")
    check(_within(relations, len(relation_names)), "relations",
          f"ids must be in [0, {len(relation_names)})")
    return (EntityIndex(names, grams, offsets, entities, weights, alias_count),
            ReachIndex(names, edge_offsets.tolist(), relation_names, relations.tolist(), objects))

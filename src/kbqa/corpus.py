"""Data model and ingestion: facts, aliases, questions, embeddings, splits.

File formats (UTF-8, tab-separated, no headers):
  facts      subject<TAB>relation<TAB>object
  aliases    entity_id<TAB>alias_text          (repeats per entity allowed)
  questions  subject_id<TAB>relation<TAB>object<TAB>question_text
  embeddings token v1 v2 ... vd                (single spaces)

Gold entity tags are derived by longest-match alignment of a subject's
aliases against the tokenized question; ties break on earliest start,
then lexicographically smaller alias, so ingestion is deterministic.
"""

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifact import text_lines
from .errors import IntegrityError, ParseError, TaggingError
from .textproc import tokenize

__all__ = [
    "AnnotatedQuestion",
    "DatasetSplit",
    "EmbeddingTable",
    "Fact",
    "KnowledgeBase",
    "derive_gold_tags",
    "load_embeddings",
    "load_facts",
    "load_questions",
    "random_embedding_table",
    "split_dataset",
]


@dataclass(frozen=True)
class Fact:
    subject: str
    relation: str
    object: str


@dataclass(frozen=True)
class KnowledgeBase:
    """Facts plus normalized alias strings per entity.

    Aliases are stored as tuples in first-appearance order (duplicates
    removed) so every iteration over them is reproducible.
    """

    facts: tuple[Fact, ...]
    aliases: dict[str, tuple[str, ...]]

    @cached_property
    def entities(self) -> list[str]:
        """Every entity with an alias or a fact, in name order (a KB never changes)."""
        return sorted(set(self.aliases).union(fact.subject for fact in self.facts))


@dataclass(frozen=True)
class AnnotatedQuestion:
    text: str
    tokens: tuple[str, ...]
    gold_subject: str
    gold_relation: str
    gold_tags: tuple[int, ...]


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[AnnotatedQuestion, ...]
    valid: tuple[AnnotatedQuestion, ...]
    test: tuple[AnnotatedQuestion, ...]


class EmbeddingTable:
    """Token to vector mapping with a shared out-of-vocabulary vector."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray], unk_vector: np.ndarray):
        self.dimension = dimension
        self.vectors = vectors
        self.unk_vector = unk_vector

    def lookup(self, token: str) -> np.ndarray:
        return self.vectors.get(token, self.unk_vector)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def _read_fields(path: str, n_fields: int):
    """Yield (line_no, fields) for non-empty lines, enforcing field count."""
    for line_no, raw in text_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        if "" in fields:
            raise ParseError(path, line_no, "empty field")
        yield line_no, fields


def load_facts(facts_path: str, aliases_path: str) -> KnowledgeBase:
    """Load a knowledge base; every fact subject must have an alias."""
    facts = tuple(
        Fact(s, r, o) for _, (s, r, o) in _read_fields(facts_path, 3)
    )

    aliases: dict[str, tuple[str, ...]] = {}
    for line_no, (entity, alias_text) in _read_fields(aliases_path, 2):
        normalized = " ".join(tokenize(alias_text))
        if not normalized:
            raise ParseError(
                aliases_path, line_no, f"alias for {entity!r} is empty after normalization"
            )
        bucket = aliases.get(entity, ())
        if normalized not in bucket:
            aliases[entity] = (*bucket, normalized)

    if any(fact.subject not in aliases for fact in facts):
        # only this error path reads the file again, for the fact's line
        line_no, subject = next(
            (n, s) for n, (s, _, _) in _read_fields(facts_path, 3) if s not in aliases
        )
        raise IntegrityError(
            f"{facts_path}:{line_no}: fact subject {subject!r} has no alias in {aliases_path}"
        )
    return KnowledgeBase(facts, aliases)


def derive_gold_tags(tokens: list[str] | tuple[str, ...], aliases) -> list[int]:
    """Tag the longest token span matching any alias with 1s, the rest 0s.

    Ties on span length break by earliest start, then by the smaller
    alias string.  Raises TaggingError when no alias aligns.
    """
    if not tokens:
        raise TaggingError("cannot tag an empty token sequence")
    best = None  # (-length, start, alias)
    for alias in sorted(aliases):
        alias_tokens = alias.split()
        n = len(alias_tokens)
        if n == 0 or n > len(tokens):
            continue
        for start in range(len(tokens) - n + 1):
            if list(tokens[start : start + n]) == alias_tokens:
                key = (-n, start, alias)
                if best is None or key < best:
                    best = key
    if best is None:
        raise TaggingError(
            f"no alias in {sorted(aliases)!r} matches a span of {list(tokens)!r}"
        )
    length, start = -best[0], best[1]
    tags = [0] * len(tokens)
    for i in range(start, start + length):
        tags[i] = 1
    return tags


def load_questions(
    path: str, kb: KnowledgeBase, skip_unmatched: bool = False
) -> list[AnnotatedQuestion]:
    """Parse annotated questions and derive gold tags from KB aliases.

    Questions whose subject alias cannot be aligned raise TaggingError
    unless skip_unmatched is set, in which case they are dropped.
    """
    questions = []
    for line_no, (subject, relation, _object, text) in _read_fields(path, 4):
        tokens = tokenize(text)
        if not tokens:
            raise ParseError(path, line_no, "question text has no tokens")
        try:
            tags = derive_gold_tags(tokens, kb.aliases.get(subject, ()))
        except TaggingError:
            if skip_unmatched:
                continue
            raise TaggingError(
                f"{path}:{line_no}: no alias of {subject!r} matches {text!r}"
            ) from None
        questions.append(
            AnnotatedQuestion(text, tuple(tokens), subject, relation, tuple(tags))
        )
    return questions


def split_dataset(
    questions, ratios: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Deterministic shuffled split; valid/test sizes floor, remainder to train."""
    if any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    shuffled = list(questions)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_valid = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_valid - n_test
    return DatasetSplit(
        tuple(shuffled[:n_train]),
        tuple(shuffled[n_train : n_train + n_valid]),
        tuple(shuffled[n_train + n_valid :]),
    )


def load_embeddings(path: str, expected_dim: int, seed: int) -> EmbeddingTable:
    """Load "token v1 ... vd" rows; the OOV vector is seeded uniform(-0.05, 0.05)."""
    if expected_dim < 1:
        raise ValueError(f"expected_dim must be >= 1, got {expected_dim}")
    vectors: dict[str, np.ndarray] = {}
    for line_no, raw in text_lines(path):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        token, values = parts[0], parts[1:]
        if len(values) != expected_dim:
            raise ParseError(path, line_no, f"expected {expected_dim} values, got {len(values)}")
        if token in vectors:
            raise ParseError(path, line_no, f"duplicate token {token!r}")
        try:
            vectors[token] = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ParseError(path, line_no, "non-numeric embedding value") from None
    unk = np.random.default_rng(seed).uniform(-0.05, 0.05, size=expected_dim)
    return EmbeddingTable(expected_dim, vectors, unk)


def random_embedding_table(tokens, dimension: int, seed: int) -> EmbeddingTable:
    """Seeded uniform(-0.05, 0.05) table for runs without pretrained vectors."""
    rng = np.random.default_rng(seed)
    vectors: dict[str, np.ndarray] = {}
    for token in tokens:
        if token not in vectors:
            vectors[token] = rng.uniform(-0.05, 0.05, size=dimension)
    unk = rng.uniform(-0.05, 0.05, size=dimension)
    return EmbeddingTable(dimension, vectors, unk)

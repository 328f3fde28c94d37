"""Retrieval oracle built from the raw alias and fact files, without kbqa's index.

It applies the formula documented in kbqa/index.py to every (entity, alias)
document, where an alias is the lowercased, punctuation-trimmed token
sequence and repeats per entity count once:

    tf(g, a) = count(g in a) / total n-grams of a   (n = 1..3 pooled)
    idf(g)   = ln((1 + N) / (1 + df(g))) + 1
    score(e) = sum over the phrase's n-grams g of max over e's aliases of tf * idf

Candidates are the top k by (-score, entity id); the answer is the first
fact, in candidate then file order, with the predicted relation and the
highest score.  Only the n-grams of the phrases asked about are indexed.
"""

import math
from collections import Counter

MAX_N = 3


def _tokens(text: str) -> list[str]:
    out = []
    for piece in text.lower().split():
        start, end = 0, len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append(piece[start:end])
    return out


def _grams(tokens) -> list[str]:
    return [
        " ".join(tokens[i : i + n])
        for n in range(1, min(MAX_N, len(tokens)) + 1)
        for i in range(len(tokens) - n + 1)
    ]


class RetrievalOracle:
    def __init__(self, aliases_path: str, facts_path: str, phrases):
        wanted = {gram for phrase in phrases for gram in _grams(list(phrase))}
        seen = set()
        n_docs = 0
        df = Counter()
        hits = {}  # gram -> [(entity, tf)]
        with open(aliases_path, encoding="utf-8") as fh:
            for line in fh:
                entity, text = line.rstrip("\n").split("\t")
                alias = tuple(_tokens(text))
                if (entity, alias) in seen:
                    continue
                seen.add((entity, alias))
                n_docs += 1
                counts = Counter(_grams(list(alias)))
                total = sum(counts.values())
                for gram, count in counts.items():
                    df[gram] += 1
                    if gram in wanted:
                        hits.setdefault(gram, []).append((entity, count / total))
        self._weights = {
            gram: [(e, tf * (math.log((1 + n_docs) / (1 + df[gram])) + 1.0)) for e, tf in rows]
            for gram, rows in hits.items()
        }
        self._facts = {}
        with open(facts_path, encoding="utf-8") as fh:
            for line in fh:
                subject, relation, obj = line.rstrip("\n").split("\t")
                self._facts.setdefault(subject, []).append((relation, obj))

    def candidates(self, phrase, k: int) -> list[tuple[str, float]]:
        scores = {}
        for gram in _grams(list(phrase)):
            best = {}
            for entity, weight in self._weights.get(gram, ()):
                best[entity] = max(weight, best.get(entity, weight))
            for entity, weight in best.items():
                scores[entity] = scores.get(entity, 0.0) + weight
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def answer(self, phrase, relation: str, k: int):
        """(subject, relation, object, score) of the best fact, or None."""
        best = None
        for entity, score in self.candidates(phrase, k):
            for rel, obj in self._facts.get(entity, ()):
                if rel == relation and (best is None or score > best[3]):
                    best = (entity, rel, obj, score)
        return best

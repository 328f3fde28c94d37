"""Tokenization, n-grams, rule-based POS tagging, and noun-cluster filtering.

The noun-cluster filter keeps maximal NOUN/PROPN runs (extended leftward
over adjacent ADJ/DET tokens) and removes everything else, so that an
entity tagger only ever sees candidate subject words.  A deterministic
lexicon-plus-heuristics tagger stands in for a statistical POS model.
"""

from dataclasses import dataclass

from .artifact import text_lines
from .errors import ParseError

__all__ = [
    "COARSE_TAGS",
    "FilterResult",
    "load_pos_lexicon",
    "ngrams",
    "noun_chunk_filter",
    "pos_tag",
    "tokenize",
]

COARSE_TAGS = frozenset(
    {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "OTHER"}
)

# Closed-class word lists consulted when a token is absent from the lexicon.
_DETERMINERS = {
    "a", "an", "the", "this", "that", "these", "those",
    "each", "every", "some", "any", "no", "both", "all", "another",
}
_WH_ADVERBS = {"where", "when", "why", "how"}
_PRONOUNS = {
    "who", "whom", "whose", "what", "which",
    "i", "you", "he", "she", "it", "we", "they",
    "me", "him", "her", "us", "them",
    "my", "your", "his", "its", "our", "their",
    "mine", "yours", "hers", "ours", "theirs",
}
_AUXILIARIES = {
    "is", "are", "was", "were", "be", "been", "being", "am",
    "do", "does", "did", "done",
    "have", "has", "had",
    "can", "could", "will", "would", "shall", "should", "may", "might", "must",
}
_PREPOSITIONS = {
    "of", "in", "on", "at", "by", "for", "with", "from", "to", "into",
    "over", "under", "about", "between", "through", "during", "before",
    "after", "above", "below", "up", "down", "off", "out", "near", "as",
}
_CONJUNCTIONS = {"and", "or", "but", "if", "because", "than", "so", "not"}

_CLOSED_CLASS = {}
for _w in _DETERMINERS:
    _CLOSED_CLASS[_w] = "DET"
for _w in _WH_ADVERBS:
    _CLOSED_CLASS[_w] = "ADV"
for _w in _PRONOUNS:
    _CLOSED_CLASS[_w] = "PRON"
for _w in _AUXILIARIES:
    _CLOSED_CLASS[_w] = "VERB"
for _w in _PREPOSITIONS:
    _CLOSED_CLASS[_w] = "ADP"
for _w in _CONJUNCTIONS:
    _CLOSED_CLASS[_w] = "OTHER"


@dataclass(frozen=True)
class FilterResult:
    """Outcome of noun_chunk_filter.

    index_map[i] is the position of kept_tokens[i] in the original token
    sequence.  degraded is set when nothing survived the filter and the
    whole question was passed through unchanged.
    """

    kept_tokens: tuple[str, ...]
    index_map: tuple[int, ...]
    degraded: bool = False


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation.

    Pieces that are pure punctuation are dropped; internal apostrophes
    and hyphens survive ("o'brien", "spider-man").
    """
    tokens = []
    for piece in text.lower().split():
        if piece.isalnum():
            tokens.append(piece)
            continue
        start = 0
        end = len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if end > start:
            tokens.append(piece[start:end])
    return tokens


def ngrams(tokens: list[str], max_n: int) -> list[str]:
    """All contiguous n-grams for n = 1..min(max_n, len), ordered by (n, start)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    out = []
    for n in range(1, min(max_n, len(tokens)) + 1):
        for start in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[start : start + n]))
    return out


def pos_tag(tokens: list[str], lexicon: dict[str, str] | None = None) -> list[str]:
    """Coarse POS tags via lexicon lookup plus ordered fallback heuristics.

    Fallback order: closed-class lists, "ly" -> ADV, "ing"/"ed" -> VERB,
    anything else (numbers too) -> NOUN.
    """
    lexicon = lexicon or {}
    tags = []
    for token in tokens:
        if token in lexicon:
            tags.append(lexicon[token])
        elif token in _CLOSED_CLASS:
            tags.append(_CLOSED_CLASS[token])
        elif token.endswith("ly"):
            tags.append("ADV")
        elif token.endswith("ing") or token.endswith("ed"):
            tags.append("VERB")
        else:
            tags.append("NOUN")
    return tags


def noun_chunk_filter(tokens: list[str], tags: list[str]) -> FilterResult:
    """Keep noun clusters: NOUN/PROPN runs plus immediately preceding ADJ/DET.

    If the filter would remove everything, the original tokens are kept
    and the result is flagged degraded so downstream consumers always
    have input.
    """
    if len(tokens) != len(tags):
        raise ValueError(
            f"tokens and tags must align, got {len(tokens)} vs {len(tags)}"
        )
    keep = [False] * len(tokens)
    i = 0
    while i < len(tokens):
        if tags[i] in ("NOUN", "PROPN"):
            run_start = i
            while i < len(tokens) and tags[i] in ("NOUN", "PROPN"):
                keep[i] = True
                i += 1
            j = run_start - 1
            while j >= 0 and tags[j] in ("ADJ", "DET"):
                keep[j] = True
                j -= 1
        else:
            i += 1
    kept = [(tok, idx) for idx, (tok, flag) in enumerate(zip(tokens, keep)) if flag]
    if not kept:
        return FilterResult(tuple(tokens), tuple(range(len(tokens))), degraded=True)
    return FilterResult(
        tuple(t for t, _ in kept), tuple(i for _, i in kept), degraded=False
    )


def load_pos_lexicon(path: str) -> dict[str, str]:
    """Read a token<TAB>TAG lexicon file; keys are lowercased."""
    lexicon: dict[str, str] = {}
    for line_no, raw in text_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(parts)}")
        token, tag = parts
        if tag not in COARSE_TAGS:
            raise ParseError(path, line_no, f"unknown tag {tag!r}")
        lexicon[token.lower()] = tag
    return lexicon

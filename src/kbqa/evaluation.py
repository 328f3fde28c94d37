"""Correctness metric, accuracy reporting, hyper-parameter tuning, benchmarks.

A question counts as correctly answered iff the top candidate entity
retrieved for the predicted phrase equals the gold subject AND the
predicted relation equals the gold relation.  Entity detection accuracy
is reported at both question level (exact tag-sequence match) and token
level, since either granularity is defensible for a single headline
number.
"""

import math
import time
from dataclasses import dataclass

from .index import DEFAULT_CANDIDATE_CAP, EntityIndex, query_entity_index
from .models import NEURAL_KINDS, build_model, predict_relation_batch, predict_tags_batch, train
from .models import relation_accuracy, tag_accuracy
from .neural.config import TrainConfig
from .pipeline import StructuredQuery
from .seeding import rng_for

__all__ = [
    "AccuracyReport",
    "BenchmarkReport",
    "ReportRow",
    "basin_hop_tune",
    "benchmark_training",
    "evaluate",
    "question_correct",
]


@dataclass(frozen=True)
class ReportRow:
    name: str
    ed_question_accuracy: float | None = None
    ed_token_accuracy: float | None = None
    rp_accuracy: float | None = None
    end_to_end_accuracy: float | None = None


@dataclass(frozen=True)
class AccuracyReport:
    rows: tuple[ReportRow, ...]

    _COLUMNS = (
        ("ed_question_accuracy", "ED(question)"),
        ("ed_token_accuracy", "ED(token)"),
        ("rp_accuracy", "RP"),
        ("end_to_end_accuracy", "End-to-end"),
    )

    @staticmethod
    def _cell(value: float | None) -> str:
        return "N/A" if value is None else f"{value:.4f}"

    def to_text(self) -> str:
        headers = ["Classifier"] + [label for _, label in self._COLUMNS]
        table = [headers]
        for row in self.rows:
            table.append(
                [row.name] + [self._cell(getattr(row, attr)) for attr, _ in self._COLUMNS]
            )
        widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
        lines = []
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = ["\t".join(["classifier"] + [attr for attr, _ in self._COLUMNS])]
        for row in self.rows:
            lines.append(
                "\t".join([row.name] + [self._cell(getattr(row, attr)) for attr, _ in self._COLUMNS])
            )
        return "\n".join(lines) + "\n"


def question_correct(
    query: StructuredQuery, gold, entity_index: EntityIndex, k: int = DEFAULT_CANDIDATE_CAP
) -> bool:
    """True iff the phrase's top retrieved entity and the predicted relation
    both match the gold annotation."""
    if query.relation != gold.gold_relation:
        return False
    ranks = query_entity_index(entity_index, list(query.entity_phrase), k).ranks
    return len(ranks) > 0 and entity_index.names[ranks[0]] == gold.gold_subject


def _predict_once(predict, models, dataset, lexicon) -> dict[int, list]:
    """predict(model, token_seqs, lexicon) over the whole dataset, once per
    distinct model object, keyed by id(model)."""
    token_seqs = [q.tokens for q in dataset]
    out: dict[int, list] = {}
    for model in models:
        if id(model) not in out:
            out[id(model)] = predict(model, token_seqs, lexicon)
    return out


def evaluate(
    dataset,
    entity_index: EntityIndex | None = None,
    entity_models: dict | None = None,
    relation_models: dict | None = None,
    pipelines: dict | None = None,
    lexicon=None,
    k: int = DEFAULT_CANDIDATE_CAP,
) -> AccuracyReport:
    """Accuracy rows for every given model; pipelines are (entity, relation)
    model pairs scored end to end against the entity index.

    Each distinct model object reads each question once, in length-sorted
    batches (see models.predict_tags_batch); every row that names it reads
    those predictions."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    entity_models = entity_models or {}
    relation_models = relation_models or {}
    pipelines = pipelines or {}
    if pipelines and entity_index is None:
        raise ValueError("end-to-end evaluation needs the entity index")

    entity_side = [*entity_models.values(), *(em for em, _ in pipelines.values())]
    relation_side = [*relation_models.values(), *(rm for _, rm in pipelines.values())]
    tags = _predict_once(predict_tags_batch, entity_side, dataset, lexicon)
    relations = _predict_once(predict_relation_batch, relation_side, dataset, lexicon)

    rows = []
    for name, model in entity_models.items():
        preds = tags[id(model)]
        tok_correct = sum(
            int(p == g)
            for pred, q in zip(preds, dataset)
            for p, g in zip(pred.mapped_tags, q.gold_tags)
        )
        tok_total = sum(len(q.gold_tags) for q in dataset)
        rows.append(
            ReportRow(
                name,
                ed_question_accuracy=tag_accuracy(preds, dataset),
                ed_token_accuracy=tok_correct / tok_total,
            )
        )
    for name, model in relation_models.items():
        labels = [label for label, _ in relations[id(model)]]
        rows.append(ReportRow(name, rp_accuracy=relation_accuracy(labels, dataset)))
    for name, (entity_model, relation_model) in pipelines.items():
        correct = 0
        predictions = zip(dataset, tags[id(entity_model)], relations[id(relation_model)])
        for q, pred, (label, _) in predictions:
            query = StructuredQuery.of(pred, label, q.tokens)
            correct += int(question_correct(query, q, entity_index, k))
        rows.append(ReportRow(name, end_to_end_accuracy=correct / len(dataset)))
    return AccuracyReport(tuple(rows))


def basin_hop_tune(
    space: dict[str, list], objective, budget: int, seed: int
) -> tuple[dict, list[tuple[dict, float]]]:
    """Maximize objective over a finite grid: hill-climb from index n // 2 of
    each dimension, moving to the first neighbor that scores higher
    (dimensions in order, the lower value first), with a seeded random hop
    at each local optimum.  budget bounds the number of distinct points
    scored; a revisit costs nothing.  Ties go to the point scored first.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not space or any(not values for values in space.values()):
        raise ValueError("tuning space must have non-empty dimensions")
    dims = list(space)
    sizes = [len(space[d]) for d in dims]

    def config_of(idx):
        return {d: space[d][i] for d, i in zip(dims, idx)}

    # each point's score, in call order: the cache, the trace, and the best
    # point as the first maximum
    scores: dict[tuple, float] = {}

    def score_of(idx):
        if idx not in scores:
            scores[idx] = float(objective(config_of(idx)))
        return scores[idx]

    start = tuple(s // 2 for s in sizes)
    limit = min(budget, math.prod(sizes))
    rng = rng_for(seed, "tune")
    current = start
    while len(scores) < limit:
        here = score_of(current)
        neighbors = [current[:d] + (j,) + current[d + 1 :] for d in range(len(dims))
                     for j in (current[d] - 1, current[d] + 1) if 0 <= j < sizes[d]]
        # the first neighbor that scores higher, else a hop to a seeded random point
        better = (n for n in neighbors if len(scores) < limit and score_of(n) > here)
        current = next(better, None) or tuple(int(rng.integers(0, s)) for s in sizes)
    best = max(scores, key=scores.get, default=start)
    return config_of(best), [(config_of(idx), value) for idx, value in scores.items()]


@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    trainable_params: int
    seconds_per_epoch: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]
    conv_vs_bigru2_time_ratio: float | None

    def to_text(self) -> str:
        lines = [f"{'Model':14s} {'params':>12s} {'s/epoch':>10s}"]
        for row in self.rows:
            lines.append(
                f"{row.name:14s} {row.trainable_params:12d} {row.seconds_per_epoch:10.4f}"
            )
        if self.conv_vs_bigru2_time_ratio is not None:
            lines.append(
                f"CONV_GRU vs BIGRU2 epoch-time ratio: "
                f"{self.conv_vs_bigru2_time_ratio:.3f} "
                "(reference: about 40% reduction)"
            )
        return "\n".join(lines) + "\n"


def benchmark_training(
    descriptors,
    train_set,
    config: TrainConfig,
    embeddings,
    label_space,
    optimizer_factory,
    lexicon=None,
) -> BenchmarkReport:
    """Wall-clock per epoch and trainable parameter counts per neural descriptor."""
    descriptors = list(descriptors)
    if len(descriptors) < 2:
        raise ValueError("benchmark needs at least 2 descriptors")
    for desc in descriptors:
        if desc.kind not in NEURAL_KINDS:
            raise ValueError(f"benchmark times neural kinds only, not {desc.kind}")
    rows = []
    timing: dict[str, float] = {}
    for desc in descriptors:
        vocab = [tok for q in train_set for tok in q.tokens]
        model = build_model(
            desc,
            embeddings,
            label_space if desc.task == "RELATION" else None,
            vocab_tokens=vocab,
            max_len=config.max_len,
            seed=config.seed,
        )
        started = time.perf_counter()
        train(model, train_set, config, optimizer_factory(), lexicon=lexicon)
        elapsed = time.perf_counter() - started
        per_epoch = elapsed / max(1, config.epochs)
        timing[desc.kind] = per_epoch
        rows.append(BenchmarkRow(desc.kind, model.trainable_param_count(), per_epoch))
    ratio = None
    if "CONV_GRU" in timing and "BIGRU2" in timing and timing["BIGRU2"] > 0:
        ratio = timing["CONV_GRU"] / timing["BIGRU2"]
    return BenchmarkReport(tuple(rows), ratio)

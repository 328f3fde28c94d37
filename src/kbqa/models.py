"""Concrete classifiers for entity detection and relation prediction.

Neural kinds are assembled from kbqa.neural layers:

  BILSTM2     two bidirectional LSTM layers (entity-detection baseline)
  BIGRU2      two bidirectional GRU layers (relation-prediction baseline)
  NT_BILSTM1  one bidirectional LSTM layer, usually fed noun-filtered input
  CONV_GRU    conv(filters, width) -> dropout -> one bidirectional GRU

A neural kind serves either task.  Each non-neural kind serves one:
NB_MULTINOMIAL (bag-of-words Naive Bayes) and MAJORITY (most common
training relation) the relation task, NAIVE_ALL_ENTITY (tags every token
as entity) the entity task.

Every kind predicts through predict_probs(token_seqs), tag probabilities
per token [B, T, 2] or label probabilities per question [B, classes],
and lists the arrays its file stores through all_params().  A neural
model's dense head reads every token of a tagger but one position of a
classifier, the final states, and both tasks share one objective.  An
all-zero tag prediction falls back to all-ones so the pipeline always
has an entity phrase.

predict_tags_batch and predict_relation_batch run a model on
length-sorted questions, PREDICT_BATCH per predict_probs call; carry
masking keeps right padding out of every real position.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable
from .neural.config import TrainConfig
from .neural.layers import (
    BidirectionalLayer,
    Conv1dLayer,
    DenseLayer,
    DropoutLayer,
    EmbeddingLayer,
    RecurrentDirection,
    carve,
    cross_entropy,
    layout_size,
    softmax,
)
from .neural.optim import Optimizer
from .seeding import rng_for
from .textproc import FilterResult, noun_chunk_filter, pos_tag

__all__ = [
    "ArchitectureDescriptor",
    "EpochStats",
    "MajorityModel",
    "MultinomialNBModel",
    "NaiveAllEntityModel",
    "NeuralSequenceModel",
    "RelationLabelSpace",
    "TagPrediction",
    "build_model",
    "default_descriptor",
    "entity_phrase",
    "param_layout",
    "predict_relation",
    "predict_relation_batch",
    "predict_tags",
    "predict_tags_batch",
    "relation_accuracy",
    "tag_accuracy",
    "train",
]

NEURAL_KINDS = ("BILSTM2", "NT_BILSTM1", "BIGRU2", "CONV_GRU")
_BASELINE_TASK = {"NB_MULTINOMIAL": "RELATION", "MAJORITY": "RELATION",
                  "NAIVE_ALL_ENTITY": "ENTITY"}  # the one task each baseline serves
BASELINE_KINDS = tuple(_BASELINE_TASK)
TASKS = ("ENTITY", "RELATION")
UNK_ID = 1
PREDICT_BATCH = 50  # questions per predict_probs call in the batched path

# (hidden sizes, dropout rates) per neural kind; BIGRU2/BILSTM2 first-layer
# sizes follow the tuned first-to-second ratios 3.5 and 3.1 over a
# 400-neuron second layer.
_NEURAL_DEFAULTS = {
    "BILSTM2": ((1240, 400), (0.1, 0.1)),
    "BIGRU2": ((1400, 400), (0.1, 0.1)),
    "NT_BILSTM1": ((400,), (0.1,)),
    "CONV_GRU": ((400,), (0.2, 0.1)),
}


@dataclass(frozen=True)
class ArchitectureDescriptor:
    task: str  # ENTITY or RELATION
    kind: str
    hidden_sizes: tuple[int, ...] = ()
    dropout_rates: tuple[float, ...] = ()
    conv_filters: int = 0
    conv_width: int = 0
    noun_filter: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.kind not in NEURAL_KINDS + BASELINE_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if _BASELINE_TASK.get(self.kind, self.task) != self.task:
            raise ValueError(f"{self.kind} serves the {_BASELINE_TASK[self.kind]} task, "
                             f"not {self.task}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if self.kind == "CONV_GRU" and (self.conv_filters < 1 or self.conv_width < 1):
            raise ValueError("CONV_GRU needs conv_filters and conv_width >= 1")


def default_descriptor(
    task: str,
    kind: str,
    desk_scale: int = 1,
    noun_filter: bool | None = None,
    hidden_sizes: tuple[int, ...] | None = None,
    dropout_rates: tuple[float, ...] | None = None,
) -> ArchitectureDescriptor:
    """Descriptor with per-kind defaults; desk_scale divides hidden sizes
    (preserving their ratios) so full architectures shrink to test scale.
    CONV_GRU gets 50 filters of width 2."""
    if desk_scale < 1:
        raise ValueError(f"desk_scale must be >= 1, got {desk_scale}")
    if kind in BASELINE_KINDS:
        return ArchitectureDescriptor(task, kind, noun_filter=bool(noun_filter))
    if kind not in _NEURAL_DEFAULTS:
        raise ValueError(f"unknown model kind {kind!r}")
    hidden, dropout = _NEURAL_DEFAULTS[kind]
    if hidden_sizes is not None:
        hidden = tuple(hidden_sizes)
    if desk_scale != 1:
        hidden = tuple(max(1, round(h / desk_scale)) for h in hidden)
    if dropout_rates is not None:
        dropout = tuple(dropout_rates)
    if noun_filter is None:
        noun_filter = kind == "NT_BILSTM1"
    conv = (50, 2) if kind == "CONV_GRU" else (0, 0)
    return ArchitectureDescriptor(task, kind, hidden, dropout, *conv, bool(noun_filter))


@dataclass(frozen=True)
class RelationLabelSpace:
    """Relation labels in first-occurrence training order."""

    labels: tuple[str, ...]

    @classmethod
    def from_questions(cls, questions) -> "RelationLabelSpace":
        seen: dict[str, None] = {}
        for q in questions:
            seen.setdefault(q.gold_relation, None)
        if not seen:
            raise ValueError("cannot build a label space from no questions")
        return cls(tuple(seen))

    def index(self, label: str) -> int | None:
        try:
            return self.labels.index(label)
        except ValueError:
            return None

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TagPrediction:
    """mapped_tags align to the question's tokens, with zeros at the
    positions the noun filter dropped."""

    mapped_tags: tuple[int, ...]
    degraded: bool


def param_layout(
    descriptor: ArchitectureDescriptor, n_vocab: int, dim: int, n_labels: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every array a neural model stores, in the order of
    its parameter vector and its file.  embedding.E, with a pad and an OOV
    row before the n_vocab tokens' rows, comes first."""
    parts = [("embedding", [("E", (n_vocab + 2, dim))])]
    feed = dim
    if descriptor.kind == "CONV_GRU":
        parts.append(("conv", Conv1dLayer.shapes(descriptor.conv_filters, descriptor.conv_width,
                                                 feed)))
        feed = descriptor.conv_filters
    cell = "lstm" if descriptor.kind in ("BILSTM2", "NT_BILSTM1") else "gru"
    for i, hidden in enumerate(descriptor.hidden_sizes):
        direction = RecurrentDirection.shapes(cell, feed, hidden)
        parts += [(f"rec{i}.fwd", direction), (f"rec{i}.bwd", direction)]
        feed = 2 * hidden
    n_classes = 2 if descriptor.task == "ENTITY" else n_labels
    parts.append(("dense", DenseLayer.shapes(feed, n_classes)))
    return [(f"{prefix}.{name}", shape) for prefix, arrays in parts for name, shape in arrays]


def _layer_blocks(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """vector cut into one run per layer: the arrays of layout whose names
    share their first component ("conv", "rec0", ...)."""
    sizes: dict[str, int] = {}
    for name, shape in layout:
        layer = name.partition(".")[0]
        sizes[layer] = sizes.get(layer, 0) + math.prod(shape)
    return carve(vector, [(layer, (size,)) for layer, size in sizes.items()])


class NeuralSequenceModel:
    """A trainable tagger or classifier built from the minimal layer stack.

    Its parameters are one float64 vector, theta, laid out as `layout`;
    every layer's arrays are views of it."""

    def __init__(self, descriptor: ArchitectureDescriptor, vocab: dict[str, int],
                 label_space: RelationLabelSpace | None, max_len: int, seed: int,
                 theta: np.ndarray, dim: int, freeze_embeddings: bool = True):
        if descriptor.kind not in NEURAL_KINDS:
            raise ValueError(f"{descriptor.kind} is not a neural kind")
        if descriptor.task == "RELATION" and label_space is None:
            raise ValueError("relation models need a label space")
        self.descriptor = descriptor
        self.vocab = vocab
        self.label_space = label_space
        self.max_len = max_len
        self.seed = seed
        self.l1_activity = 0.0
        self._dropout_rng = None  # the seed's "dropout" stream, from the first training pass
        self.grad = None  # from the last loss_and_grads
        self.layout = param_layout(descriptor, len(vocab), dim, len(label_space or ()))
        if theta.shape != (layout_size(self.layout),):
            raise ValueError(f"theta must hold the layout's {layout_size(self.layout)} values")
        self.theta = theta

        runs = _layer_blocks(theta, self.layout)
        self.embedding = EmbeddingLayer(runs["embedding"].reshape(-1, dim), not freeze_embeddings)
        self.conv = None
        feeds = [dim]
        if descriptor.kind == "CONV_GRU":
            self.conv = Conv1dLayer(descriptor.conv_filters, descriptor.conv_width, dim,
                                    block=runs["conv"])
            feeds = [descriptor.conv_filters]
        feeds += [2 * hidden for hidden in descriptor.hidden_sizes]
        cell = "lstm" if descriptor.kind in ("BILSTM2", "NT_BILSTM1") else "gru"
        self.recurrents = [BidirectionalLayer(cell, feed, hidden, block=runs[f"rec{i}"])
                           for i, (feed, hidden) in enumerate(zip(feeds, descriptor.hidden_sizes))]
        n_classes = 2 if descriptor.task == "ENTITY" else len(label_space)
        self.dense = DenseLayer(feeds[-1], n_classes, block=runs["dense"])
        # the layers by the first component of their names in the layout
        self._layers = dict(zip(runs, filter(None, (self.embedding, self.conv,
                                                    *self.recurrents, self.dense))))
        # one dropout after the conv layer and after each recurrent layer
        n_drops = len(self.recurrents) + (self.conv is not None)
        rates = list(descriptor.dropout_rates) + [0.0] * n_drops
        self.drops = [DropoutLayer(rate) for rate in rates[:n_drops]]

    @classmethod
    def fresh(cls, descriptor: ArchitectureDescriptor, vocab: dict[str, int],
              embedding_matrix: np.ndarray, label_space: RelationLabelSpace | None,
              max_len: int, seed: int, freeze_embeddings: bool = True,
              init_scale: float = 0.08) -> "NeuralSequenceModel":
        """A model whose embedding is a copy of embedding_matrix, which has
        len(vocab) + 2 rows, and whose other parameters are one uniform draw
        in [-init_scale, init_scale) from the seed's "init" stream."""
        dim = embedding_matrix.shape[1]
        size = layout_size(param_layout(descriptor, len(vocab), dim, len(label_space or ())))
        rest = rng_for(seed, "init").uniform(-init_scale, init_scale, size - embedding_matrix.size)
        theta = np.concatenate([embedding_matrix.reshape(-1), rest])
        return cls(descriptor, vocab, label_space, max_len, seed, theta, dim, freeze_embeddings)

    # -- parameter plumbing ------------------------------------------------

    def _trainable(self) -> tuple[np.ndarray, list]:
        """theta's trainable suffix and its layout: all of theta but
        embedding.E while that is frozen."""
        layout = self.layout[0 if self.embedding.trainable else 1 :]
        return self.theta[self.theta.size - layout_size(layout) :], layout

    def trainable_params(self) -> dict[str, np.ndarray]:
        """Views of theta's trainable suffix by name."""
        return carve(*self._trainable())

    def trainable_param_count(self) -> int:
        return self._trainable()[0].size

    def all_params(self) -> dict[str, np.ndarray]:
        return carve(self.theta, self.layout)

    # -- encoding ----------------------------------------------------------

    def encode(self, token_seqs) -> tuple[np.ndarray, np.ndarray]:
        """Pad/truncate token sequences to ids and mask arrays."""
        clipped = [seq[: self.max_len] for seq in token_seqs]
        t_len = max(1, max((len(s) for s in clipped), default=1))
        ids = np.zeros((len(clipped), t_len), dtype=np.int64)
        mask = np.zeros((len(clipped), t_len))
        for b, seq in enumerate(clipped):
            for t, token in enumerate(seq):
                ids[b, t] = self.vocab.get(token, UNK_ID)
                mask[b, t] = 1.0
        return ids, mask

    # -- forward/backward --------------------------------------------------

    def _forward(self, ids, mask, training):
        """The recurrent outputs, the head's logits [B, P, C] and its mask
        [B, P]: a tagger's head reads every token, a classifier's one position."""
        if training and self._dropout_rng is None:
            self._dropout_rng = rng_for(self.seed, "dropout")
        rng = self._dropout_rng
        *drops, last_drop = self.drops
        x = self.embedding.forward(ids)
        if self.conv is not None:
            x = drops.pop(0).forward(self.conv.forward(x), training, rng)
        seq_outs = [self.recurrents[0].forward(x, mask)]
        for layer, drop in zip(self.recurrents[1:], drops):
            seq_outs.append(layer.forward(drop.forward(seq_outs[-1], training, rng), mask))
        head_in, head_mask = seq_outs[-1], mask
        if self.descriptor.task == "RELATION":
            hidden = self.recurrents[-1].hidden_dim
            head_in = BidirectionalLayer.final_state(head_in, hidden)[:, None]
            head_mask = np.ones((ids.shape[0], 1))
        logits = self.dense.forward(last_drop.forward(head_in, training, rng))
        return seq_outs, logits, head_mask

    def _objective(self, seq_outs, mask, logits, head_mask, targets) -> tuple[float, int]:
        """Mean cross-entropy over the head's positions plus the L1 activity
        penalty, and the number of penalised activations (the penalty
        gradient's denominator).  A classifier's head reads one position,
        so its targets may be [B] as well as [B, 1].

        The penalised activations are the recurrent outputs under the token
        mask and the logits under the head mask."""
        nll = cross_entropy(logits, np.reshape(targets, head_mask.shape))
        value = (nll * head_mask).sum() / head_mask.sum()
        if not self.l1_activity:
            return float(value), 0
        masked = [(out, mask) for out in seq_outs] + [(logits, head_mask)]
        total = sum(float((np.abs(out) * m[:, :, None]).sum()) for out, m in masked)
        count = sum(int(m.sum()) * out.shape[-1] for out, m in masked)
        return float(value + self.l1_activity * total / count), count

    def loss_and_grads(self, batch, training: bool = False):
        """Mean cross-entropy plus L1 activity penalty, and its exact gradient
        by name: views of self.grad, made anew for theta's trainable suffix."""
        ids, mask, targets = batch
        theta, layout = self._trainable()
        self.grad = np.zeros(theta.size)
        for name, block in _layer_blocks(self.grad, layout).items():
            self._layers[name].use_grads(block)
        seq_outs, logits, head_mask = self._forward(ids, mask, training)
        targets = np.reshape(targets, head_mask.shape)
        total, act_count = self._objective(seq_outs, mask, logits, head_mask, targets)
        l1 = self.l1_activity

        d_logits = softmax(logits) - (targets[:, :, None] == np.arange(logits.shape[-1]))
        d_logits *= head_mask[:, :, None] / head_mask.sum()
        if l1:
            d_logits += l1 * np.sign(logits) * head_mask[:, :, None] / act_count

        d = self.drops[-1].backward(self.dense.backward(d_logits))
        if self.descriptor.task == "RELATION":
            d = BidirectionalLayer.inject_final_grad(
                d[:, 0], seq_outs[-1].shape, self.recurrents[-1].hidden_dim
            )
        conv_sites = 1 if self.conv is not None else 0
        for li in range(len(self.recurrents) - 1, -1, -1):
            if l1:
                d = d + l1 * np.sign(seq_outs[li]) * mask[:, :, None] / act_count
            d = self.recurrents[li].backward(d)
            if li > 0:
                d = self.drops[conv_sites + li - 1].backward(d)
        if self.conv is not None:
            d = self.conv.backward(self.drops[0].backward(d))
        self.embedding.backward(d)

        return total, carve(self.grad, layout)

    def loss(self, batch) -> float:
        ids, mask, targets = batch
        seq_outs, logits, head_mask = self._forward(ids, mask, training=False)
        return self._objective(seq_outs, mask, logits, head_mask, targets)[0]

    # -- prediction ---------------------------------------------------------

    def predict_probs(self, token_seqs) -> np.ndarray:
        """Softmax outputs for a batch: [B, T, 2] for a tagger, [B, classes]
        for a classifier.  The layers keep none of the batch's activations
        afterwards, so a model does not hold its last prediction batch."""
        ids, mask = self.encode(token_seqs)
        _, logits, _ = self._forward(ids, mask, training=False)
        for layer in self._layers.values():
            layer.forget()
        probs = softmax(logits)
        return probs[:, 0] if self.descriptor.task == "RELATION" else probs


class MajorityModel:
    """Predicts the most frequent training relation, with its frequency."""

    def __init__(self, descriptor: ArchitectureDescriptor, label_space: RelationLabelSpace):
        if label_space is None:
            raise ValueError("the majority model needs a label space")
        self.descriptor = descriptor
        self.label_space = label_space
        self.counts = np.zeros(len(label_space))

    def fit(self, questions) -> None:
        for q in questions:
            idx = self.label_space.index(q.gold_relation)
            if idx is None:
                raise ValueError(f"label {q.gold_relation!r} outside label space")
            self.counts[idx] += 1

    def all_params(self) -> dict[str, np.ndarray]:
        return {"counts": self.counts}

    def predict_probs(self, token_seqs) -> np.ndarray:
        """The training label frequencies, one row per question."""
        if self.counts.sum() == 0:
            raise ValueError("majority model was never fit")
        return np.tile(self.counts / self.counts.sum(), (len(token_seqs), 1))


class MultinomialNBModel:
    """Bag-of-words multinomial Naive Bayes with add-alpha smoothing;
    token_counts has one column per vocabulary token."""

    def __init__(
        self,
        descriptor: ArchitectureDescriptor,
        label_space: RelationLabelSpace,
        alpha: float = 1.0,
        vocab_tokens=(),
    ):
        if label_space is None:
            raise ValueError("Naive Bayes needs a label space")
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        self.descriptor = descriptor
        self.label_space = label_space
        self.alpha = alpha
        self.vocab = {tok: i for i, tok in enumerate(vocab_tokens)}
        self.class_counts = np.zeros(len(label_space))
        self.token_counts = np.zeros((len(label_space), len(self.vocab)))
        self.total_tokens = np.zeros(len(label_space))

    def fit(self, questions) -> None:
        if not questions:
            raise ValueError("cannot fit Naive Bayes on an empty dataset")
        for q in questions:
            for token in q.tokens:
                self.vocab.setdefault(token, len(self.vocab))
        self.token_counts = np.zeros((len(self.label_space), len(self.vocab)))
        for q in questions:
            idx = self.label_space.index(q.gold_relation)
            if idx is None:
                raise ValueError(f"label {q.gold_relation!r} outside label space")
            self.class_counts[idx] += 1
            for token in q.tokens:
                self.token_counts[idx, self.vocab[token]] += 1
                self.total_tokens[idx] += 1

    def log_scores(self, tokens) -> np.ndarray:
        if self.class_counts.sum() == 0:
            raise ValueError("Naive Bayes model was never fit")
        v_size = len(self.vocab)
        scores = np.log(self.class_counts / self.class_counts.sum())
        denom = self.total_tokens + self.alpha * v_size
        for token in tokens:
            col = self.vocab.get(token)
            counts = self.token_counts[:, col] if col is not None else 0.0
            scores = scores + np.log((counts + self.alpha) / denom)
        return scores

    def all_params(self) -> dict[str, np.ndarray]:
        return {"class_counts": self.class_counts, "token_counts": self.token_counts,
                "total_tokens": self.total_tokens}

    def predict_probs(self, token_seqs) -> np.ndarray:
        """The posterior over labels, one row per question."""
        return np.stack([softmax(self.log_scores(tokens)) for tokens in token_seqs])


class NaiveAllEntityModel:
    """Tags every token as part of the entity."""

    def __init__(self, descriptor: ArchitectureDescriptor):
        self.descriptor = descriptor

    def all_params(self) -> dict[str, np.ndarray]:
        return {}

    def predict_probs(self, token_seqs) -> np.ndarray:
        """[B, T, 2] with all mass on tag 1."""
        t_len = max((len(tokens) for tokens in token_seqs), default=0)
        return np.tile([0.0, 1.0], (len(token_seqs), t_len, 1))


def build_model(
    descriptor: ArchitectureDescriptor,
    embeddings: EmbeddingTable | None,
    label_space: RelationLabelSpace | None,
    vocab_tokens=(),
    max_len: int = 36,
    seed: int = 0,
    freeze_embeddings: bool = True,
    alpha: float = 1.0,
):
    """Construct any model kind; neural kinds embed vocab_tokens through
    the embedding table (row 0 pad, row 1 the OOV vector)."""
    if descriptor.kind == "MAJORITY":
        return MajorityModel(descriptor, label_space)
    if descriptor.kind == "NB_MULTINOMIAL":
        return MultinomialNBModel(descriptor, label_space, alpha)
    if descriptor.kind == "NAIVE_ALL_ENTITY":
        return NaiveAllEntityModel(descriptor)

    if embeddings is None:
        raise ValueError("neural models need an embedding table")
    vocab: dict[str, int] = {}
    rows = [np.zeros(embeddings.dimension), np.asarray(embeddings.unk_vector, dtype=np.float64)]
    for token in vocab_tokens:
        if token not in vocab:
            vocab[token] = len(rows)
            rows.append(np.asarray(embeddings.lookup(token), dtype=np.float64))
    matrix = np.stack(rows, axis=0)
    return NeuralSequenceModel.fresh(
        descriptor, vocab, matrix, label_space, max_len, seed, freeze_embeddings
    )


# -- shared prediction helpers ----------------------------------------------


def _model_input(model, tokens, lexicon) -> FilterResult:
    """The tokens a model reads for a question: its noun clusters when the
    model's descriptor asks for the noun filter, otherwise every token."""
    if model.descriptor.noun_filter:
        return noun_chunk_filter(tokens, pos_tag(tokens, lexicon))
    return FilterResult(tuple(tokens), tuple(range(len(tokens))))


def _model_outputs(model, inputs, tagger: bool) -> list:
    """Raw tags (tagger) or (label, probability) per model input, in input
    order.  The model reads the inputs sorted by kept length, at most
    PREDICT_BATCH per predict_probs call, so each call pads little; tags
    past the positions a row holds (a neural model's max_len) are 0."""
    outputs = [None] * len(inputs)
    order = sorted(range(len(inputs)), key=lambda i: len(inputs[i].kept_tokens))
    for start in range(0, len(order), PREDICT_BATCH):
        chunk = order[start : start + PREDICT_BATCH]
        probs = model.predict_probs([inputs[i].kept_tokens for i in chunk])
        for i, row in zip(chunk, probs):
            if tagger:
                n_kept = len(inputs[i].kept_tokens)
                seen = min(n_kept, len(row))
                outputs[i] = np.argmax(row[:seen], axis=1).tolist() + [0] * (n_kept - seen)
            else:
                best = int(np.argmax(row))
                outputs[i] = (model.label_space.labels[best], float(row[best]))
    return outputs


def _model_inputs(model, token_seqs, lexicon) -> list[FilterResult]:
    """_model_input per question; every question must have tokens."""
    if not all(token_seqs):
        verb = "classify" if model.descriptor.task == "RELATION" else "tag"
        raise ValueError(f"cannot {verb} an empty token sequence")
    return [_model_input(model, tokens, lexicon) for tokens in token_seqs]


def predict_tags_batch(model, token_seqs, lexicon=None) -> list[TagPrediction]:
    """Tag each question, applying noun-cluster filtering when the model's
    descriptor asks for it and falling back to all-ones on an all-zero
    prediction."""
    token_seqs = [list(tokens) for tokens in token_seqs]
    return _tag_predictions(model, token_seqs, _model_inputs(model, token_seqs, lexicon))


def _tag_predictions(model, token_seqs, inputs) -> list[TagPrediction]:
    """predict_tags_batch from the questions' model inputs."""
    predictions = []
    for tokens, seen, raw in zip(token_seqs, inputs, _model_outputs(model, inputs, True)):
        degraded = seen.degraded
        if all(t == 0 for t in raw):
            raw = [1] * len(seen.kept_tokens)
            degraded = True
        mapped = [0] * len(tokens)
        for pos, src in enumerate(seen.index_map):
            mapped[src] = raw[pos]
        predictions.append(TagPrediction(tuple(mapped), degraded))
    return predictions


def predict_tags(model, tokens, lexicon=None) -> TagPrediction:
    """predict_tags_batch for one question."""
    return predict_tags_batch(model, [tokens], lexicon)[0]


def tag_accuracy(predictions, questions) -> float:
    """Question-level entity-detection accuracy: the share of questions
    whose mapped tags equal their gold tags exactly."""
    pairs = zip(predictions, questions, strict=True)
    return sum(pred.mapped_tags == q.gold_tags for pred, q in pairs) / len(questions)


def entity_phrase(tags, tokens) -> list[str]:
    """Tokens of the longest run of 1s (earliest run on ties)."""
    if len(tags) != len(tokens):
        raise ValueError(f"tags and tokens must align, got {len(tags)} vs {len(tokens)}")
    best_start, best_len = -1, 0
    run_start = None
    for i, tag in enumerate(list(tags) + [0]):
        if tag == 1 and run_start is None:
            run_start = i
        elif tag != 1 and run_start is not None:
            length = i - run_start
            if length > best_len:
                best_start, best_len = run_start, length
            run_start = None
    if best_len == 0:
        raise ValueError("no entity-tagged tokens to build a phrase from")
    return list(tokens[best_start : best_start + best_len])


def predict_relation_batch(model, token_seqs, lexicon=None) -> list[tuple[str, float]]:
    """Most likely relation label and its probability, per question."""
    token_seqs = [list(tokens) for tokens in token_seqs]
    return _model_outputs(model, _model_inputs(model, token_seqs, lexicon), False)


def predict_relation(model, tokens, lexicon=None) -> tuple[str, float]:
    """predict_relation_batch for one question."""
    return predict_relation_batch(model, [tokens], lexicon)[0]


def relation_accuracy(labels, questions) -> float:
    """Relation-prediction accuracy: the share of questions whose predicted
    label equals their gold relation."""
    pairs = zip(labels, questions, strict=True)
    return sum(label == q.gold_relation for label, q in pairs) / len(questions)


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_accuracy: float  # nan when there is no validation set


def _examples(model, questions, lexicon) -> list[tuple[list[str], object]]:
    """(model-input tokens, target) per question: the label index for a
    relation model, the gold tags aligned to those tokens for a tagger."""
    examples = []
    for q in questions:
        seen = _model_input(model, q.tokens, lexicon)
        if model.descriptor.task == "RELATION":
            target = model.label_space.index(q.gold_relation)
            if target is None:
                raise ValueError(f"training label {q.gold_relation!r} outside label space")
        else:
            target = [q.gold_tags[i] for i in seen.index_map]
        examples.append((list(seen.kept_tokens), target))
    return examples


def _batch(model, examples):
    """Padded ids, mask and targets for a list of examples."""
    ids, mask = model.encode([tokens for tokens, _ in examples])
    if model.descriptor.task == "RELATION":
        return ids, mask, np.array([target for _, target in examples], dtype=np.int64)
    targets = np.zeros_like(ids)
    for b, (_, tags) in enumerate(examples):
        tags = tags[: ids.shape[1]]
        targets[b, : len(tags)] = tags
    return ids, mask, targets


def _valid_accuracy(model, questions, inputs) -> float:
    """Accuracy on the validation questions, from their model inputs."""
    if not questions:
        return float("nan")
    if model.descriptor.task == "RELATION":
        labels = [label for label, _ in _model_outputs(model, inputs, False)]
        return relation_accuracy(labels, questions)
    return tag_accuracy(_tag_predictions(model, [q.tokens for q in questions], inputs),
                        questions)


def train(
    model,
    train_set,
    config: TrainConfig,
    optimizer: Optimizer | None = None,
    valid_set=(),
    lexicon=None,
) -> list[EpochStats]:
    """Fit a model; neural kinds run seeded minibatch epochs and keep the
    best-validation parameters, baseline kinds just count."""
    train_set = list(train_set)
    if not train_set:
        raise ValueError("training set is empty")
    if isinstance(model, (MajorityModel, MultinomialNBModel)):
        model.fit(train_set)
        return []
    if isinstance(model, NaiveAllEntityModel):
        return []
    if optimizer is None:
        raise ValueError("neural training needs an optimizer")

    model.max_len = config.max_len
    model.l1_activity = config.l1_activity
    model._dropout_rng = rng_for(config.seed, "dropout")
    model.embedding.trainable = not config.freeze_embeddings

    examples = _examples(model, train_set, lexicon)
    valid_inputs = _model_inputs(model, [q.tokens for q in valid_set], lexicon)
    shuffle_rng = rng_for(config.seed, "shuffle")
    n = len(examples)
    theta = model._trainable()[0]
    log: list[EpochStats] = []
    best_acc = -1.0
    best_theta = None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            indices = order[start : start + config.batch_size]
            batch = _batch(model, [examples[i] for i in indices])
            loss, _ = model.loss_and_grads(batch, training=True)
            optimizer.step(theta, model.grad)
            total_loss += loss * len(indices)
        val_acc = _valid_accuracy(model, valid_set, valid_inputs)
        log.append(EpochStats(epoch, total_loss / n, val_acc))
        if valid_set and val_acc > best_acc:
            best_acc = val_acc
            best_theta = model.theta.copy()
    if best_theta is not None:
        model.theta[...] = best_theta
    return log

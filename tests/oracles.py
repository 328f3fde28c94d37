"""Independent brute-force oracles used to cross-check the real implementations.

Everything here recomputes results from first principles (explicit loops,
no shared index structures) so oracle agreement is meaningful.
"""

import math
from collections import Counter
from itertools import accumulate, chain

import numpy as np

from kbqa.artifact import text_lines
from kbqa.corpus import Fact, KnowledgeBase
from kbqa.errors import IntegrityError, ParseError
from kbqa.evaluation import AccuracyReport, ReportRow, question_correct
from kbqa.index import MAX_NGRAM, AnswerCandidate, CandidateSet, EntityIndex, ReachIndex
from kbqa.models import TagPrediction, _layer_blocks
from kbqa.neural.layers import BidirectionalLayer, carve, cross_entropy, softmax
from kbqa.neural.optim import SGD, Adam
from kbqa.pipeline import build_structured_query
from kbqa.seeding import rng_for
from kbqa.textproc import ngrams, noun_chunk_filter, pos_tag

from corpora import from_facts


def sigmoid_scalar(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def gru_step_scalar(x, h_prev, params):
    """GRU step with explicit index loops; no vectorized ops."""
    d = len(x)
    hidden = len(h_prev)

    def affine(w, u, b, gate_in):
        out = []
        for j in range(hidden):
            acc = params[b][j]
            for i in range(d):
                acc += x[i] * params[w][i][j]
            for i in range(hidden):
                acc += gate_in[i] * params[u][i][j]
            out.append(acc)
        return out

    z = [sigmoid_scalar(v) for v in affine("W_z", "U_z", "b_z", h_prev)]
    r = [sigmoid_scalar(v) for v in affine("W_r", "U_r", "b_r", h_prev)]
    rh = [r[i] * h_prev[i] for i in range(hidden)]
    hc = [math.tanh(v) for v in affine("W_h", "U_h", "b_h", rh)]
    return [z[j] * h_prev[j] + (1.0 - z[j]) * hc[j] for j in range(hidden)]


def lstm_step_scalar(x, h_prev, c_prev, params):
    d = len(x)
    hidden = len(h_prev)

    def affine(gate):
        out = []
        for j in range(hidden):
            acc = params[f"b_{gate}"][j]
            for i in range(d):
                acc += x[i] * params[f"W_{gate}"][i][j]
            for i in range(hidden):
                acc += h_prev[i] * params[f"U_{gate}"][i][j]
            out.append(acc)
        return out

    i_g = [sigmoid_scalar(v) for v in affine("i")]
    f_g = [sigmoid_scalar(v) for v in affine("f")]
    o_g = [sigmoid_scalar(v) for v in affine("o")]
    g_g = [math.tanh(v) for v in affine("g")]
    c = [f_g[j] * c_prev[j] + i_g[j] * g_g[j] for j in range(hidden)]
    h = [o_g[j] * math.tanh(c[j]) for j in range(hidden)]
    return h, c


def scalar_sequence(kind, params, steps):
    """(states h, cell states c) after each step of a [T, D] sequence, from
    a zero state, by the scalar step oracles; params may be arrays."""
    params = {k: np.asarray(v).tolist() for k, v in params.items()}
    hidden = len(params["b_z" if kind == "gru" else "b_i"])
    h, c = [0.0] * hidden, [0.0] * hidden
    hs, cs = [], []
    for x in steps:
        if kind == "gru":
            h = gru_step_scalar(list(x), h, params)
        else:
            h, c = lstm_step_scalar(list(x), h, c, params)
        hs.append(h)
        cs.append(c)
    return np.array(hs), np.array(cs)


def conv1d_scalar(sequence, filters, bias):
    """Causal same-length convolution with explicit loops, pre-ReLU."""
    t_len = len(sequence)
    n_filters, width, depth = len(filters), len(filters[0]), len(filters[0][0])
    out = []
    for t in range(t_len):
        row = []
        for f in range(n_filters):
            acc = bias[f]
            for j in range(width):
                src = t - (width - 1) + j
                if src < 0:
                    continue
                for k in range(depth):
                    acc += filters[f][j][k] * sequence[src][k]
            row.append(acc)
        out.append(row)
    return out


def _sigmoid_masked(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def recurrent_reference(kind, params, x, mask, reverse, d_out):
    """One recurrent direction with separate per-gate matmuls at every step,
    forward and backward: (outputs [B, T, H], dx, grads by param name).

    This is the pre-fusion batched kernel, kept as the reference the fused
    gate-major layer is compared against.  Masked steps carry the state.
    """
    p = params
    b_size, t_len, _ = x.shape
    hidden = p["b_z" if kind == "gru" else "b_i"].shape[0]
    h = np.zeros((b_size, hidden))
    c = np.zeros((b_size, hidden))
    out = np.zeros((b_size, t_len, hidden))
    steps = []
    for t in range(t_len - 1, -1, -1) if reverse else range(t_len):
        x_t = x[:, t, :]
        m = mask[:, t, None]
        if kind == "gru":
            z = _sigmoid_masked(x_t @ p["W_z"] + h @ p["U_z"] + p["b_z"])
            r = _sigmoid_masked(x_t @ p["W_r"] + h @ p["U_r"] + p["b_r"])
            hc = np.tanh(x_t @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
            steps.append((t, x_t, h, c, (z, r, hc), m))
            h = m * (z * h + (1.0 - z) * hc) + (1.0 - m) * h
        else:
            gates = [
                _sigmoid_masked(x_t @ p[f"W_{n}"] + h @ p[f"U_{n}"] + p[f"b_{n}"])
                for n in "ifo"
            ]
            g = np.tanh(x_t @ p["W_g"] + h @ p["U_g"] + p["b_g"])
            i, f, o = gates
            c_new = f * c + i * g
            steps.append((t, x_t, h, c, (i, f, o, g, np.tanh(c_new)), m))
            h = m * (o * np.tanh(c_new)) + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
        out[:, t, :] = h

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dx = np.zeros(x.shape)
    dh = np.zeros((b_size, hidden))
    dc = np.zeros((b_size, hidden))

    def gate(name, da, x_t, state_in):
        grads[f"W_{name}"] += x_t.T @ da
        grads[f"U_{name}"] += state_in.T @ da
        grads[f"b_{name}"] += da.sum(axis=0)
        return da @ p[f"W_{name}"].T, da @ p[f"U_{name}"].T

    for t, x_t, h_prev, c_prev, acts, m in reversed(steps):
        dh = dh + d_out[:, t, :]
        dh_new = dh * m
        dh_prev = dh * (1.0 - m)
        if kind == "gru":
            z, r, hc = acts
            dh_prev += dh_new * z
            dx_t, drh = gate("h", dh_new * (1.0 - z) * (1.0 - hc * hc), x_t, r * h_prev)
            dh_prev += drh * r
            for name, da in (("z", dh_new * (h_prev - hc) * z * (1.0 - z)),
                             ("r", drh * h_prev * r * (1.0 - r))):
                dx_g, dh_g = gate(name, da, x_t, h_prev)
                dx_t += dx_g
                dh_prev += dh_g
        else:
            i, f, o, g, tc = acts
            dc_new = dc * m + dh_new * o * (1.0 - tc * tc)
            dc = dc * (1.0 - m) + dc_new * f
            dx_t = np.zeros_like(x_t)
            for name, da in (("i", dc_new * g * i * (1.0 - i)),
                             ("f", dc_new * c_prev * f * (1.0 - f)),
                             ("o", dh_new * tc * o * (1.0 - o)),
                             ("g", dc_new * i * (1.0 - g * g))):
                dx_g, dh_g = gate(name, da, x_t, h_prev)
                dx_t += dx_g
                dh_prev += dh_g
        dx[:, t, :] = dx_t
        dh = dh_prev
    return out, dx, grads


# -- optimizer references ------------------------------------------------------


class _PerViewSGD(SGD):
    """SGD.step over a model's named parameter views, one update per view."""

    def step(self, params, grads):
        self.step_count += 1
        for name, p in params.items():
            p -= self.learning_rate * grads[name]


class _PerViewAdam(Adam):
    """Adam.step over a model's named parameter views, with its moments in
    dicts keyed by name."""

    def step(self, params, grads):
        if self._m is None:
            self._m, self._v = {}, {}
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - 0.9**t
        bias2 = 1.0 - 0.999**t
        for name, p in params.items():
            g = grads[name]
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * p
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * p
            p -= self.learning_rate * update


class PerViewOptimizer:
    """An optimizer for train() that steps model's named views of theta
    one by one: train hands it theta's trainable suffix and model.grad,
    and it steps model.trainable_params() with grad cut into the same
    views, as loss_and_grads returns them."""

    def __init__(self, model, kind: str, learning_rate: float, weight_decay: float = 0.0):
        self.model = model
        if kind == "SGD":
            self.inner = _PerViewSGD(learning_rate)
        else:
            self.inner = _PerViewAdam(learning_rate, weight_decay, kind == "ADAM_DECOUPLED")

    def step(self, theta, grad):
        assert np.shares_memory(theta, self.model.theta) and grad is self.model.grad
        params = self.model.trainable_params()
        self.inner.step(params, carve(grad, [(name, p.shape) for name, p in params.items()]))


# -- the per-task loss path ----------------------------------------------------


def forward_reference(model, ids, mask, training):
    """NeuralSequenceModel._forward when each task had its own loss: a
    classifier's logits are [B, C], and the last dropout comes back too."""
    if training and model._dropout_rng is None:
        model._dropout_rng = rng_for(model.seed, "dropout")
    rng = model._dropout_rng
    *drops, last_drop = model.drops
    x = model.embedding.forward(ids)
    if model.conv is not None:
        x = drops.pop(0).forward(model.conv.forward(x), training, rng)
    seq_outs = [model.recurrents[0].forward(x, mask)]
    for layer, drop in zip(model.recurrents[1:], drops):
        seq_outs.append(layer.forward(drop.forward(seq_outs[-1], training, rng), mask))
    head_in = seq_outs[-1]
    if model.descriptor.task == "RELATION":
        head_in = BidirectionalLayer.final_state(head_in, model.recurrents[-1].hidden_dim)
    logits = model.dense.forward(last_drop.forward(head_in, training, rng))
    return seq_outs, last_drop, logits


def objective_reference(model, seq_outs, logits, mask, targets) -> tuple[float, int]:
    """Mean cross-entropy plus the L1 activity penalty, and the number
    of penalised activations (the penalty gradient's denominator).

    The penalised activations are the recurrent outputs and the dense
    logits, with masked positions excluded."""
    nll = cross_entropy(logits, targets)
    if model.descriptor.task == "ENTITY":
        value = (nll * mask).sum() / mask.sum()
    else:
        value = nll.sum() / nll.shape[0]
    if not model.l1_activity:
        return float(value), 0
    n_real = int(mask.sum())
    total = sum(float((np.abs(out) * mask[:, :, None]).sum()) for out in seq_outs)
    count = sum(n_real * out.shape[-1] for out in seq_outs)
    if model.descriptor.task == "ENTITY":
        total += float((np.abs(logits) * mask[:, :, None]).sum())
        count += n_real * logits.shape[-1]
    else:
        total += float(np.abs(logits).sum())
        count += logits.size
    return float(value + model.l1_activity * total / count), count


def loss_and_grads_reference(model, batch, training: bool = False):
    """NeuralSequenceModel.loss_and_grads with one loss and one logit
    gradient per task: a tagger's mean is over real tokens, a classifier's
    divides by the batch size."""
    ids, mask, targets = batch
    theta, layout = model._trainable()
    model.grad = np.zeros(theta.size)
    for name, block in _layer_blocks(model.grad, layout).items():
        model._layers[name].use_grads(block)
    seq_outs, last_drop, logits = forward_reference(model, ids, mask, training)
    total, act_count = objective_reference(model, seq_outs, logits, mask, targets)
    l1 = model.l1_activity

    d_logits = softmax(logits)
    if model.descriptor.task == "ENTITY":
        np.put_along_axis(
            d_logits,
            targets[:, :, None],
            np.take_along_axis(d_logits, targets[:, :, None], axis=2) - 1.0,
            axis=2,
        )
        d_logits *= mask[:, :, None] / mask.sum()
        if l1:
            d_logits += l1 * np.sign(logits) * mask[:, :, None] / act_count
    else:
        n = ids.shape[0]
        d_logits[np.arange(n), targets] -= 1.0
        d_logits /= n
        if l1:
            d_logits += l1 * np.sign(logits) / act_count

    d = last_drop.backward(model.dense.backward(d_logits))
    if model.descriptor.task == "RELATION":
        d = BidirectionalLayer.inject_final_grad(
            d, seq_outs[-1].shape, model.recurrents[-1].hidden_dim
        )
    conv_sites = 1 if model.conv is not None else 0
    for li in range(len(model.recurrents) - 1, -1, -1):
        if l1:
            d = d + l1 * np.sign(seq_outs[li]) * mask[:, :, None] / act_count
        d = model.recurrents[li].backward(d)
        if li > 0:
            d = model.drops[conv_sites + li - 1].backward(d)
    if model.conv is not None:
        d = model.conv.backward(model.drops[0].backward(d))
    model.embedding.backward(d)

    return total, carve(model.grad, layout)


# -- ingestion references ------------------------------------------------------


def tokenize_reference(text: str) -> list[str]:
    """textproc.tokenize with the per-character strip loop run on every piece."""
    tokens = []
    for piece in text.lower().split():
        start = 0
        end = len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if end > start:
            tokens.append(piece[start:end])
    return tokens


def _read_fields_reference(path: str, n_fields: int):
    for line_no, raw in text_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        if any(not f for f in fields):
            raise ParseError(path, line_no, "empty field")
        yield line_no, fields


def load_facts_reference(facts_path: str, aliases_path: str) -> KnowledgeBase:
    """corpus.load_facts with a generator test for empty fields and
    tokenize_reference."""
    facts = tuple(Fact(s, r, o) for _, (s, r, o) in _read_fields_reference(facts_path, 3))
    aliases: dict[str, list[str]] = {}
    for line_no, (entity, alias_text) in _read_fields_reference(aliases_path, 2):
        normalized = " ".join(tokenize_reference(alias_text))
        if not normalized:
            raise ParseError(
                aliases_path, line_no, f"alias for {entity!r} is empty after normalization"
            )
        bucket = aliases.setdefault(entity, [])
        if normalized not in bucket:
            bucket.append(normalized)
    for line_no, (subject, _, _) in _read_fields_reference(facts_path, 3):
        if subject not in aliases:
            raise IntegrityError(
                f"{facts_path}:{line_no}: fact subject {subject!r} has no alias in {aliases_path}"
            )
    return from_facts(facts, {e: tuple(a) for e, a in aliases.items()})


# -- retrieval oracles ---------------------------------------------------------


def _names_reference(kb: KnowledgeBase) -> list[str]:
    return sorted(set(kb.aliases).union(fact.subject for fact in kb.facts))


def build_entity_index_reference(kb: KnowledgeBase) -> EntityIndex:
    """index.build_entity_index as loops over one Counter per document and
    one dict of entity ranks per n-gram."""
    names = _names_reference(kb)
    documents = [
        (rank, Counter(ngrams(alias.split(" "), MAX_NGRAM)))
        for rank, entity in enumerate(names)
        for alias in kb.aliases.get(entity, ())
    ]
    if not documents:
        raise IntegrityError("cannot build an entity index from a KB with no aliases")

    n_docs = len(documents)
    df: dict[str, int] = {}
    for _, counts in documents:
        for gram in counts:
            df[gram] = df.get(gram, 0) + 1

    # documents come in rank order, so each row's keys rise
    best: dict[str, dict[int, float]] = {}
    for rank, counts in documents:
        total = sum(counts.values())
        for gram, count in counts.items():
            weight = (count / total) * (math.log((1 + n_docs) / (1 + df[gram])) + 1.0)
            row = best.setdefault(gram, {})
            if weight > row.get(rank, 0.0):
                row[rank] = weight

    grams = sorted(best)
    rows = [best[gram] for gram in grams]
    offsets = np.cumsum([0, *map(len, rows)]).astype(np.int32)
    entities = np.fromiter(chain.from_iterable(rows), np.int32, offsets[-1])
    weights = np.fromiter(chain.from_iterable(map(dict.values, rows)), np.float64, offsets[-1])
    return EntityIndex(names, grams, offsets, entities, weights, n_docs)


def build_reach_index_reference(kb: KnowledgeBase) -> ReachIndex:
    """index.build_reach_index with a stable sort of the fact positions by
    subject rank and a Counter per subject."""
    names = _names_reference(kb)
    rank = dict(zip(names, range(len(names))))
    relation_names = sorted({fact.relation for fact in kb.facts})
    relation_id = dict(zip(relation_names, range(len(relation_names))))
    subjects = [rank[fact.subject] for fact in kb.facts]
    facts = [kb.facts[i] for i in sorted(range(len(subjects)), key=subjects.__getitem__)]
    counts = Counter(subjects)
    return ReachIndex(names, [0, *accumulate(counts[r] for r in range(len(names)))],
                      relation_names, [relation_id[fact.relation] for fact in facts],
                      [fact.object for fact in facts])




def _ngrams_list(tokens, max_n=3):
    out = []
    for n in range(1, min(max_n, len(tokens)) + 1):
        for s in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[s : s + n]))
    return out


def brute_tfidf_weight(kb: KnowledgeBase, entity: str, alias: str, gram: str) -> float:
    """Recompute one posting weight by scanning every alias document."""
    docs = [(e, a) for e in kb.aliases for a in kb.aliases[e]]
    n_docs = len(docs)
    df = sum(1 for _, a in docs if gram in set(_ngrams_list(a.split(" "))))
    grams = _ngrams_list(alias.split(" "))
    tf = grams.count(gram) / len(grams)
    return tf * (math.log((1 + n_docs) / (1 + df)) + 1.0)


def brute_entity_scores(kb: KnowledgeBase, phrase_tokens) -> dict[str, float]:
    """Score every entity against the phrase from scratch.

    Mirrors the specified aggregation (per-gram max across the entity's
    aliases, summed over the phrase's gram sequence) with weights
    recomputed by full scans.
    """
    scores: dict[str, float] = {}
    for gram in _ngrams_list(list(phrase_tokens)):
        for entity in kb.aliases:
            best = None
            for alias in kb.aliases[entity]:
                if gram in _ngrams_list(alias.split(" ")):
                    w = brute_tfidf_weight(kb, entity, alias, gram)
                    if best is None or w > best:
                        best = w
            if best is not None:
                scores[entity] = scores.get(entity, 0.0) + best
    return scores


def brute_rank(kb: KnowledgeBase, phrase_tokens, k: int):
    scores = brute_entity_scores(kb, phrase_tokens)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def brute_answer(kb: KnowledgeBase, phrase_tokens, relation: str, k: int):
    """(object, supporting fact, score) of the best answer, or None."""
    for entity, score in brute_rank(kb, phrase_tokens, k):
        for fact in kb.facts:
            if fact.subject == entity and fact.relation == relation:
                return fact.object, fact, score
    return None


def named_candidates(idx, candidates: CandidateSet) -> list[tuple[str, float]]:
    """A CandidateSet as (entity name, score) pairs, in result order."""
    return [(idx.names[r], score)
            for r, score in zip(candidates.ranks.tolist(), candidates.scores.tolist())]


def query_entity_index_reference(idx, phrase_tokens, k: int) -> CandidateSet:
    """index.query_entity_index as a loop over the postings' rows: each
    entity rank's score starts at 0.0 and adds its weight for every n-gram
    of the phrase, in n-gram order."""
    row = {gram: g for g, gram in enumerate(idx.grams)}
    scores: dict[int, float] = {}
    for gram in ngrams(list(phrase_tokens), MAX_NGRAM):
        if gram in row:
            lo, hi = idx.offsets[row[gram]], idx.offsets[row[gram] + 1]
            for r, weight in zip(idx.entities[lo:hi].tolist(), idx.weights[lo:hi].tolist()):
                scores[r] = scores.get(r, 0.0) + weight
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return CandidateSet(np.array([r for r, _ in ranked], np.int32),
                        np.array([score for _, score in ranked], np.float64))


def reach_edges(idx: ReachIndex) -> dict[str, tuple[tuple[str, str], ...]]:
    """entity -> ((relation, object), ...) in source fact order, for each
    entity with facts."""
    return {name: tuple((idx.relation_names[idx.relations[i]], idx.objects[i])
                        for i in range(lo, hi))
            for name, lo, hi in zip(idx.names, idx.offsets, idx.offsets[1:]) if lo < hi}


def query_reach_reference(idx, candidates: CandidateSet, relation: str) -> list[AnswerCandidate]:
    """index.query_reach as a loop over each candidate's edges."""
    edges = reach_edges(idx)
    out = []
    for entity, score in named_candidates(idx, candidates):
        for rel, obj in edges.get(entity, ()):
            if rel == relation:
                out.append(AnswerCandidate(entity, rel, obj, score))
    return out


# -- random KB generation ------------------------------------------------------

_WORD_POOL = [
    "tom", "hanks", "mary", "jane", "smith", "john", "doe", "lake",
    "york", "new", "old", "big", "red", "blue", "hill", "stone",
    "river", "king", "fox", "gray",
]
_RELATION_POOL = ["bornOn", "diedOn", "starredIn", "marriedTo", "livedIn", "wrote"]


def random_kb(rng: np.random.Generator, max_aliases: int = 100, max_facts: int = 300):
    """A random small KB with deliberately overlapping alias text."""
    n_entities = int(rng.integers(1, max(2, max_aliases // 2)))
    aliases: dict[str, tuple[str, ...]] = {}
    total_aliases = 0
    for i in range(n_entities):
        entity = f"e{i}"
        n_alias = int(rng.integers(1, 4))
        bucket = []
        for _ in range(n_alias):
            if total_aliases >= max_aliases:
                break
            length = int(rng.integers(1, 5))
            words = [str(rng.choice(_WORD_POOL)) for _ in range(length)]
            alias = " ".join(words)
            if alias not in bucket:
                bucket.append(alias)
                total_aliases += 1
        if not bucket:
            bucket = [f"name{i}"]
            total_aliases += 1
        aliases[entity] = tuple(bucket)
    entities = list(aliases)
    n_facts = int(rng.integers(0, max_facts + 1))
    facts = tuple(
        Fact(
            str(rng.choice(entities)),
            str(rng.choice(_RELATION_POOL)),
            f"obj{int(rng.integers(0, 50))}",
        )
        for _ in range(n_facts)
    )
    return from_facts(facts, aliases)


def random_phrase(rng: np.random.Generator, max_len: int = 4):
    length = int(rng.integers(1, max_len + 1))
    return [str(rng.choice(_WORD_POOL)) for _ in range(length)]


def _reference_input(model, tokens, lexicon):
    """(kept tokens, index map, degraded): the noun clusters when the
    model's descriptor asks for the noun filter, otherwise every token."""
    if model.descriptor.noun_filter:
        seen = noun_chunk_filter(tokens, pos_tag(tokens, lexicon))
        return list(seen.kept_tokens), seen.index_map, seen.degraded
    return list(tokens), range(len(tokens)), False


def predict_tags_reference(model, tokens, lexicon=None) -> TagPrediction:
    """One question's tags from a forward pass of that question alone."""
    tokens = list(tokens)
    kept, index_map, degraded = _reference_input(model, tokens, lexicon)
    probs = model.predict_probs([kept])[0]
    # a neural model reads max_len tokens; a baseline reads every token
    seen = min(len(kept), getattr(model, "max_len", len(kept)))
    raw = [int(t) for t in np.argmax(probs[:seen], axis=1)] + [0] * (len(kept) - seen)
    if all(t == 0 for t in raw):
        raw = [1] * len(kept)
        degraded = True
    mapped = [0] * len(tokens)
    for pos, src in enumerate(index_map):
        mapped[src] = raw[pos]
    return TagPrediction(tuple(mapped), degraded)


def predict_relation_reference(model, tokens, lexicon=None) -> tuple[str, float]:
    """One question's relation from a forward pass of that question alone."""
    kept, _, _ = _reference_input(model, list(tokens), lexicon)
    probs = model.predict_probs([kept])[0]
    best = int(np.argmax(probs))
    return model.label_space.labels[best], float(probs[best])


def valid_accuracy_reference(model, questions, lexicon) -> float:
    """models._valid_accuracy with one forward pass per question."""
    if not questions:
        return float("nan")
    if model.descriptor.task == "RELATION":
        hits = [predict_relation_reference(model, q.tokens, lexicon)[0] == q.gold_relation
                for q in questions]
    else:
        hits = [predict_tags_reference(model, q.tokens, lexicon).mapped_tags == q.gold_tags
                for q in questions]
    return sum(hits) / len(questions)


def evaluate_reference(
    dataset, entity_index=None, entity_models=None, relation_models=None,
    pipelines=None, lexicon=None, k=50,
):
    """evaluate() as three independent loops: the ED and RP rows predict per
    model and question, and each pipeline runs both of its models again
    from the question text."""
    dataset = list(dataset)
    rows = []
    for name, model in (entity_models or {}).items():
        q_correct = tok_correct = tok_total = 0
        for q in dataset:
            pred = predict_tags_reference(model, q.tokens, lexicon)
            q_correct += int(pred.mapped_tags == q.gold_tags)
            tok_correct += sum(int(p == g) for p, g in zip(pred.mapped_tags, q.gold_tags))
            tok_total += len(q.gold_tags)
        rows.append(ReportRow(name, ed_question_accuracy=q_correct / len(dataset),
                              ed_token_accuracy=tok_correct / tok_total))
    for name, model in (relation_models or {}).items():
        correct = sum(
            int(predict_relation_reference(model, q.tokens, lexicon)[0] == q.gold_relation)
            for q in dataset
        )
        rows.append(ReportRow(name, rp_accuracy=correct / len(dataset)))
    for name, (entity_model, relation_model) in (pipelines or {}).items():
        correct = 0
        for q in dataset:
            query = build_structured_query(entity_model, relation_model, q.text, lexicon)
            correct += int(question_correct(query, q, entity_index, k))
        rows.append(ReportRow(name, end_to_end_accuracy=correct / len(dataset)))
    return AccuracyReport(tuple(rows))


def basin_hop_tune_reference(
    space: dict[str, list], objective, budget: int, seed: int
) -> tuple[dict, list[tuple[dict, float]]]:
    """Maximize objective over a finite grid: hill-climb over single-dimension
    neighbors from the space's midpoint, with seeded random restarts once a
    local optimum is reached.  budget bounds the number of objective calls;
    repeat visits are served from a cache for free.  basin_hop_tune must
    return what this returns and call the objective on the same points in
    the same order.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not space or any(not values for values in space.values()):
        raise ValueError("tuning space must have non-empty dimensions")
    dims = list(space)
    sizes = [len(space[d]) for d in dims]

    def config_of(idx):
        return {d: space[d][i] for d, i in zip(dims, idx)}

    start = tuple(s // 2 for s in sizes)
    if budget == 0:
        return config_of(start), []

    rng = rng_for(seed, "tune")
    cache: dict[tuple, float] = {}
    trace: list[tuple[dict, float]] = []
    calls = 0

    def score_of(idx):
        nonlocal calls
        if idx in cache:
            return cache[idx]
        if calls >= budget:
            return None
        calls += 1
        value = float(objective(config_of(idx)))
        cache[idx] = value
        trace.append((config_of(idx), value))
        return value

    total_points = 1
    for s in sizes:
        total_points *= s

    current = start
    current_score = score_of(current)
    best_idx, best_score = current, current_score
    while calls < budget and len(cache) < total_points:
        improved = False
        for di in range(len(dims)):
            for delta in (-1, 1):
                j = current[di] + delta
                if not 0 <= j < sizes[di]:
                    continue
                neighbor = current[:di] + (j,) + current[di + 1 :]
                value = score_of(neighbor)
                if value is None:
                    break
                if value > best_score:
                    best_idx, best_score = neighbor, value
                if value > current_score:
                    current, current_score = neighbor, value
                    improved = True
                    break
            if improved or calls >= budget:
                break
        if not improved and calls < budget:
            # local optimum: hop to a seeded random point, which score_of scores
            current = tuple(int(rng.integers(0, s)) for s in sizes)
            current_score = score_of(current)
            if current_score > best_score:
                best_idx, best_score = current, current_score
    return config_of(best_idx), trace

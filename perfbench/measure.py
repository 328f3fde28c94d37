"""The measured process: set-up, warm-up, timed loop, peak memory, then checks.

    python3 perfbench/measure.py --workload train|ask|eval --seed N \
        --seconds S --trace 0|1 --dir DIR [--spans FILE]

Reads only the files gen.py and prepare.py left in DIR, through kbqa's
loaders, and prints one JSON object as its last line.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the timed loop alternates
untraced and traced rounds, and the metrics are the per-layer ones from the
traced rounds plus the tracing overhead.

Every timing is a median over repeated units, never one total: the 2-vCPU
VM it was measured on flips between a fast and a ~1.5x slower state in
episodes of 1-20 s (see README.md).
"""

import argparse
import json
import os
import platform
import resource
import time
from statistics import median, quantiles

import numpy as np

import common
from oracle import RetrievalOracle
from tracer import Tracer

now = time.perf_counter

SETUP_REPEATS = 3
MIN_UNITS = 100  # latency samples per run, so p90 has >= 10 beyond it
TRAIN_KINDS = ("BILSTM2", "NT_BILSTM1", "BIGRU2", "CONV_GRU")
TRAIN_WARMUP_ROUNDS = 2
TRAIN_MIN_ROUNDS = 6  # timed; with warm-up every kind trains >= 8 epochs
# The learning checks look at the first CHECKED_EPOCHS epochs, which every
# run trains, so they do not depend on the host's speed.  README.md gives the
# worst values seen over 75 seeds; each bound keeps a margin beyond them.
CHECKED_EPOCHS = TRAIN_WARMUP_ROUNDS + TRAIN_MIN_ROUNDS
# Floors for the best validation accuracy (ED: question-level exact tags).
TRAIN_FLOORS = {"BILSTM2": 0.6, "NT_BILSTM1": 0.3, "BIGRU2": 0.1, "CONV_GRU": 0.2}
# Ceilings for the training loss of the last checked epoch over the first's.
TRAIN_LOSS_CEILINGS = {"BILSTM2": 0.2, "NT_BILSTM1": 0.55, "BIGRU2": 0.75, "CONV_GRU": 0.8}
GRAD_QUESTIONS = 3  # batch of the gradient check
GRAD_TOLERANCE = 1e-4  # a correct backward pass stays below ~3e-6
ASK_BLOCK = 20
EVAL_BLOCK = 5
EVAL_CHECKED_BLOCKS = MIN_UNITS  # every run evaluates at least these blocks


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def probe_ms() -> float:
    """One run of a fixed unit of numpy and dict work, in ms."""
    start = now()
    d = {}
    for i in range(20_000):
        d[i % 997] = d.get(i % 997, 0) + i
    x = _PROBE_MATRIX
    for _ in range(20):
        x = np.tanh(x @ _PROBE_MATRIX * 0.01)
    return (now() - start) * 1000


_PROBE_MATRIX = np.random.default_rng(0).random((120, 120))
PROBE_EVERY_S = 0.5


def op_errors() -> tuple:
    """The errors one operation may raise: it is then counted as failed."""
    from kbqa.errors import QAError

    return (QAError, ValueError)


def file_mb(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths) / 1e6


class Run:
    """One workload run.  Subclasses define setup, one round of the timed
    loop, the latency summary and the checks."""

    def __init__(self, seed: int, work_dir: str, tracer):
        self.seed = seed
        self.dir = work_dir
        self.tracer = tracer
        self.setup_spans = []  # (first, last) span index of each setup repeat
        self.units = []  # (seconds, traced) per latency unit
        self.unit_spans = []  # (first, last) span index of each traced round
        self.attempted = 0
        self.failed = 0
        self.errors = {}  # error message -> count
        self.traced_ops = 0
        self.probes = [probe_ms() for _ in range(5)]

    def info(self):
        return {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def fail(self, exc: Exception, ops: int = 1) -> None:
        self.failed += ops
        message = f"{type(exc).__name__}: {exc}"
        self.errors[message] = self.errors.get(message, 0) + ops

    def all_failed(self) -> bool:
        return self.attempted > 0 and self.failed == self.attempted

    def span_mark(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0

    def run_setups(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            self.state = None
            first = self.span_mark()
            start = now()
            self.state = self.setup()
            times.append(now() - start)
            self.setup_spans.append((first, self.span_mark()))
        return median(times)

    def timed_loop(self, seconds: float) -> None:
        self.warm_up()
        start = last_probe = now()
        rounds = 0
        while now() - start < seconds or not (self.enough(rounds) or self.all_failed()):
            if now() - last_probe >= PROBE_EVERY_S:
                # between rounds, outside every timed unit
                self.probes.append(probe_ms())
                last_probe = now()
            traced = self.tracer is not None and rounds % 2 == 1
            if traced:
                self.tracer.install()
            first, ops = self.span_mark(), self.attempted
            self.round(traced)
            if traced:
                self.tracer.uninstall()
                self.unit_spans.append((first, self.span_mark()))
                self.traced_ops += self.attempted - ops
            rounds += 1

    def enough(self, rounds: int) -> bool:
        units = [u for u in self.units if not u[1]] if self.tracer else self.units
        return len(units) >= MIN_UNITS

    def latency(self, traced: bool) -> tuple[float, float]:
        times = [s for s, t in self.units if t == traced]
        return median(times) * 1000, quantiles(times, n=10, method="inclusive")[8] * 1000


class TrainRun(Run):
    """Desk-scale training of all four kinds, one epoch of each per round."""

    def setup(self):
        from kbqa import corpus

        kb = corpus.load_facts(self.path(common.FACTS), self.path(common.ALIASES))
        split = common.train_split(kb, self.dir, self.seed)
        models = {k: common.build_model(k, split, self.seed, common.DESK_SCALE) for k in TRAIN_KINDS}
        return {"kb": kb, "split": split, "models": models}

    def warm_up(self):
        from kbqa.neural.optim import make_optimizer

        self.optimizers = {k: StepClock(make_optimizer("ADAM_COUPLED", common.LEARNING_RATE))
                           for k in TRAIN_KINDS}
        self.epochs = {k: [] for k in TRAIN_KINDS}  # (seconds, traced, valid_s)
        self.logs = {k: [] for k in TRAIN_KINDS}
        n_train = len(self.state["split"].train)
        self.updates_per_epoch = -(-n_train // common.BATCH_SIZE)
        for _ in range(TRAIN_WARMUP_ROUNDS):
            for kind in TRAIN_KINDS:
                self.epoch(kind)
        self.failed = 0
        self.errors.clear()

    def enough(self, rounds):
        return rounds >= TRAIN_MIN_ROUNDS and super().enough(rounds)

    def epoch(self, kind):
        from kbqa import models
        from kbqa.neural.config import TrainConfig

        split = self.state["split"]
        clock = self.optimizers[kind]
        clock.stamps.clear()
        config = TrainConfig(epochs=1, batch_size=common.BATCH_SIZE,
                             seed=self.seed * 1000 + len(self.logs[kind]))
        start = now()
        try:
            log = models.train(self.state["models"][kind], split.train, config, clock,
                               valid_set=split.valid)
        except op_errors() as exc:
            self.fail(exc, self.updates_per_epoch)
            return None
        end = now()
        self.logs[kind].append(log[0])
        return end - start, np.diff(clock.stamps), end - clock.stamps[-1]

    def round(self, traced):
        for kind in TRAIN_KINDS:
            self.attempted += self.updates_per_epoch
            epoch = self.epoch(kind)
            if epoch is None:
                continue
            seconds, steps, valid_s = epoch
            self.epochs[kind].append((seconds, traced, valid_s))
            # the first update of an epoch also pays for example preparation
            self.units.extend((float(s), traced, kind) for s in steps)

    def epoch_s(self, kind, traced=False):
        times = [s for s, t, _ in self.epochs[kind] if t == traced]
        return median(times) if times else 0.0

    def trained_kinds(self):
        """The kinds whose epochs did not fail."""
        return [k for k in TRAIN_KINDS if self.epochs[k]]

    def items_per_s(self):
        kinds = self.trained_kinds()
        n_train = len(self.state["split"].train)
        return n_train * len(kinds) / sum(self.epoch_s(k) for k in kinds)

    def latency(self, traced):
        # per-kind percentiles averaged over kinds: every round has the same
        # number of updates of each kind, and a pooled percentile would sit
        # on the edge between two kinds' distributions
        p50, p90 = [], []
        for kind in self.trained_kinds():
            times = [s for s, t, k in self.units if t == traced and k == kind]
            p50.append(median(times))
            p90.append(quantiles(times, n=10, method="inclusive")[8])
        return 1000 * sum(p50) / len(p50), 1000 * sum(p90) / len(p90)

    def info(self):
        return {kind: {"epochs": len(log), "first_loss": log[0].train_loss,
                       "loss_ratio": log[CHECKED_EPOCHS - 1].train_loss / log[0].train_loss,
                       "last_loss": log[-1].train_loss,
                       "best_valid_accuracy": max(e.valid_accuracy for e in log[:CHECKED_EPOCHS]),
                       "valid_accuracy": log[-1].valid_accuracy}
                for kind, log in self.logs.items() if len(log) >= CHECKED_EPOCHS}

    def checks(self):
        from kbqa import model_io

        split = self.state["split"]
        seqs = [list(q.tokens) for q in split.valid]
        paths = []
        for kind, model in self.state["models"].items():
            log = self.logs[kind]
            if len(log) < CHECKED_EPOCHS:
                continue  # its epochs failed and are counted in `failed`
            acc = max(e.valid_accuracy for e in log[:CHECKED_EPOCHS])
            check(acc >= TRAIN_FLOORS[kind],
                  f"{kind}: best validation accuracy {acc:.3f} in {CHECKED_EPOCHS} epochs "
                  f"is below the floor {TRAIN_FLOORS[kind]}")
            first, last = log[0].train_loss, log[CHECKED_EPOCHS - 1].train_loss
            check(last <= TRAIN_LOSS_CEILINGS[kind] * first,
                  f"{kind}: loss fell only from {first:.4f} to {last:.4f} in {CHECKED_EPOCHS} "
                  f"epochs, above {TRAIN_LOSS_CEILINGS[kind]} of the first")
            path = self.path(f"train_{kind}.qam")
            model_io.save_model(model, path)
            reloaded = model_io.load_model(path)
            check(np.array_equal(model.predict_probs(seqs), reloaded.predict_probs(seqs)),
                  f"{kind}: reloaded model predicts differently")
            error, param = gradient_error(model, split.train[:GRAD_QUESTIONS],
                                          np.random.default_rng(self.seed))
            check(error < GRAD_TOLERANCE,
                  f"{kind}: gradient of {param} is off by {error:.3g} of its scale")
            paths.append(path)
        self.artifact_mb = file_mb(*paths)
        self.model_mb = self.artifact_mb


def gradient_error(model, questions, rng, h=1e-5) -> tuple[float, str]:
    """Largest error of loss_and_grads' gradient against central differences
    of loss(), relative to the largest gradient of the same tensor.  Samples
    the two largest and two random coordinates of every trainable tensor."""
    ids, mask = model.encode([list(q.tokens) for q in questions])
    if model.descriptor.task == "ENTITY":
        targets = np.zeros_like(ids)
        for b, q in enumerate(questions):
            tags = q.gold_tags[: ids.shape[1]]
            targets[b, : len(tags)] = tags
    else:
        targets = np.array([model.label_space.index(q.gold_relation) for q in questions])
    batch = (ids, mask, targets)
    _, grads = model.loss_and_grads(batch)
    grads = {name: g.copy() for name, g in grads.items()}
    worst = (0.0, "")
    for name, values in model.trainable_params().items():
        flat, grad = values.reshape(-1), grads[name].reshape(-1)
        scale = max(float(np.abs(grad).max()), 1e-8)
        picks = {*np.argsort(-np.abs(grad))[:2].tolist(), *rng.integers(0, flat.size, 2).tolist()}
        for i in picks:
            original = flat[i]
            flat[i] = original + h
            up = model.loss(batch)
            flat[i] = original - h
            down = model.loss(batch)
            flat[i] = original
            worst = max(worst, (abs((up - down) / (2 * h) - grad[i]) / scale, name))
    return worst


class StepClock:
    """The optimizer handed to train(): steps the real one, stamps the end of each update."""

    def __init__(self, inner):
        self.inner = inner
        self.stamps = []

    def step(self, params, grads):
        self.inner.step(params, grads)
        self.stamps.append(now())


class AskRun(Run):
    """Paper-size models answering one question at a time (closed loop, one caller)."""

    def setup(self):
        from kbqa import index, model_io

        entity_index, reach_index = index.load_indexes(self.path(common.INDEX))
        return {
            "entity_index": entity_index,
            "reach_index": reach_index,
            "entity_model": model_io.load_model(self.path(common.ASK_ENTITY_MODEL)),
            "relation_model": model_io.load_model(self.path(common.ASK_RELATION_MODEL)),
        }

    def warm_up(self):
        # the question text is what a caller passes to `qa ask --question`
        with open(self.path(common.TEST_QUESTIONS), encoding="utf-8") as fh:
            self.questions = [line.rstrip("\n").split("\t")[3] for line in fh]
        self.next = 0
        self.answers = {}  # question position -> (query, answer)
        self.blocks = []  # (seconds, traced)
        self.round(traced=False)
        self.units.clear()
        self.blocks.clear()
        self.attempted = self.failed = 0
        self.errors.clear()

    def round(self, traced):
        from kbqa import pipeline

        s = self.state
        block_start = now()
        for _ in range(ASK_BLOCK):
            pos = self.next % len(self.questions)
            self.next += 1
            start = now()
            try:
                query = pipeline.build_structured_query(
                    s["entity_model"], s["relation_model"], self.questions[pos])
                result = pipeline.answer(query, s["entity_index"], s["reach_index"],
                                         common.CANDIDATE_CAP)
            except op_errors() as exc:
                self.fail(exc)
                continue
            self.units.append((now() - start, traced))
            self.answers.setdefault(pos, (query, result))
        self.blocks.append((now() - block_start, traced))
        self.attempted += ASK_BLOCK

    def items_per_s(self):
        return median([ASK_BLOCK / s for s, t in self.blocks if not t])

    def info(self):
        queries = [q for q, _ in self.answers.values()]
        return {"questions": len(queries),
                "degraded_share": sum(q.degraded for q in queries) / len(queries),
                "distinct_relations": len({q.relation for q in queries})}

    def checks(self):
        oracle = RetrievalOracle(self.path(common.ALIASES), self.path(common.FACTS),
                                 [q.entity_phrase for q, _ in self.answers.values()])
        for pos, (query, result) in sorted(self.answers.items()):
            expected = oracle.answer(query.entity_phrase, query.relation, common.CANDIDATE_CAP)
            where = f"ask question {pos} {self.questions[pos]!r}"
            if expected is None:
                check(result is None, f"{where}: program answered, oracle has no answer")
                continue
            check(result is not None, f"{where}: oracle answers {expected}, program has none")
            fact = result.supporting_fact
            check((fact.subject, fact.relation, fact.object) == expected[:3],
                  f"{where}: program fact {fact} != oracle {expected[:3]}")
            check(abs(result.score - expected[3]) <= 1e-12,
                  f"{where}: score {result.score!r} != oracle {expected[3]!r}")
        self.index_mb = file_mb(self.path(common.INDEX))
        self.model_mb = file_mb(self.path(common.ASK_ENTITY_MODEL),
                                self.path(common.ASK_RELATION_MODEL))
        self.artifact_mb = self.index_mb + self.model_mb


class EvalRun(Run):
    """evaluate() on fixed blocks, with the ED, RP and pipeline rows `qa eval` asks for."""

    def setup(self):
        from kbqa import corpus, index, model_io

        kb = corpus.load_facts(self.path(common.FACTS), self.path(common.ALIASES))
        questions = corpus.load_questions(self.path(common.TEST_QUESTIONS), kb)
        built = (index.build_entity_index(kb), index.build_reach_index(kb))
        index.save_indexes(*built, self.path(common.INDEX))
        entity_index, reach_index = index.load_indexes(self.path(common.INDEX))
        return {
            "questions": questions,
            "built": built,
            "entity_index": entity_index,
            "reach_index": reach_index,
            "entity_model": model_io.load_model(self.path(common.EVAL_ENTITY_MODEL)),
            "relation_model": model_io.load_model(self.path(common.EVAL_RELATION_MODEL)),
        }

    def warm_up(self):
        questions = self.state["questions"]
        self.block_list = [questions[i : i + EVAL_BLOCK]
                           for i in range(0, len(questions) - EVAL_BLOCK + 1, EVAL_BLOCK)]
        self.next = 0
        self.reports = {}  # block position -> report
        self.round(traced=False)
        self.units.clear()
        self.attempted = self.failed = 0
        self.errors.clear()

    def round(self, traced):
        from kbqa import evaluation

        s = self.state
        pos = self.next % len(self.block_list)
        self.next += 1
        em, rm = s["entity_model"], s["relation_model"]
        self.attempted += EVAL_BLOCK
        start = now()
        try:
            report = evaluation.evaluate(
                self.block_list[pos], s["entity_index"],
                entity_models={em.descriptor.kind: em},
                relation_models={rm.descriptor.kind: rm},
                pipelines={"pipeline": (em, rm)},
                k=common.CANDIDATE_CAP,
            )
        except op_errors() as exc:
            self.fail(exc, EVAL_BLOCK)
            return
        self.units.append((now() - start, traced))
        self.reports.setdefault(pos, report)

    def items_per_s(self):
        return EVAL_BLOCK / median([s for s, t in self.units if not t])

    def checks(self):
        from kbqa import pipeline

        s = self.state
        check(s["built"] == (s["entity_index"], s["reach_index"]),
              "the loaded index differs from the built one")
        checked = sorted(self.reports)[:EVAL_CHECKED_BLOCKS]
        queries = {}
        for pos in checked:
            for q in self.block_list[pos]:
                queries[q] = pipeline.build_structured_query(
                    s["entity_model"], s["relation_model"], q.text)
        oracle = RetrievalOracle(self.path(common.ALIASES), self.path(common.FACTS),
                                 [query.entity_phrase for query in queries.values()])
        for pos in checked:
            rows = {row.name: row for row in self.reports[pos].rows}
            correct = 0
            for q in self.block_list[pos]:
                query = queries[q]
                top = oracle.candidates(query.entity_phrase, common.CANDIDATE_CAP)
                correct += int(query.relation == q.gold_relation and bool(top)
                               and top[0][0] == q.gold_subject)
            e2e = rows["pipeline"].end_to_end_accuracy
            rp = rows[s["relation_model"].descriptor.kind].rp_accuracy
            check(e2e == correct / len(self.block_list[pos]),
                  f"eval block {pos}: end-to-end {e2e} != oracle share {correct}/{EVAL_BLOCK}")
            check(e2e <= rp, f"eval block {pos}: end-to-end {e2e} above RP accuracy {rp}")
        self.index_mb = file_mb(self.path(common.INDEX))
        self.model_mb = file_mb(self.path(common.EVAL_ENTITY_MODEL),
                                self.path(common.EVAL_RELATION_MODEL))
        self.artifact_mb = self.index_mb + self.model_mb


RUNS = {"train": TrainRun, "ask": AskRun, "eval": EvalRun}


LAYER_KINDS = ("embedding", "conv", "lstm", "gru", "dense")


def end_to_end_metrics(run, setup_s: float, peak_rss_mb: float) -> dict:
    p50, p90 = run.latency(traced=False)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (run.items_per_s(), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "artifact_mb": (run.artifact_mb, "MB"),
    }


def per_layer_metrics(run, tracer, probe: float) -> dict:
    spans = tracer.spans
    loop = [spans[i] for first, last in run.unit_spans for i in range(first, last)]

    def per_setup_s(*names):
        """Median over set-up repeats of the time spent in the named spans."""
        sums = [sum((e - s for n, s, e, _ in spans[first:last] if n in names), 0.0)
                for first, last in run.setup_spans]
        return median(sums)

    def calls(name):
        return sum(1 for n, *_ in loop if n == name)

    def per_op(name):
        return calls(name) / run.traced_ops

    def median_ms(name):
        times = [e - s for n, s, e, _ in loop if n == name]
        return 1000 * median(times) if times else 0.0

    traced_p50, _ = run.latency(traced=True)
    untraced_p50, _ = run.latency(traced=False)
    m = {
        "corpus.load_facts_s": (per_setup_s("corpus.load_facts"), "s"),
        "corpus.load_questions_s": (per_setup_s("corpus.load_questions"), "s"),
        "textproc.pos_filter_ms": (median_ms("textproc.pos_tag")
                                   + median_ms("textproc.noun_chunk_filter"), "ms"),
        "textproc.pos_filter_calls_per_op": (per_op("textproc.noun_chunk_filter"), "count"),
        "index.build_s": (per_setup_s("index.build"), "s"),
        "index.save_s": (per_setup_s("index.save"), "s"),
        "index.load_s": (per_setup_s("index.load"), "s"),
        "index.query_ms": (median_ms("index.query"), "ms"),
        "index.postings_scanned": (float(np.mean(tracer.postings_scanned))
                                   if tracer.postings_scanned else 0.0, "count"),
        "index.reach_ms": (median_ms("index.reach"), "ms"),
        "index.file_mb": (getattr(run, "index_mb", 0.0), "MB"),
        "model_io.load_s": (per_setup_s("model_io.load"), "s"),
        "model_io.save_s": (sum((e - s for n, s, e, _ in spans if n == "model_io.save"), 0.0), "s"),
        "model_io.file_mb": (run.model_mb, "MB"),
    }
    for kind in LAYER_KINDS:
        for direction in ("fwd", "bwd"):
            name = f"layers.{kind}.{direction}"
            m[f"{name}_ms"] = (median_ms(name), "ms")
            m[f"{name}_calls_per_op"] = (per_op(name), "count")
    m["layers.dropout.ms"] = (median_ms("layers.dropout"), "ms")
    m["layers.dropout.calls_per_op"] = (per_op("layers.dropout"), "count")
    m["optim.step_ms"] = (median_ms("optim.step"), "ms")
    m["optim.step_calls_per_op"] = (per_op("optim.step"), "count")
    m["models.loss_and_grads_ms"] = (median_ms("models.loss_and_grads"), "ms")
    m["models.predict_ms"] = (median_ms("models.predict"), "ms")
    m["models.predict_calls_per_op"] = (per_op("models.predict"), "count")
    epochs = getattr(run, "epochs", {})
    m["models.valid_s"] = (
        median([v for k in epochs for _, t, v in epochs[k] if t]) if epochs else 0.0, "s")
    for kind in TRAIN_KINDS:
        m[f"models.{kind}.epoch_s"] = (run.epoch_s(kind, traced=True) if epochs else 0.0, "s")
    m["pipeline.query_ms"] = (median_ms("pipeline.query"), "ms")
    m["pipeline.answer_ms"] = (median_ms("pipeline.answer"), "ms")
    evaluated = calls("evaluation.evaluate") * EVAL_BLOCK
    m["evaluation.forward_passes_per_question"] = (
        calls("models.predict") / evaluated if evaluated else 0.0, "count")
    m["host.probe_ms"] = (probe, "ms")
    m["trace.overhead_pct"] = (100 * (traced_p50 / untraced_p50 - 1), "%")
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here as JSONL")
    args = parser.parse_args()
    common.use_checkout_sources()

    tracer = Tracer() if args.trace else None
    run = RUNS[args.workload](args.seed, args.dir, tracer)
    if tracer:
        tracer.install()
    setup_s = run.run_setups()
    if tracer:
        tracer.uninstall()
    run.timed_loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.install()
    correct = True
    try:
        run.checks()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", flush=True)
        correct = False
    if tracer:
        tracer.uninstall()
    run.probes.extend(probe_ms() for _ in range(5))
    if run.errors:
        print(json.dumps({"failed_operations": run.errors}), flush=True)
    if run.all_failed():
        print("every operation failed: nothing to measure", flush=True)
        correct = False
    print(json.dumps({args.workload: run.info()}), flush=True)
    probe_q1, probe, probe_q3 = quantiles(run.probes, n=4, method="inclusive")
    print(json.dumps({"host": {
        "probe_ms": probe,
        "probe_ms_q1": probe_q1,
        "probe_ms_q3": probe_q3,
        "cores": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }}), flush=True)
    if not correct:
        metrics = {}
    elif tracer:
        metrics = per_layer_metrics(run, tracer, probe)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = end_to_end_metrics(run, setup_s, peak_rss_mb)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

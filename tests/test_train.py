import numpy as np
import pytest

from kbqa.corpus import random_embedding_table
from kbqa.models import (
    RelationLabelSpace,
    build_model,
    default_descriptor,
    predict_relation,
    train,
)
from kbqa.neural.config import TrainConfig
from kbqa.neural.optim import OPTIMIZER_KINDS, make_optimizer

from corpora import entity_template_corpus, trigger_relation_corpus
from oracles import PerViewOptimizer


@pytest.fixture(scope="module")
def corpus():
    return trigger_relation_corpus(80, seed=7)


@pytest.fixture(scope="module")
def embeddings(corpus):
    return random_embedding_table([t for q in corpus for t in q.tokens], 12, seed=3)


def fresh_model(corpus, embeddings, kind="CONV_GRU", seed=5):
    labels = RelationLabelSpace.from_questions(corpus)
    vocab = [t for q in corpus for t in q.tokens]
    desc = default_descriptor("RELATION", kind, desk_scale=40)
    return build_model(desc, embeddings, labels, vocab_tokens=vocab, max_len=36, seed=seed)


def accuracy(model, questions):
    return sum(
        predict_relation(model, list(q.tokens))[0] == q.gold_relation for q in questions
    ) / len(questions)


class TestTrainBasics:
    def test_zero_epochs_is_identity(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings)
        before = {k: v.copy() for k, v in model.all_params().items()}
        log = train(
            model, corpus, TrainConfig(epochs=0), make_optimizer("SGD", 0.1)
        )
        assert log == []
        for name, arr in model.all_params().items():
            assert np.array_equal(arr, before[name]), name

    def test_same_seed_identical_logs_and_params(self, corpus, embeddings):
        results = []
        for _ in range(2):
            model = fresh_model(corpus, embeddings)
            log = train(
                model,
                corpus[:60],
                TrainConfig(epochs=3, batch_size=16, seed=11),
                make_optimizer("ADAM_COUPLED", 0.0007),
                valid_set=corpus[60:],
            )
            results.append((log, {k: v.copy() for k, v in model.all_params().items()}))
        (log1, params1), (log2, params2) = results
        assert log1 == log2
        for name in params1:
            assert np.array_equal(params1[name], params2[name]), name

    def test_trigger_corpus_learnable(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings, kind="CONV_GRU", seed=5)
        opt = make_optimizer("ADAM_COUPLED", 0.003)
        acc = 0.0
        for chunk in range(8):
            train(model, corpus, TrainConfig(epochs=10, batch_size=16, seed=5 + chunk), opt)
            acc = accuracy(model, corpus)
            if acc == 1.0:
                break
        assert acc == 1.0

    def test_log_contains_loss_and_validation(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings)
        log = train(
            model,
            corpus[:60],
            TrainConfig(epochs=2, batch_size=16, seed=1),
            make_optimizer("ADAM_COUPLED", 0.001),
            valid_set=corpus[60:],
        )
        assert [s.epoch for s in log] == [0, 1]
        assert all(np.isfinite(s.train_loss) for s in log)
        assert all(0.0 <= s.valid_accuracy <= 1.0 for s in log)

    def test_no_validation_reports_nan(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings)
        log = train(
            model,
            corpus,
            TrainConfig(epochs=1, batch_size=16, seed=1),
            make_optimizer("ADAM_COUPLED", 0.001),
        )
        assert np.isnan(log[0].valid_accuracy)

    def test_best_validation_params_retained(self, corpus, embeddings):
        """Parameters must come from the epoch with the best validation
        accuracy, not the last one."""
        model = fresh_model(corpus, embeddings)
        opt = make_optimizer("ADAM_COUPLED", 0.0007)
        log = train(
            model,
            corpus[:60],
            TrainConfig(epochs=12, batch_size=16, seed=2),
            opt,
            valid_set=corpus[60:],
        )
        best = max(s.valid_accuracy for s in log)
        assert accuracy(model, corpus[60:]) == pytest.approx(best)

    def test_empty_training_set(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings)
        with pytest.raises(ValueError):
            train(model, [], TrainConfig(epochs=1), make_optimizer("SGD", 0.1))

    def test_unknown_label_rejected(self, corpus, embeddings):
        model = fresh_model(corpus, embeddings)
        rogue = corpus[0].__class__(
            "weird", ("weird",), "e1", "unknownRel", (1,)
        )
        with pytest.raises(ValueError):
            train(model, [rogue], TrainConfig(epochs=1), make_optimizer("SGD", 0.1))

    def test_l1_activity_penalty_raises_training_loss(self, corpus, embeddings):
        losses = {}
        for l1 in (0.0, 0.1):
            model = fresh_model(corpus, embeddings)
            log = train(
                model,
                corpus[:40],
                TrainConfig(epochs=1, batch_size=8, seed=4, l1_activity=l1),
                make_optimizer("SGD", 1e-6),  # tiny step: same activations
            )
            losses[l1] = log[0].train_loss
        assert losses[0.1] > losses[0.0]


class TestDescentProperty:
    @pytest.mark.parametrize("kind", ["BILSTM2", "NT_BILSTM1", "BIGRU2", "CONV_GRU"])
    def test_loss_non_increasing_on_fixed_example(self, kind):
        """With dropout 0, l1 0, and a small SGD step, per-step loss on one
        fixed example never increases over 50 steps."""
        from kbqa.gradsuite import build_check_model, suite_architectures

        desc = next(d for d in suite_architectures() if d.kind == kind)
        model, batch = build_check_model(desc, seed=1)
        model.l1_activity = 0.0
        opt = make_optimizer("SGD", 0.01)
        losses = [model.loss(batch)]
        for _ in range(50):
            model.loss_and_grads(batch)
            opt.step(model.theta[-model.grad.size :], model.grad)
            losses.append(model.loss(batch))
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12


class TestFlatStep:
    @pytest.mark.parametrize("freeze", [True, False])
    @pytest.mark.parametrize("optimizer", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("task, kind", [("ENTITY", "BILSTM2"), ("ENTITY", "NT_BILSTM1"),
                                            ("RELATION", "BIGRU2"), ("RELATION", "CONV_GRU")])
    def test_flat_step_matches_the_per_view_reference(self, task, kind, optimizer, freeze):
        """Stepping theta's trainable suffix whole writes the same theta and
        epoch logs, to the byte, as stepping its named views one by one."""
        questions, _ = entity_template_corpus(50, seed=11, n_names=10)
        vocab = [t for q in questions for t in q.tokens]
        embeddings = random_embedding_table(vocab, 12, seed=3)
        labels = RelationLabelSpace.from_questions(questions) if task == "RELATION" else None
        desc = default_descriptor(task, kind, desk_scale=25)
        config = TrainConfig(epochs=2, batch_size=8, l1_activity=0.01, seed=4,
                             freeze_embeddings=freeze)
        decay = {} if optimizer == "SGD" else {"weight_decay": 0.01}
        runs = []
        for per_view in (False, True):
            model = build_model(desc, embeddings, labels, vocab_tokens=vocab, seed=5)
            start = model.theta.copy()
            opt = (PerViewOptimizer(model, optimizer, 0.01, **decay) if per_view
                   else make_optimizer(optimizer, 0.01, **decay))
            log = train(model, questions[:40], config, opt, valid_set=questions[40:])
            moved = model.theta != start
            n_embedding = model.embedding.params["E"].size
            assert moved[n_embedding:].any() and moved[:n_embedding].any() != freeze
            runs.append((log, model.theta.tobytes()))
        assert runs[0] == runs[1]

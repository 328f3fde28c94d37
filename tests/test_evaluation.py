import math

import numpy as np
import pytest

from kbqa.corpus import AnnotatedQuestion, Fact, KnowledgeBase, random_embedding_table
from kbqa.evaluation import (
    basin_hop_tune,
    benchmark_training,
    evaluate,
    question_correct,
)
from kbqa.index import build_entity_index
from kbqa.models import (
    ArchitectureDescriptor,
    NeuralSequenceModel,
    RelationLabelSpace,
    build_model,
    default_descriptor,
    train,
)
from kbqa.neural import TrainConfig, make_optimizer
from kbqa.pipeline import StructuredQuery

from corpora import entity_template_corpus, trigger_relation_corpus
from oracles import evaluate_reference


def kb_of(aliases, facts=()):
    return KnowledgeBase.from_facts((Fact(*f) for f in facts), aliases)


TOY_KB = kb_of(
    {"e1": ("tom hanks",), "e2": ("tom cruise",)},
    facts=[("e1", "bornOn", "1956"), ("e2", "bornOn", "1962")],
)
GOLD = AnnotatedQuestion(
    "How old is Tom Hanks?",
    ("how", "old", "is", "tom", "hanks"),
    "e1",
    "bornOn",
    (0, 0, 0, 1, 1),
)


class TestQuestionCorrect:
    """Exhaustive enumeration of the four entity/relation match combinations."""

    @pytest.mark.parametrize(
        "phrase,relation,expected",
        [
            (("tom", "hanks"), "bornOn", True),   # both correct
            (("tom", "hanks"), "diedOn", False),  # entity right, relation wrong
            (("tom", "cruise"), "bornOn", False), # entity wrong, relation right
            (("tom", "cruise"), "diedOn", False), # both wrong
        ],
    )
    def test_match_combinations(self, phrase, relation, expected):
        idx = build_entity_index(TOY_KB)
        query = StructuredQuery(phrase, relation)
        assert question_correct(query, GOLD, idx) is expected

    def test_no_candidates_is_false(self):
        idx = build_entity_index(TOY_KB)
        assert not question_correct(StructuredQuery(("zzz",), "bornOn"), GOLD, idx)

    def test_gold_ranked_second_is_false(self):
        kb = kb_of({"e1": ("tom hanks",), "e0": ("tom hanks jr",)})
        idx = build_entity_index(kb)
        # "tom hanks jr" phrase: e0 matches the full trigram, e1 only parts
        query = StructuredQuery(("tom", "hanks", "jr"), "bornOn")
        gold = AnnotatedQuestion("q", ("tom", "hanks", "jr"), "e1", "bornOn", (1, 1, 1))
        assert not question_correct(query, gold, idx)

    def test_pure_and_repeatable(self):
        idx = build_entity_index(TOY_KB)
        query = StructuredQuery(("tom", "hanks"), "bornOn")
        assert question_correct(query, GOLD, idx) == question_correct(query, GOLD, idx)


class TestEvaluate:
    def test_empty_dataset_is_error(self):
        with pytest.raises(ValueError):
            evaluate([], build_entity_index(TOY_KB))

    def test_majority_rp_accuracy_is_frequency(self):
        labels = RelationLabelSpace(("a", "b"))
        def q(rel):
            return AnnotatedQuestion("x", ("x",), "e1", rel, (1,))
        data = [q("a"), q("a"), q("a"), q("b")]
        model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        model.fit(data)
        report = evaluate(data, relation_models={"MAJORITY": model})
        assert report.rows[0].rp_accuracy == 0.75

    def test_naive_all_entity_accuracy_is_all_ones_fraction(self):
        data = [
            AnnotatedQuestion("a b", ("a", "b"), "e", "r", (1, 1)),
            AnnotatedQuestion("a b", ("a", "b"), "e", "r", (0, 1)),
            AnnotatedQuestion("c", ("c",), "e", "r", (1,)),
        ]
        model = build_model(ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None)
        report = evaluate(data, entity_models={"NAIVE": model})
        assert report.rows[0].ed_question_accuracy == pytest.approx(2 / 3)

    def test_perfect_oracle_models_score_one(self):
        class PerfectEntity:
            descriptor = ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY")
            def predict_token_tags(self, tokens):
                return [1 if t in ("tom", "hanks") else 0 for t in tokens]

        labels = RelationLabelSpace(("bornOn",))
        rm = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        rm.counts = np.array([1.0])
        report = evaluate(
            [GOLD],
            build_entity_index(TOY_KB),
            entity_models={"oracle-ed": PerfectEntity()},
            relation_models={"oracle-rp": rm},
            pipelines={"pipeline": (PerfectEntity(), rm)},
        )
        by_name = {r.name: r for r in report.rows}
        assert by_name["oracle-ed"].ed_question_accuracy == 1.0
        assert by_name["oracle-ed"].ed_token_accuracy == 1.0
        assert by_name["oracle-rp"].rp_accuracy == 1.0
        assert by_name["pipeline"].end_to_end_accuracy == 1.0

    def test_question_correct_implies_all_tokens_correct(self):
        model = build_model(ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None)
        data = [
            AnnotatedQuestion("a b", ("a", "b"), "e", "r", (1, 1)),
            AnnotatedQuestion("c d", ("c", "d"), "e", "r", (0, 1)),
        ]
        report = evaluate(data, entity_models={"NAIVE": model})
        row = report.rows[0]
        assert row.ed_question_accuracy == 0.5
        assert row.ed_token_accuracy == 0.75

    def test_report_formats(self):
        model = build_model(ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None)
        data = [AnnotatedQuestion("a", ("a",), "e", "r", (1,))]
        report = evaluate(data, entity_models={"NAIVE": model})
        text = report.to_text()
        tsv = report.to_tsv()
        assert "Classifier" in text and "NAIVE" in text and "N/A" in text
        header = tsv.splitlines()[0].split("\t")
        assert header == [
            "classifier",
            "ed_question_accuracy",
            "ed_token_accuracy",
            "rp_accuracy",
            "end_to_end_accuracy",
        ]


def trained_pair(entity_kind, relation_kind, questions, relation_noun_filter=False):
    """A seeded desk-scale (entity, relation) model pair, trained 6 epochs."""
    labels = RelationLabelSpace.from_questions(questions)
    vocab = [t for q in questions for t in q.tokens]
    embeddings = random_embedding_table(vocab, 12, seed=5)
    models = []
    for task, kind, noun_filter in (
        ("ENTITY", entity_kind, None),
        ("RELATION", relation_kind, relation_noun_filter),
    ):
        desc = default_descriptor(task, kind, desk_scale=25, noun_filter=noun_filter)
        model = build_model(desc, embeddings, labels, vocab_tokens=vocab, seed=3)
        config = TrainConfig(epochs=6, batch_size=8, seed=3)
        train(model, questions, config, make_optimizer("ADAM_COUPLED", 0.01))
        models.append(model)
    return tuple(models)


class TestOneQuestionPass:
    """evaluate() runs each model once per question and reports exactly
    what the three-loop reference reports."""

    @pytest.mark.parametrize(
        "entity_kind,relation_kind,noun_filter",
        [("BILSTM2", "BIGRU2", False), ("NT_BILSTM1", "CONV_GRU", True)],
    )
    def test_reports_match_reference(self, entity_kind, relation_kind, noun_filter):
        questions, kb = entity_template_corpus(60, seed=5, n_names=12)
        em, rm = trained_pair(entity_kind, relation_kind, questions, noun_filter)
        assert rm.descriptor.noun_filter is noun_filter
        args = (questions, build_entity_index(kb))
        kwargs = dict(
            entity_models={"ED": em},
            relation_models={"RP": rm},
            pipelines={"pipeline": (em, rm)},
            k=5,
        )
        got = evaluate(*args, **kwargs)
        want = evaluate_reference(*args, **kwargs)
        assert got.to_text() == want.to_text()
        assert got.to_tsv() == want.to_tsv()

    def test_two_forward_passes_per_question(self, monkeypatch):
        """Each question is in one forward pass of each model, and each model
        runs once per block of at most 50 questions."""
        questions, kb = entity_template_corpus(120, seed=6, n_names=8)
        em, rm = trained_pair("NT_BILSTM1", "BIGRU2", questions[:20])
        calls = []
        original = NeuralSequenceModel.predict_probs

        def counted(self, token_seqs):
            calls.append((self, len(token_seqs)))
            return original(self, token_seqs)

        monkeypatch.setattr(NeuralSequenceModel, "predict_probs", counted)
        for n in (20, 120):
            calls.clear()
            evaluate(
                questions[:n],
                build_entity_index(kb),
                entity_models={"ED": em},
                relation_models={"RP": rm},
                pipelines={"pipeline": (em, rm)},
            )
            for model in (em, rm):
                sizes = [size for caller, size in calls if caller is model]
                assert len(sizes) == math.ceil(n / 50)
                assert sum(sizes) == n
            assert len(calls) == 2 * math.ceil(n / 50)


class TestBasinHopTune:
    def test_budget_zero_returns_midpoint_unevaluated(self):
        space = {"lr": [0.1, 0.2, 0.3], "h": [1, 2]}
        calls = []
        best, trace = basin_hop_tune(space, lambda c: calls.append(c) or 0.0, 0, seed=1)
        assert best == {"lr": 0.2, "h": 2}
        assert trace == [] and calls == []

    def test_convex_grid_finds_optimum(self):
        grid = [0, 1, 2, 3, 4]
        space = {"x": grid, "y": grid}
        def objective(cfg):
            return -((cfg["x"] - 3) ** 2) - (cfg["y"] - 1) ** 2
        best, trace = basin_hop_tune(space, objective, budget=25, seed=0)
        # exhaustive oracle over the grid
        want = max(
            ({"x": x, "y": y} for x in grid for y in grid),
            key=lambda c: objective(c),
        )
        assert best == want
        assert len(trace) <= 25

    def test_same_seed_same_trace(self):
        space = {"x": [0, 1, 2], "y": [0, 1, 2]}
        rng = np.random.default_rng(5)
        noise = {(x, y): rng.normal() for x in range(3) for y in range(3)}
        objective = lambda c: noise[(c["x"], c["y"])]
        t1 = basin_hop_tune(space, objective, 9, seed=3)
        t2 = basin_hop_tune(space, objective, 9, seed=3)
        assert t1 == t2

    def test_never_leaves_space(self):
        space = {"x": [1, 2], "y": [10, 20, 30]}
        best, trace = basin_hop_tune(
            space, lambda c: c["x"] * c["y"], budget=30, seed=2
        )
        for cfg, _ in trace:
            assert cfg["x"] in space["x"] and cfg["y"] in space["y"]
        assert best["x"] in space["x"] and best["y"] in space["y"]

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            basin_hop_tune({"x": [1]}, lambda c: 0.0, -1, seed=0)


class TestBenchmark:
    def test_param_counts_and_timing(self):
        corpus = trigger_relation_corpus(24, seed=7)
        labels = RelationLabelSpace.from_questions(corpus)
        embeddings = random_embedding_table(
            [t for q in corpus for t in q.tokens], 12, seed=3
        )
        descriptors = [
            default_descriptor("RELATION", "CONV_GRU", desk_scale=25),
            default_descriptor("RELATION", "BIGRU2", desk_scale=25),
        ]
        report = benchmark_training(
            descriptors,
            corpus,
            TrainConfig(epochs=1, batch_size=8, seed=1),
            embeddings,
            labels,
            lambda: make_optimizer("ADAM_COUPLED", 0.001),
        )
        rows = {r.name: r for r in report.rows}
        assert rows["CONV_GRU"].trainable_params < rows["BIGRU2"].trainable_params
        assert all(r.seconds_per_epoch > 0 for r in report.rows)
        assert report.conv_vs_bigru2_time_ratio is not None
        assert "about 40%" in report.to_text()

    def test_conv_gru_fewer_params_at_matched_hidden(self):
        """The conv model's GRU width matches BIGRU2's second layer (the
        conv replaced the first); its parameter count must be strictly
        smaller at every desk scale."""
        corpus = trigger_relation_corpus(8, seed=7)
        labels = RelationLabelSpace.from_questions(corpus)
        embeddings = random_embedding_table(
            [t for q in corpus for t in q.tokens], 16, seed=3
        )
        vocab = [t for q in corpus for t in q.tokens]
        for desk in (1, 8, 25):
            conv = build_model(
                default_descriptor("RELATION", "CONV_GRU", desk_scale=desk),
                embeddings, labels, vocab_tokens=vocab, seed=0,
            )
            gru2 = build_model(
                default_descriptor("RELATION", "BIGRU2", desk_scale=desk),
                embeddings, labels, vocab_tokens=vocab, seed=0,
            )
            assert conv.descriptor.hidden_sizes[0] == gru2.descriptor.hidden_sizes[1]
            assert conv.trainable_param_count() < gru2.trainable_param_count()

    def test_needs_two_descriptors(self):
        with pytest.raises(ValueError):
            benchmark_training(
                [default_descriptor("RELATION", "BIGRU2")],
                [],
                TrainConfig(epochs=1),
                None,
                None,
                lambda: make_optimizer("SGD", 0.1),
            )

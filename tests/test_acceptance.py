"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS line (failures raise, so a printed line means pass).
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from collections import Counter

import numpy as np

from kbqa.cli import main as cli_main
from kbqa.corpus import AnnotatedQuestion, random_embedding_table, split_dataset
from kbqa.evaluation import benchmark_training, evaluate, question_correct
from kbqa.gradsuite import run_gradcheck_suite
from kbqa.index import build_entity_index, build_reach_index, query_entity_index
from kbqa.models import (
    ArchitectureDescriptor,
    RelationLabelSpace,
    build_model,
    default_descriptor,
    predict_relation,
    predict_tags,
    train,
)
from kbqa.neural import TrainConfig, make_optimizer
from kbqa.pipeline import StructuredQuery, answer

from corpora import entity_template_corpus, trigger_relation_corpus
from oracles import brute_answer, brute_rank, named_candidates, random_kb, random_phrase
from conftest import TOY_ALIASES, TOY_FACTS, TOY_QUESTIONS


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def test_criterion_1_gradient_suite():
    """grad_check < 1e-4 (central differences, h=1e-5) for all four
    architectures at d=8, H=6, T=5; under 60 s."""
    started = time.perf_counter()
    reports = run_gradcheck_suite(seed=0, h=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - started
    kinds = [kind for kind, _ in reports]
    assert kinds == ["BILSTM2", "NT_BILSTM1", "BIGRU2", "CONV_GRU"]
    worst = 0.0
    for kind, rep in reports:
        assert rep.passed, f"{kind} failed: {rep}"
        worst = max(worst, rep.max_relative_error)
    assert elapsed < 60.0
    report("1 gradient-suite", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_index_oracle():
    """query_entity_index and answer agree exactly with brute force on 200
    random KBs (<=100 aliases, <=300 facts); under 60 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    answers_checked = 0
    for _ in range(200):
        kb = random_kb(rng, max_aliases=100, max_facts=300)
        entity_idx = build_entity_index(kb)
        reach_idx = build_reach_index(kb)
        phrase = random_phrase(rng)
        relation = str(rng.choice(["bornOn", "starredIn", "wrote", "livedIn"]))

        got = named_candidates(entity_idx, query_entity_index(entity_idx, phrase, k=10))
        assert got == brute_rank(kb, phrase, 10)

        got_answer = answer(
            StructuredQuery(tuple(phrase), relation), entity_idx, reach_idx, k=10
        )
        want = brute_answer(kb, phrase, relation, k=10)
        if want is None:
            assert got_answer is None
        else:
            answers_checked += 1
            assert (
                got_answer.object,
                got_answer.supporting_fact,
                got_answer.score,
            ) == want
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        "2 index-oracle",
        f"200 KBs, {answers_checked} non-empty answers, {elapsed:.1f}s",
    )


def _relation_accuracy(model, questions):
    return sum(
        predict_relation(model, list(q.tokens))[0] == q.gold_relation
        for q in questions
    ) / len(questions)


def test_criterion_3_relation_trainability():
    """On the 4-class trigger corpus (200 examples): CONV_GRU with Adam
    lr 0.0007 reaches 100% train accuracy within 200 epochs; desk-scaled
    BIGRU2 reaches >= 95% within 300 epochs; under 10 min."""
    started = time.perf_counter()
    corpus = trigger_relation_corpus(200, seed=7)
    labels = RelationLabelSpace.from_questions(corpus)
    vocab = [t for q in corpus for t in q.tokens]
    embeddings = random_embedding_table(vocab, 16, seed=3)

    results = {}
    for kind, target, max_epochs in (("CONV_GRU", 1.0, 200), ("BIGRU2", 0.95, 300)):
        desc = default_descriptor("RELATION", kind, desk_scale=25)
        model = build_model(desc, embeddings, labels, vocab_tokens=vocab, seed=5)
        optimizer = make_optimizer("ADAM_COUPLED", 0.0007)
        epochs_used = 0
        accuracy = 0.0
        chunk = 25
        while epochs_used < max_epochs:
            config = TrainConfig(
                epochs=chunk, batch_size=16, seed=5 + epochs_used
            )
            train(model, corpus, config, optimizer)
            epochs_used += chunk
            accuracy = _relation_accuracy(model, corpus)
            if accuracy >= target:
                break
        assert accuracy >= target, f"{kind}: {accuracy:.3f} after {epochs_used} epochs"
        results[kind] = (accuracy, epochs_used)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(
        "3 relation-trainability",
        f"CONV_GRU {results['CONV_GRU'][0]:.2f}@{results['CONV_GRU'][1]}ep, "
        f"BIGRU2 {results['BIGRU2'][0]:.2f}@{results['BIGRU2'][1]}ep, {elapsed:.0f}s",
    )


def _question_accuracy(model, questions):
    return sum(
        predict_tags(model, list(q.tokens)).mapped_tags == q.gold_tags
        for q in questions
    ) / len(questions)


def test_criterion_4_tagging_trainability():
    """On the 500-question template corpus: noun-filtered NT_BILSTM1
    reaches >= 95% question-level accuracy on the held-out 20% within 300
    epochs and strictly exceeds the identically trained unfiltered model."""
    corpus, _ = entity_template_corpus(500, seed=11, n_names=50)
    split = split_dataset(corpus, (0.8, 0.0, 0.2), seed=1)
    vocab = [t for q in split.train for t in q.tokens]
    embeddings = random_embedding_table(vocab, 16, seed=3)

    best = {}
    for filtered in (True, False):
        desc = default_descriptor(
            "ENTITY", "NT_BILSTM1", desk_scale=25, noun_filter=filtered
        )
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, seed=5)
        optimizer = make_optimizer("ADAM_COUPLED", 0.002)
        best_acc = 0.0
        for chunk_index in range(6):  # 6 x 50 = 300 epochs
            config = TrainConfig(epochs=50, batch_size=20, seed=5 + chunk_index)
            train(model, split.train, config, optimizer)
            best_acc = max(best_acc, _question_accuracy(model, split.test))
        best[filtered] = best_acc
    assert best[True] >= 0.95, f"filtered best {best[True]:.3f}"
    assert best[True] > best[False], (
        f"filtered {best[True]:.3f} not above unfiltered {best[False]:.3f}"
    )
    report(
        "4 tagging-trainability",
        f"filtered {best[True]:.3f} vs unfiltered {best[False]:.3f}",
    )


def test_criterion_5_baseline_identities():
    """MAJORITY accuracy equals the most-common-class frequency exactly;
    NAIVE_ALL_ENTITY question accuracy equals the all-ones fraction
    exactly, both against independent counting oracles.  The full-corpus
    4.1%/58.9% targets need the full dataset and are skipped here."""
    corpus = trigger_relation_corpus(199, seed=13)  # uneven class counts
    labels = RelationLabelSpace.from_questions(corpus)
    majority = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
    train(majority, corpus, TrainConfig(epochs=0))
    rp_report = evaluate(corpus, relation_models={"MAJORITY": majority})
    label_counts = Counter(q.gold_relation for q in corpus)  # counting oracle
    expected_rp = max(label_counts.values()) / len(corpus)
    assert rp_report.rows[0].rp_accuracy == expected_rp

    ed_corpus, _ = entity_template_corpus(120, seed=3, n_names=20)
    full_span = [
        AnnotatedQuestion(q.text, q.tokens, q.gold_subject, q.gold_relation,
                          tuple(1 for _ in q.tokens))
        for q in ed_corpus[:30]
    ]
    mixed = list(ed_corpus) + full_span
    naive = build_model(ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None)
    ed_report = evaluate(mixed, entity_models={"NAIVE_ALL_ENTITY": naive})
    all_ones = sum(1 for q in mixed if all(t == 1 for t in q.gold_tags))
    expected_ed = all_ones / len(mixed)
    assert ed_report.rows[0].ed_question_accuracy == expected_ed
    report(
        "5 baseline-identities",
        f"majority {expected_rp:.4f}, all-entity {expected_ed:.4f}, exact",
    )


def test_criterion_6_determinism(tmp_path):
    """Two train+eval CLI runs with the same seed produce byte-identical
    model files and reports."""
    facts = tmp_path / "facts.tsv"
    aliases = tmp_path / "aliases.tsv"
    questions = tmp_path / "questions.tsv"
    facts.write_text(TOY_FACTS)
    aliases.write_text(TOY_ALIASES)
    questions.write_text(TOY_QUESTIONS)
    index = tmp_path / "toy.qaidx"
    assert cli_main([
        "build-index", "--facts", str(facts), "--aliases", str(aliases),
        "--out", str(index),
    ]) == 0

    artifacts = []
    for tag in ("run1", "run2"):
        model = tmp_path / f"{tag}.qam"
        assert cli_main([
            "train",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "ENTITY", "--kind", "NT_BILSTM1",
            "--hidden", "6", "--embedding-dim", "8",
            "--epochs", "3", "--batch-size", "2",
            "--ratios", "0.7,0.1,0.2", "--seed", "13",
            "--out", str(model),
        ]) == 0
        prefix = tmp_path / f"{tag}_report"
        assert cli_main([
            "eval",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions), "--index", str(index),
            "--entity-model", str(model),
            "--ratios", "0.7,0.1,0.2", "--split", "all", "--seed", "13",
            "--report-out", str(prefix),
        ]) == 0
        artifacts.append((
            model.read_bytes(),
            (tmp_path / f"{tag}_report.txt").read_bytes(),
            (tmp_path / f"{tag}_report.tsv").read_bytes(),
        ))
    assert artifacts[0] == artifacts[1]
    report("6 determinism", "model file and both reports byte-identical")


def test_criterion_7_simplification_claim():
    """CONV_GRU has strictly fewer trainable parameters than BIGRU2 at
    matched hidden size; epoch wall-clock ratio is reported against the
    'about 40%' reference (reported, never asserted)."""
    corpus = trigger_relation_corpus(60, seed=7)
    labels = RelationLabelSpace.from_questions(corpus)
    embeddings = random_embedding_table(
        [t for q in corpus for t in q.tokens], 16, seed=3
    )
    descriptors = [
        default_descriptor("RELATION", "CONV_GRU", desk_scale=25),
        default_descriptor("RELATION", "BIGRU2", desk_scale=25),
    ]
    bench = benchmark_training(
        descriptors,
        corpus,
        TrainConfig(epochs=2, batch_size=16, seed=1),
        embeddings,
        labels,
        lambda: make_optimizer("ADAM_COUPLED", 0.001),
    )
    rows = {r.name: r for r in bench.rows}
    assert rows["CONV_GRU"].trainable_params < rows["BIGRU2"].trainable_params
    assert bench.conv_vs_bigru2_time_ratio is not None
    text = bench.to_text()
    assert "about 40%" in text
    report(
        "7 simplification",
        f"params {rows['CONV_GRU'].trainable_params} < "
        f"{rows['BIGRU2'].trainable_params}, epoch-time ratio "
        f"{bench.conv_vs_bigru2_time_ratio:.2f} vs reference about 40% reduction",
    )


def test_criterion_8_metric_conformance():
    """question_correct is true iff both the entity and the relation match:
    exhaustive over the four combinations on a toy KB."""
    from kbqa.corpus import Fact, KnowledgeBase

    kb = KnowledgeBase.from_facts(
        (Fact("e1", "bornOn", "1956"), Fact("e2", "bornOn", "1962")),
        {"e1": ("tom hanks",), "e2": ("tom cruise",)},
    )
    idx = build_entity_index(kb)
    gold = AnnotatedQuestion(
        "How old is Tom Hanks?",
        ("how", "old", "is", "tom", "hanks"),
        "e1",
        "bornOn",
        (0, 0, 0, 1, 1),
    )
    cases = [
        (("tom", "hanks"), "bornOn", True),
        (("tom", "hanks"), "diedOn", False),
        (("tom", "cruise"), "bornOn", False),
        (("tom", "cruise"), "diedOn", False),
    ]
    for phrase, relation, expected in cases:
        got = question_correct(StructuredQuery(phrase, relation), gold, idx)
        assert got is expected, (phrase, relation)
    report("8 metric-conformance", "all 4 entity/relation combinations correct")

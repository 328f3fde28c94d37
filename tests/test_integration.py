"""Full-engine integration: trained models + indexes answering real questions.

Trains the noun-filtered tagger and the conv+GRU relation classifier on
the multi-relation template corpus, builds both indexes from its KB, and
checks the complete answer path.  All seeds pinned; thresholds sit well
below the measured values (ED 0.94, RP 0.99, end-to-end 0.97) so only a
genuine regression trips them.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from kbqa.corpus import random_embedding_table, split_dataset
from kbqa.evaluation import evaluate
from kbqa.index import build_entity_index, build_reach_index
from kbqa.models import (
    RelationLabelSpace,
    build_model,
    default_descriptor,
    predict_tags,
    train,
)
from kbqa.neural.config import TrainConfig
from kbqa.neural.optim import make_optimizer
from kbqa.pipeline import answer, build_structured_query

from corpora import entity_template_corpus


@pytest.fixture(scope="module")
def engine():
    questions, kb = entity_template_corpus(500, seed=11, n_names=50)
    split = split_dataset(questions, (0.8, 0.0, 0.2), seed=1)
    vocab = [t for q in split.train for t in q.tokens]
    embeddings = random_embedding_table(vocab, 16, seed=3)
    labels = RelationLabelSpace.from_questions(split.train)

    tagger = build_model(
        default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=25),
        embeddings, None, vocab_tokens=vocab, seed=5,
    )
    opt = make_optimizer("ADAM_COUPLED", 0.002)
    for chunk in range(3):
        train(tagger, split.train, TrainConfig(epochs=50, batch_size=20, seed=5 + chunk), opt)

    relation_model = build_model(
        default_descriptor("RELATION", "CONV_GRU", desk_scale=25),
        embeddings, labels, vocab_tokens=vocab, seed=5,
    )
    opt = make_optimizer("ADAM_COUPLED", 0.002)
    for chunk in range(2):
        train(
            relation_model, split.train,
            TrainConfig(epochs=30, batch_size=20, seed=9 + chunk), opt,
        )

    return {
        "split": split,
        "kb": kb,
        "tagger": tagger,
        "relation_model": relation_model,
        "entity_index": build_entity_index(kb),
        "reach_index": build_reach_index(kb),
    }


def test_component_and_end_to_end_accuracy(engine):
    report = evaluate(
        engine["split"].test,
        engine["entity_index"],
        entity_models={"NT_BILSTM1": engine["tagger"]},
        relation_models={"CONV_GRU": engine["relation_model"]},
        pipelines={"pipeline": (engine["tagger"], engine["relation_model"])},
    )
    rows = {r.name: r for r in report.rows}
    assert rows["NT_BILSTM1"].ed_question_accuracy >= 0.85
    assert rows["NT_BILSTM1"].ed_token_accuracy >= 0.95
    assert rows["CONV_GRU"].rp_accuracy >= 0.90
    assert rows["pipeline"].end_to_end_accuracy >= 0.85


def test_answer_returns_the_gold_fact(engine):
    hits = 0
    probed = engine["split"].test[:30]
    for q in probed:
        query = build_structured_query(engine["tagger"], engine["relation_model"], q.text)
        result = answer(query, engine["entity_index"], engine["reach_index"])
        if (
            result is not None
            and result.supporting_fact.subject == q.gold_subject
            and result.supporting_fact.relation == q.gold_relation
        ):
            hits += 1
    assert hits >= 24


def test_frozen_model_predictions_are_thread_safe(engine):
    """Concurrent prediction on a frozen model matches serial prediction."""
    questions = engine["split"].test[:16]
    tagger = engine["tagger"]
    serial = [predict_tags(tagger, list(q.tokens)) for q in questions]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda q: predict_tags(tagger, list(q.tokens)), questions))
    assert threaded == serial

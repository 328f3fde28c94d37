import numpy as np
import pytest

from kbqa.corpus import Fact
from kbqa.index import build_entity_index, build_reach_index
from kbqa.models import (
    ArchitectureDescriptor,
    RelationLabelSpace,
    build_model,
)
from kbqa.pipeline import StructuredQuery, answer, build_structured_query

from corpora import from_facts
from oracles import brute_answer, random_kb, random_phrase


def kb_of(aliases, facts=()):
    return from_facts((Fact(*f) for f in facts), aliases)


class OracleEntityModel:
    """Pretends to be a perfect tagger: tags tokens present in its span set."""

    descriptor = ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY")

    def __init__(self, entity_tokens):
        self.entity_tokens = set(entity_tokens)

    def predict_probs(self, token_seqs):
        """One-hot tags, [B, T, 2]."""
        width = max(len(tokens) for tokens in token_seqs)
        return np.eye(2)[[[int(t in self.entity_tokens) for t in tokens] + [0] * (width - len(tokens))
                          for tokens in token_seqs]]


def majority_model(relation: str):
    labels = RelationLabelSpace((relation,))
    model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
    model.counts = np.array([3.0])
    return model


class TestBuildStructuredQuery:
    def test_tom_hanks_query(self):
        em = OracleEntityModel({"tom", "hanks"})
        rm = majority_model("bornOn")
        query = build_structured_query(em, rm, "How old is Tom Hanks?")
        assert query.entity_phrase == ("tom", "hanks")
        assert query.relation == "bornOn"
        assert not query.degraded

    def test_degraded_fallback_widens_phrase(self):
        em = OracleEntityModel(set())  # predicts all zeros -> fallback
        rm = majority_model("bornOn")
        query = build_structured_query(em, rm, "How old is Tom Hanks?")
        assert query.entity_phrase == ("how", "old", "is", "tom", "hanks")
        assert query.degraded

    def test_deterministic(self):
        em = OracleEntityModel({"tom", "hanks"})
        rm = majority_model("bornOn")
        q1 = build_structured_query(em, rm, "How old is Tom Hanks?")
        q2 = build_structured_query(em, rm, "How old is Tom Hanks?")
        assert q1 == q2

    def test_empty_question(self):
        em = OracleEntityModel(set())
        rm = majority_model("bornOn")
        with pytest.raises(ValueError):
            build_structured_query(em, rm, "???")


class TestAnswer:
    def test_single_fact_kb(self):
        kb = kb_of({"e1": ("tom hanks",)}, facts=[("e1", "bornOn", "1956")])
        result = answer(
            StructuredQuery(("tom", "hanks"), "bornOn"),
            build_entity_index(kb),
            build_reach_index(kb),
        )
        assert result is not None
        assert result.supporting_fact.object == "1956"
        assert result.supporting_fact == Fact("e1", "bornOn", "1956")
        assert not result.degraded

    def test_absent_relation_is_no_answer(self):
        kb = kb_of({"e1": ("tom hanks",)}, facts=[("e1", "bornOn", "1956")])
        result = answer(
            StructuredQuery(("tom", "hanks"), "wrote"),
            build_entity_index(kb),
            build_reach_index(kb),
        )
        assert result is None

    def test_relation_filters_among_tied_entities(self):
        kb = kb_of(
            {"e1": ("jo king",), "e2": ("jo queen",)},
            facts=[("e1", "starredIn", "m1"), ("e2", "bornOn", "1970")],
        )
        result = answer(
            StructuredQuery(("jo",), "bornOn"),
            build_entity_index(kb),
            build_reach_index(kb),
        )
        assert result.supporting_fact.subject == "e2"

    def test_degraded_flag_propagates(self):
        kb = kb_of({"e1": ("tom hanks",)}, facts=[("e1", "bornOn", "1956")])
        result = answer(
            StructuredQuery(("tom", "hanks"), "bornOn", degraded=True),
            build_entity_index(kb),
            build_reach_index(kb),
        )
        assert result.degraded

    def test_supporting_fact_in_kb(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            kb = random_kb(rng, max_aliases=20, max_facts=40)
            result = answer(
                StructuredQuery(tuple(random_phrase(rng)), "bornOn"),
                build_entity_index(kb),
                build_reach_index(kb),
                k=10,
            )
            if result is not None:
                assert result.supporting_fact in kb.facts

    def test_matches_brute_force_small_kbs(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(40):
            kb = random_kb(rng, max_aliases=25, max_facts=50)
            entity_idx = build_entity_index(kb)
            reach_idx = build_reach_index(kb)
            phrase = random_phrase(rng)
            relation = str(rng.choice(["bornOn", "wrote", "livedIn"]))
            got = answer(StructuredQuery(tuple(phrase), relation), entity_idx, reach_idx, k=10)
            want = brute_answer(kb, phrase, relation, k=10)
            if want is None:
                assert got is None
            else:
                checked += 1
                assert (got.supporting_fact.object, got.supporting_fact, got.score) == want
        assert checked > 5

    def test_unrelated_fact_does_not_change_answer(self):
        kb = kb_of(
            {"e1": ("tom hanks",), "e2": ("rita wilson",)},
            facts=[("e1", "bornOn", "1956")],
        )
        query = StructuredQuery(("tom", "hanks"), "bornOn")
        before = answer(query, build_entity_index(kb), build_reach_index(kb))

        bigger = kb_of(
            {"e1": ("tom hanks",), "e2": ("rita wilson",), "e9": ("zz zebra",)},
            facts=[("e1", "bornOn", "1956"), ("e9", "bornOn", "1900")],
        )
        after = answer(query, build_entity_index(bigger), build_reach_index(bigger))
        assert before.supporting_fact.object == after.supporting_fact.object
        assert before.supporting_fact == after.supporting_fact

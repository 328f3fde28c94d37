import math

import numpy as np
import pytest

from kbqa.corpus import Fact, KnowledgeBase
from kbqa.errors import IntegrityError
from kbqa.index import (
    MAX_NGRAM,
    CandidateSet,
    build_entity_index,
    build_reach_index,
    load_indexes,
    query_entity_index,
    query_reach,
    save_indexes,
)
from kbqa.textproc import ngrams

from oracles import (
    brute_answer,
    brute_rank,
    build_entity_index_reference,
    build_reach_index_reference,
    query_entity_index_reference,
    query_reach_reference,
    random_kb,
    random_phrase,
)


def kb_of(aliases: dict, facts=()) -> KnowledgeBase:
    return KnowledgeBase(tuple(Fact(*f) for f in facts), aliases)


THREE_ALIAS_KB = kb_of(
    {"e1": ("tom hanks",), "e2": ("tom cruise",), "e3": ("hanks",)}
)


def doc_freq(kb: KnowledgeBase) -> dict[str, int]:
    """The number of (entity, alias) documents each n-gram occurs in."""
    df: dict[str, int] = {}
    for aliases in kb.aliases.values():
        for alias in aliases:
            for gram in set(ngrams(alias.split(" "), MAX_NGRAM)):
                df[gram] = df.get(gram, 0) + 1
    return df


class TestBuildEntityIndex:
    def test_df_and_idf(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        assert idx.alias_count == 3
        df = doc_freq(THREE_ALIAS_KB)
        assert df["tom"] == 2
        assert df["hanks"] == 2
        weight = dict(idx.postings["tom"])["e1"]
        # alias "tom hanks" has 3 n-grams, one of them "tom"
        assert weight == pytest.approx((1 / 3) * (math.log(4 / 3) + 1), rel=1e-12)
        assert math.log(4 / 3) + 1 == pytest.approx(1.28768, abs=1e-5)

    def test_single_alias_weight_one(self):
        idx = build_entity_index(kb_of({"e1": ("a",)}))
        assert idx.postings["a"] == (("e1", 1.0),)

    def test_absent_gram_has_no_posting(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        assert "zzz" not in idx.postings

    def test_empty_kb_rejected(self):
        with pytest.raises(IntegrityError):
            build_entity_index(kb_of({}))

    def test_tf_sums_to_one_per_alias(self):
        kb = kb_of({"e1": ("new york city",), "e2": ("old york",)})
        idx = build_entity_index(kb)
        df = doc_freq(kb)
        for entity in ("e1", "e2"):
            total_tf = 0.0
            for gram, rows in idx.postings.items():
                for ent, weight in rows:
                    if ent == entity:
                        idf = math.log((1 + idx.alias_count) / (1 + df[gram])) + 1
                        total_tf += weight / idf
            assert total_tf == pytest.approx(1.0, rel=1e-12)

    def test_entity_keeps_its_best_weight_per_gram(self):
        # "york" is 1 of 3 n-grams of "old york" and 1 of 6 of "new york city"
        kb = kb_of({"e1": ("new york city", "old york"), "e2": ("york",)})
        idx = build_entity_index(kb)
        idf = math.log(4 / 4) + 1
        assert idx.postings["york"] == (("e1", (1 / 3) * idf), ("e2", 1.0 * idf))


class TestBuildsMatchReference:
    """Both builds give exactly the indexes of the dict loops in
    tests/oracles.py: equal lists, and arrays equal in dtype and bytes."""

    def check(self, kb):
        got, want = build_entity_index(kb), build_entity_index_reference(kb)
        assert (got.names, got.grams, got.alias_count) == (want.names, want.grams,
                                                           want.alias_count)
        for name in ("offsets", "entities", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        got, want = build_reach_index(kb), build_reach_index_reference(kb)
        for name in ("names", "offsets", "relation_names", "relations", "objects"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name

    def test_random_kbs(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            self.check(random_kb(rng, max_aliases=100, max_facts=300))

    def test_ngram_repeated_inside_an_alias(self):
        kb = kb_of({"e1": ("new york new york",), "e2": ("new york",), "e3": ("york",)})
        self.check(kb)
        # "new york" is 2 of the 9 n-grams of "new york new york"
        idf = math.log(4 / 3) + 1
        assert dict(build_entity_index(kb).postings["new york"])["e1"] == (2 / 9) * idf

    def test_idf_is_math_log_per_df(self):
        """20 documents and a df of 19: numpy's vectorised log rounds
        ln(21 / 20) differently from math.log on some hosts, and idf must
        be math.log's."""
        self.check(kb_of({f"e{i:02}": (f"tom x{i}",) for i in range(19)} | {"zed": ("zed",)}))

    def test_alias_shared_by_two_entities(self):
        self.check(kb_of({"e1": ("tom hanks", "tom"), "e2": ("tom hanks",)},
                         facts=[("e2", "bornOn", "1956")]))

    def test_one_token_and_long_aliases(self):
        self.check(kb_of({"e1": ("a",), "e2": ("a b c d",), "e3": ("b c d e f g", "a")}))

    def test_both_builds_share_one_names_list(self):
        """The KB sorts its entity names once, and both indexes rank by them."""
        kb = kb_of({"e2": ("tom",), "e1": ("tim",)}, facts=[("e3", "bornOn", "x")])
        names = build_entity_index(kb).names
        assert names == ["e1", "e2", "e3"]
        assert build_reach_index(kb).names is names

    def test_entity_with_aliases_but_no_facts(self):
        kb = kb_of({"e1": ("tom",), "e2": ("tim",), "e3": ("tam",)},
                   facts=[("e2", "bornOn", "x")])
        self.check(kb)
        assert build_reach_index(kb).offsets == [0, 0, 1, 1]

    def test_facts_of_an_entity_without_aliases(self):
        self.check(kb_of({"e2": ("tom",), "e1": ()},
                         facts=[("e1", "r", "x"), ("e3", "s", "y"), ("e1", "s", "z")]))

    def test_non_ascii_tokens(self):
        self.check(kb_of({"é": ("zoë ångström",), "e": ("ångström", "日本 東京 大阪 京都"),
                          "e\u0301": ("zoe\u0301", "zoë"), "a": ("\U0001f600 x",)}))

    @pytest.mark.parametrize("aliases", [{}, {"e1": ()}])
    def test_no_alias_is_an_integrity_error(self, aliases):
        kb = kb_of(aliases, facts=[("e1", "r", "x")])
        for build in (build_entity_index, build_entity_index_reference):
            with pytest.raises(IntegrityError):
                build(kb)
        assert repr(build_reach_index(kb)) == repr(build_reach_index_reference(kb))


class TestQueryEntityIndex:
    def test_bigram_match_wins(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        result = query_entity_index(idx, ["tom", "hanks"], k=3)
        assert result.candidates[0][0] == "e1"

    def test_unknown_phrase_empty(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        assert query_entity_index(idx, ["zzz"], k=5).candidates == ()

    def test_k_caps_results(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        assert len(query_entity_index(idx, ["tom"], k=1).candidates) == 1

    def test_empty_phrase(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        assert query_entity_index(idx, [], k=5).candidates == ()

    def test_bad_k(self):
        idx = build_entity_index(THREE_ALIAS_KB)
        with pytest.raises(ValueError):
            query_entity_index(idx, ["tom"], k=0)

    def test_matches_brute_force_on_random_kbs(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            kb = random_kb(rng, max_aliases=30, max_facts=60)
            idx = build_entity_index(kb)
            phrase = random_phrase(rng)
            got = query_entity_index(idx, phrase, k=10).candidates
            assert list(got) == brute_rank(kb, phrase, 10)


class TestMatchesReference:
    """The array queries give candidates and answers repr-equal to the
    loops over the postings and edges."""

    def check(self, kb, phrase, relation, k, indexes=None):
        entity_idx, reach_idx = indexes or (build_entity_index(kb), build_reach_index(kb))
        got = query_entity_index(entity_idx, phrase, k)
        want = query_entity_index_reference(entity_idx, phrase, k)
        assert repr(got) == repr(want)
        assert repr(query_reach(reach_idx, got, relation)) == repr(
            query_reach_reference(reach_idx, want, relation))
        return got.candidates

    def test_random_kbs(self):
        """The 200 KBs of acceptance criterion 2, each with its phrase, the
        phrase twice over (repeated n-grams), with an absent n-gram, alone
        absent, and its first token (a single n-gram), at k = 1, 10, 50."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            kb = random_kb(rng, max_aliases=100, max_facts=300)
            phrase = random_phrase(rng)
            relation = str(rng.choice(["bornOn", "starredIn", "wrote", "livedIn"]))
            indexes = build_entity_index(kb), build_reach_index(kb)
            for variant in (phrase, phrase + phrase, phrase + ["zzz"], ["zzz"], phrase[:1]):
                for k in (1, 10, 50):
                    self.check(kb, variant, relation, k, indexes)

    def test_repeated_ngram_counts_twice(self):
        once = dict(self.check(THREE_ALIAS_KB, ["tom"], "bornOn", 5))
        twice = dict(self.check(THREE_ALIAS_KB, ["tom", "tom"], "bornOn", 5))
        assert twice == {entity: score + score for entity, score in once.items()}

    def test_absent_ngrams_score_nothing(self):
        assert self.check(THREE_ALIAS_KB, ["zzz", "yyy"], "bornOn", 5) == ()
        assert self.check(THREE_ALIAS_KB, ["zzz", "hanks"], "bornOn", 5) == \
            self.check(THREE_ALIAS_KB, ["hanks"], "bornOn", 5)

    def test_ties_break_by_name(self):
        kb = kb_of({"e2": ("tom",), "e10": ("tom",), "e1": ("tom",)},
                   facts=[("e2", "bornOn", "x"), ("e1", "bornOn", "y"), ("e10", "bornOn", "z")])
        got = self.check(kb, ["tom"], "bornOn", 3)
        assert [entity for entity, _ in got] == ["e1", "e10", "e2"]
        assert len({score for _, score in got}) == 1
        assert self.check(kb, ["tom", "tom"], "bornOn", 1)[0][0] == "e1"


class TestReachIndex:
    def test_grouping(self):
        kb = kb_of(
            {"e1": ("tom",)},
            facts=[("e1", "bornOn", "1956"), ("e1", "starredIn", "m1")],
        )
        idx = build_reach_index(kb)
        assert idx.edges["e1"] == (("bornOn", "1956"), ("starredIn", "m1"))

    def test_empty(self):
        assert build_reach_index(kb_of({})).edges == {}

    def test_duplicates_retained(self):
        kb = kb_of(
            {"e1": ("tom",)},
            facts=[("e1", "bornOn", "1956"), ("e1", "bornOn", "1956")],
        )
        assert len(build_reach_index(kb).edges["e1"]) == 2

    def test_query_reach_single(self):
        kb = kb_of({"e1": ("tom",)}, facts=[("e1", "bornOn", "1956")])
        idx = build_reach_index(kb)
        out = query_reach(idx, CandidateSet((("e1", 2.0),), 5), "bornOn")
        assert len(out) == 1
        assert (out[0].entity, out[0].object, out[0].score) == ("e1", "1956", 2.0)

    def test_query_reach_absent_relation(self):
        kb = kb_of({"e1": ("tom",)}, facts=[("e1", "bornOn", "1956")])
        idx = build_reach_index(kb)
        assert query_reach(idx, CandidateSet((("e1", 2.0),), 5), "wrote") == []

    def test_query_reach_preserves_candidate_order(self):
        kb = kb_of(
            {"e1": ("tom",), "e2": ("tim",)},
            facts=[("e2", "bornOn", "1960"), ("e1", "bornOn", "1956")],
        )
        idx = build_reach_index(kb)
        out = query_reach(
            idx, CandidateSet((("e2", 3.0), ("e1", 1.0)), 5), "bornOn"
        )
        assert [c.entity for c in out] == ["e2", "e1"]

    def test_output_is_subset_of_kb_facts(self):
        rng = np.random.default_rng(5)
        kb = random_kb(rng, max_aliases=20, max_facts=50)
        idx = build_reach_index(kb)
        entity_idx = build_entity_index(kb)
        phrase = random_phrase(rng)
        candidates = query_entity_index(entity_idx, phrase, k=10)
        fact_set = set(kb.facts)
        for cand in query_reach(idx, candidates, "bornOn"):
            assert Fact(cand.entity, cand.relation, cand.object) in fact_set


class TestSerialization:
    def test_roundtrip_query_results(self, tmp_path):
        rng = np.random.default_rng(7)
        kb = random_kb(rng, max_aliases=40, max_facts=80)
        entity_idx = build_entity_index(kb)
        reach_idx = build_reach_index(kb)
        path = tmp_path / "kb.qaidx"
        save_indexes(entity_idx, reach_idx, str(path))
        loaded_entity, loaded_reach = load_indexes(str(path))
        assert loaded_entity.alias_count == entity_idx.alias_count
        assert loaded_reach.edges == reach_idx.edges
        for _ in range(1000):
            phrase = random_phrase(rng)
            a = query_entity_index(entity_idx, phrase, k=10)
            b = query_entity_index(loaded_entity, phrase, k=10)
            assert a == b

    def test_loaded_indexes_equal_the_built_ones(self, tmp_path):
        kb = random_kb(np.random.default_rng(11), max_aliases=40, max_facts=80)
        built = (build_entity_index(kb), build_reach_index(kb))
        save_indexes(*built, str(tmp_path / "kb.qaidx"))
        loaded = load_indexes(str(tmp_path / "kb.qaidx"))
        assert (built == loaded) is True
        other = build_entity_index(random_kb(np.random.default_rng(12), max_aliases=40))
        assert (loaded[0] == other) is False
        assert (loaded[0] == loaded[1]) is False

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        kb = random_kb(rng, max_aliases=25, max_facts=40)
        entity_idx = build_entity_index(kb)
        reach_idx = build_reach_index(kb)
        p1, p2 = tmp_path / "a.qaidx", tmp_path / "b.qaidx"
        save_indexes(entity_idx, reach_idx, str(p1))
        save_indexes(build_entity_index(kb), build_reach_index(kb), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_separator_in_fact_roundtrips(self, tmp_path):
        kb = kb_of({"e1": ("tom hanks",)}, facts=[("e1", "bornOn", "19\u202856"), ("e1", "r", "x")])
        reach_idx = build_reach_index(kb)
        path = tmp_path / "kb.qaidx"
        save_indexes(build_entity_index(kb), reach_idx, str(path))
        assert load_indexes(str(path))[1] == reach_idx


class TestAnswerOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        from kbqa.pipeline import StructuredQuery, answer

        for _ in range(30):
            kb = random_kb(rng, max_aliases=30, max_facts=60)
            entity_idx = build_entity_index(kb)
            reach_idx = build_reach_index(kb)
            phrase = random_phrase(rng)
            relation = str(rng.choice(["bornOn", "starredIn", "wrote"]))
            got = answer(
                StructuredQuery(tuple(phrase), relation), entity_idx, reach_idx, k=10
            )
            expected = brute_answer(kb, phrase, relation, k=10)
            if expected is None:
                assert got is None
            else:
                obj, fact, score = expected
                assert got is not None
                assert got.object == obj
                assert got.supporting_fact == fact
                assert got.score == score

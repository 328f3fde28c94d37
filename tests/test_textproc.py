import pytest
from hypothesis import given, strategies as st

from kbqa.errors import ParseError
from kbqa.textproc import (
    load_pos_lexicon,
    ngrams,
    noun_chunk_filter,
    pos_tag,
    tokenize,
)

from oracles import tokenize_reference


class TestTokenize:
    def test_question(self):
        assert tokenize("How old is Tom Hanks?") == ["how", "old", "is", "tom", "hanks"]

    def test_empty(self):
        assert tokenize("") == []

    def test_edge_punctuation_and_internal_apostrophe(self):
        assert tokenize("o'brien - yes") == ["o'brien", "yes"]

    def test_internal_hyphen_kept(self):
        assert tokenize("spider-man!!") == ["spider-man"]

    def test_digits_kept(self):
        assert tokenize("born in 1956.") == ["born", "in", "1956"]

    @given(st.text(max_size=60))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(st.one_of(st.characters(categories=["L", "N", "Mn", "Mc", "Me", "P", "S"]),
                             st.sampled_from("'-’ \t\n\u00a0")), max_size=60))
    def test_matches_reference(self, text):
        """Letters, digits, combining marks, apostrophes, hyphens and
        punctuation: pieces that are whole alphanumerics skip the strip
        loop, and the tokens are unchanged."""
        assert tokenize(text) == tokenize_reference(text)

    @given(st.text(max_size=60))
    def test_tokens_are_clean(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()
            assert " " not in tok
            assert tok[0].isalnum() and tok[-1].isalnum()


class TestNgrams:
    def test_pair(self):
        assert ngrams(["tom", "hanks"], 3) == ["tom", "hanks", "tom hanks"]

    def test_single(self):
        assert ngrams(["a"], 3) == ["a"]

    def test_order_is_n_then_start(self):
        assert ngrams(["a", "b", "c"], 2) == ["a", "b", "c", "a b", "b c"]

    def test_bad_max_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    @given(st.lists(st.sampled_from("abcd"), max_size=8), st.integers(1, 4))
    def test_count_formula(self, tokens, max_n):
        expected = sum(
            len(tokens) - k + 1 for k in range(1, min(max_n, len(tokens)) + 1)
        )
        assert len(ngrams(tokens, max_n)) == expected


class TestPosTag:
    def test_fallback_order(self):
        tags = pos_tag(["how", "old", "is", "tom", "hanks"], {"old": "ADJ"})
        assert tags == ["ADV", "ADJ", "VERB", "NOUN", "NOUN"]

    def test_empty(self):
        assert pos_tag([]) == []

    def test_ly_rule(self):
        assert pos_tag(["quickly"]) == ["ADV"]

    def test_ing_ed_rules(self):
        assert pos_tag(["running", "walked"]) == ["VERB", "VERB"]

    def test_digit_rule(self):
        assert pos_tag(["1956"]) == ["NOUN"]

    def test_lexicon_wins_over_heuristics(self):
        assert pos_tag(["running"], {"running": "NOUN"}) == ["NOUN"]

    def test_open_class_default(self):
        assert pos_tag(["zyx"]) == ["NOUN"]


class TestNounChunkFilter:
    def test_keeps_noun_run(self):
        result = noun_chunk_filter(
            ["how", "old", "is", "tom", "hanks"],
            ["ADV", "ADJ", "VERB", "NOUN", "NOUN"],
        )
        assert result.kept_tokens == ("tom", "hanks")
        assert result.index_map == (3, 4)
        assert not result.degraded

    def test_fallback_when_nothing_kept(self):
        result = noun_chunk_filter(["a", "b"], ["VERB", "VERB"])
        assert result.kept_tokens == ("a", "b")
        assert result.index_map == (0, 1)
        assert result.degraded

    def test_leftward_extension_over_adj_and_det(self):
        result = noun_chunk_filter(["the", "old", "man"], ["DET", "ADJ", "NOUN"])
        assert result.kept_tokens == ("the", "old", "man")

    def test_adj_not_adjacent_to_run_dropped(self):
        result = noun_chunk_filter(
            ["old", "is", "tom"], ["ADJ", "VERB", "NOUN"]
        )
        assert result.kept_tokens == ("tom",)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            noun_chunk_filter(["a"], [])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["tok", "x", "y"]),
                st.sampled_from(["NOUN", "PROPN", "VERB", "ADJ", "DET", "ADV"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_order_preserved_and_mapping_consistent(self, pairs):
        tokens = [t for t, _ in pairs]
        tags = [g for _, g in pairs]
        result = noun_chunk_filter(tokens, tags)
        assert list(result.index_map) == sorted(result.index_map)
        assert [tokens[i] for i in result.index_map] == list(result.kept_tokens)
        assert set(result.kept_tokens) <= set(tokens)


class TestLexiconFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("Tom\tPROPN\nhanks\tPROPN\n")
        assert load_pos_lexicon(str(path)) == {"tom": "PROPN", "hanks": "PROPN"}

    def test_bad_tag(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("tom\tNOPE\n")
        with pytest.raises(ParseError):
            load_pos_lexicon(str(path))

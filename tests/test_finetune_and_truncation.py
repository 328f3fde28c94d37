import numpy as np
import pytest
from hypothesis import given, strategies as st

from kbqa.corpus import derive_gold_tags, random_embedding_table
from kbqa.errors import TaggingError
from kbqa.models import (
    build_model,
    default_descriptor,
    predict_tags,
    train,
)
from kbqa.neural.config import TrainConfig
from kbqa.neural.gradcheck import grad_check
from kbqa.neural.optim import make_optimizer

from conftest import fix_tagger
from corpora import trigger_relation_corpus


@pytest.fixture(scope="module")
def corpus():
    return trigger_relation_corpus(40, seed=7)


@pytest.fixture(scope="module")
def embeddings(corpus):
    return random_embedding_table([t for q in corpus for t in q.tokens], 10, seed=3)


class TestEmbeddingFineTuning:
    def test_frozen_embeddings_do_not_move(self, corpus, embeddings):
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, seed=1)
        before = model.embedding.params["E"].copy()
        train(
            model, corpus,
            TrainConfig(epochs=2, batch_size=8, seed=1, freeze_embeddings=True),
            make_optimizer("SGD", 0.05),
        )
        assert np.array_equal(model.embedding.params["E"], before)
        assert "embedding.E" not in model.trainable_params()

    def test_config_freezes_a_model_built_trainable(self, corpus, embeddings):
        """train follows config.freeze_embeddings in both directions: a model
        built with trainable embeddings keeps them under a freezing config."""
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, seed=1,
                            freeze_embeddings=False)
        before = model.embedding.params["E"].copy()
        train(model, corpus, TrainConfig(epochs=1, batch_size=8, seed=1),
              make_optimizer("SGD", 0.05))
        assert np.array_equal(model.embedding.params["E"], before)
        assert "embedding.E" not in model.trainable_params()

    def test_finetuned_embeddings_move_but_pad_row_stays_zero(self, corpus, embeddings):
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, seed=1)
        before = model.embedding.params["E"].copy()
        train(
            model, corpus,
            TrainConfig(epochs=2, batch_size=8, seed=1, freeze_embeddings=False),
            make_optimizer("SGD", 0.05),
        )
        matrix = model.embedding.params["E"]
        assert "embedding.E" in model.trainable_params()
        assert not np.array_equal(matrix[1:], before[1:])
        assert np.array_equal(matrix[0], np.zeros(matrix.shape[1]))

    def test_embedding_gradient_matches_finite_differences(self):
        from kbqa.gradsuite import build_check_model, suite_architectures

        desc = suite_architectures()[1]  # NT_BILSTM1
        model, batch = build_check_model(desc, seed=2)
        model.embedding.trainable = True
        report = grad_check(model, batch, h=1e-5, tolerance=1e-4)
        assert "embedding.E" in report.per_param
        assert report.passed, str(report)


class TestTruncation:
    def test_predict_tags_beyond_max_len_are_zero(self, corpus, embeddings):
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, max_len=4, seed=1)
        fix_tagger(model, 1)
        pred = predict_tags(model, ["w"] * 9)
        assert pred.mapped_tags == (1, 1, 1, 1, 0, 0, 0, 0, 0)
        assert not pred.degraded

    def test_training_truncates_targets(self, corpus, embeddings):
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, max_len=3, seed=1)
        log = train(
            model, corpus,
            TrainConfig(epochs=1, batch_size=8, max_len=3, seed=1),
            make_optimizer("SGD", 0.01),
        )
        assert np.isfinite(log[0].train_loss)

    def test_encode_respects_max_len(self, corpus, embeddings):
        vocab = [t for q in corpus for t in q.tokens]
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=50, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, max_len=5, seed=1)
        ids, mask = model.encode([["a"] * 12, ["b"] * 2])
        assert ids.shape == (2, 5)
        assert mask[0].sum() == 5 and mask[1].sum() == 2


class TestGoldSpanProperty:
    aliases_strategy = st.lists(
        st.lists(st.sampled_from(["tom", "hanks", "jane", "lake", "ny"]), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
    tokens_strategy = st.lists(
        st.sampled_from(["tom", "hanks", "jane", "lake", "ny", "is", "who"]),
        min_size=1,
        max_size=8,
    )

    @given(tokens_strategy, aliases_strategy)
    def test_selected_span_is_an_alias(self, tokens, alias_token_lists):
        aliases = {" ".join(a) for a in alias_token_lists}
        try:
            tags = derive_gold_tags(tokens, aliases)
        except TaggingError:
            return
        span = " ".join(t for t, g in zip(tokens, tags) if g == 1)
        assert span in aliases
        # tags form one contiguous run
        ones = [i for i, g in enumerate(tags) if g == 1]
        assert ones == list(range(ones[0], ones[-1] + 1))

    @given(tokens_strategy, aliases_strategy)
    def test_no_longer_alias_match_exists(self, tokens, alias_token_lists):
        """Longest-match: no alias longer than the selected span matches."""
        aliases = {" ".join(a) for a in alias_token_lists}
        try:
            tags = derive_gold_tags(tokens, aliases)
        except TaggingError:
            return
        chosen_len = sum(tags)
        joined = " ".join(tokens)
        for alias in aliases:
            n = len(alias.split())
            if n > chosen_len:
                for start in range(len(tokens) - n + 1):
                    assert " ".join(tokens[start : start + n]) != alias, (
                        f"alias {alias!r} of length {n} matches {joined!r} but "
                        f"a span of length {chosen_len} was chosen"
                    )

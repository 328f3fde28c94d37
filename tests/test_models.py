import math

import numpy as np
import pytest

from kbqa import models
from kbqa.corpus import AnnotatedQuestion, random_embedding_table
from kbqa.errors import ParseError
from kbqa.model_io import load_model, save_model
from kbqa.models import (
    NEURAL_KINDS,
    TASKS,
    ArchitectureDescriptor,
    NeuralSequenceModel,
    RelationLabelSpace,
    build_model,
    default_descriptor,
    entity_phrase,
    predict_relation,
    predict_relation_batch,
    predict_tags,
    predict_tags_batch,
    train,
)
from kbqa.neural import TrainConfig, make_optimizer
from kbqa.textproc import noun_chunk_filter, pos_tag

from conftest import (
    edit_text,
    first_line,
    fix_tagger,
    replace_line,
    replace_payload,
    split_artifact,
)
from corpora import entity_template_corpus
from oracles import predict_relation_reference, predict_tags_reference, valid_accuracy_reference


def nb_model(data, labels, alpha=1.0):
    model = build_model(ArchitectureDescriptor("RELATION", "NB_MULTINOMIAL"), None, labels,
                        alpha=alpha)
    model.fit(data)
    return model


def question(tokens, relation="bornOn", tags=None, subject="e1"):
    tokens = list(tokens)
    tags = tags if tags is not None else [0] * (len(tokens) - 1) + [1]
    return AnnotatedQuestion(
        " ".join(tokens), tuple(tokens), subject, relation, tuple(tags)
    )


@pytest.fixture
def embeddings():
    tokens = ["how", "old", "is", "tom", "hanks", "movie", "born", "city", "x", "y"]
    return random_embedding_table(tokens, 8, seed=2)


class TestDescriptors:
    def test_bigru2_default_sizes(self):
        desc = default_descriptor("RELATION", "BIGRU2")
        assert desc.hidden_sizes == (1400, 400)
        assert desc.hidden_sizes[0] / desc.hidden_sizes[1] == pytest.approx(3.5)

    def test_bilstm2_default_sizes(self):
        desc = default_descriptor("ENTITY", "BILSTM2")
        assert desc.hidden_sizes == (1240, 400)
        assert desc.hidden_sizes[0] / desc.hidden_sizes[1] == pytest.approx(3.1)

    def test_desk_scale_preserves_ratio(self):
        desc = default_descriptor("RELATION", "BIGRU2", desk_scale=25)
        assert desc.hidden_sizes == (56, 16)
        assert desc.hidden_sizes[0] / desc.hidden_sizes[1] == pytest.approx(3.5)

    def test_conv_gru_defaults(self):
        desc = default_descriptor("RELATION", "CONV_GRU")
        assert desc.conv_filters == 50
        assert desc.conv_width == 2
        assert desc.dropout_rates == (0.2, 0.1)

    def test_nt_defaults_to_noun_filter(self):
        assert default_descriptor("ENTITY", "NT_BILSTM1").noun_filter
        assert not default_descriptor("ENTITY", "NT_BILSTM1", noun_filter=False).noun_filter

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor("ENTITY", "TRANSFORMER")

    @pytest.mark.parametrize("kind", ["BIGRU2", "MAJORITY"])
    @pytest.mark.parametrize("desk_scale", [0, -3])
    def test_desk_scale_below_one(self, kind, desk_scale):
        with pytest.raises(ValueError, match="desk_scale must be >= 1"):
            default_descriptor("RELATION", kind, desk_scale=desk_scale)


class TestBuildModel:
    def test_conv_filter_shape(self, embeddings):
        desc = default_descriptor("RELATION", "CONV_GRU", desk_scale=50)
        model = build_model(
            desc,
            embeddings,
            RelationLabelSpace(("a", "b")),
            vocab_tokens=["tom", "hanks"],
            seed=1,
        )
        assert model.conv.params["F"].shape == (50, 2, 8)

    def test_same_seed_identical_params(self, embeddings):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        kwargs = dict(vocab_tokens=["tom", "hanks"], seed=9)
        m1 = build_model(desc, embeddings, None, **kwargs)
        m2 = build_model(desc, embeddings, None, **kwargs)
        for name, arr in m1.all_params().items():
            assert np.array_equal(arr, m2.all_params()[name]), name

    def test_pad_row_is_zero(self, embeddings):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom"], seed=0)
        assert np.array_equal(model.embedding.params["E"][0], np.zeros(8))

    def test_oov_token_maps_to_unk_row(self, embeddings):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom"], seed=0)
        ids, _ = model.encode([["zzz-not-in-vocab"]])
        assert ids[0, 0] == 1

    def test_relation_needs_label_space(self, embeddings):
        desc = default_descriptor("RELATION", "BIGRU2", desk_scale=100)
        with pytest.raises(ValueError):
            build_model(desc, embeddings, None, vocab_tokens=["a"], seed=0)


class TestPredictTags:
    def test_naive_all_entity(self):
        model = build_model(
            ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None
        )
        pred = predict_tags(model, ["where", "was", "tom", "hanks", "born"])
        assert pred.tags == (1, 1, 1, 1, 1)
        assert pred.mapped_tags == (1, 1, 1, 1, 1)
        assert not pred.degraded

    def test_mapped_expansion_with_noun_filter(self, embeddings):
        # "how old is tom hanks": filter keeps [tom, hanks] at positions 3, 4
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(
            desc, embeddings, None, vocab_tokens=["tom", "hanks"], seed=4
        )
        fix_tagger(model, 1)
        pred = predict_tags(model, ["how", "old", "is", "tom", "hanks"], {"old": "ADJ"})
        assert pred.tags == (1, 1)
        assert pred.mapped_tags == (0, 0, 0, 1, 1)

    def test_all_zero_falls_back_to_all_ones(self, embeddings):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40, noun_filter=False)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom"], seed=4)
        fix_tagger(model, 0)
        pred = predict_tags(model, ["tom", "hanks"])
        assert pred.tags == (1, 1)
        assert pred.degraded

    def test_filtered_positions_never_tagged(self, embeddings):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom"], seed=4)
        fix_tagger(model, 1)
        pred = predict_tags(model, ["is", "tom", "hanks", "running"])
        kept = {i for i, tag in enumerate(pred.mapped_tags) if tag == 1}
        assert 0 not in kept  # "is" is closed-class, filtered


class TestModelInput:
    def test_prediction_and_training_read_the_same_tokens(self, monkeypatch):
        questions, _ = entity_template_corpus(30, seed=4, n_names=8)
        kept = sorted(
            noun_chunk_filter(list(q.tokens), pos_tag(list(q.tokens))).kept_tokens
            for q in questions
        )
        assert sum(map(len, kept)) < sum(len(q.tokens) for q in questions)
        labels = RelationLabelSpace.from_questions(questions)
        vocab = [t for q in questions for t in q.tokens]
        embeddings = random_embedding_table(vocab, 8, seed=2)
        seen = []
        original = NeuralSequenceModel.encode

        def recording(self, token_seqs):
            seen.extend(tuple(seq) for seq in token_seqs)
            return original(self, token_seqs)

        monkeypatch.setattr(NeuralSequenceModel, "encode", recording)
        for task, predict in (("ENTITY", predict_tags), ("RELATION", predict_relation)):
            desc = default_descriptor(task, "NT_BILSTM1", desk_scale=40, noun_filter=True)
            model = build_model(desc, embeddings, labels, vocab_tokens=vocab, seed=1)
            seen.clear()
            config = TrainConfig(epochs=1, batch_size=len(questions))
            train(model, questions, config, make_optimizer("SGD", 0.1))
            assert sorted(seen) == kept
            seen.clear()
            for q in questions:
                predict(model, q.tokens)
            assert sorted(seen) == kept


WORDS = ("how", "old", "is", "tom", "hanks", "movie", "born", "city", "x", "y", "zzz")
MAX_LEN = 6


def mixed_questions(n, seed):
    """n questions of 1 to MAX_LEN + 3 tokens, in random length order."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, MAX_LEN + 4, size=n)
    lengths[:2] = (1, MAX_LEN + 3)
    rng.shuffle(lengths)
    return [[str(w) for w in rng.choice(WORDS, size=int(length))] for length in lengths]


def neural_model(kind, task, embeddings, noun_filter=False):
    labels = RelationLabelSpace(("a", "b", "c")) if task == "RELATION" else None
    desc = default_descriptor(task, kind, desk_scale=80, noun_filter=noun_filter)
    return build_model(desc, embeddings, labels, vocab_tokens=WORDS, max_len=MAX_LEN, seed=6)


def recorded_batch(model, token_seqs, lexicon=None):
    """The batched predictions, and every predict_probs call's inputs and rows."""
    calls = []
    original = model.predict_probs

    def recording(seqs):
        probs = original(seqs)
        calls.append(list(zip(map(list, seqs), probs)))
        return probs

    model.predict_probs = recording
    try:
        if model.descriptor.task == "ENTITY":
            return predict_tags_batch(model, token_seqs, lexicon), calls
        return predict_relation_batch(model, token_seqs, lexicon), calls
    finally:
        del model.predict_probs


NEURAL_CASES = [(kind, task) for kind in NEURAL_KINDS for task in TASKS]


class TestBatchedPrediction:
    """The batched path against one forward pass per question (oracles.py)."""

    def check_parity(self, model, token_seqs, lexicon=None):
        got, calls = recorded_batch(model, token_seqs, lexicon)
        assert len(calls) == math.ceil(len(token_seqs) / 50)
        assert all(len(call) <= 50 for call in calls)
        for kept, row in (item for call in calls for item in call):
            alone = model.predict_probs([kept])[0]
            assert np.abs(row[: len(alone)] - alone).max() <= 1e-12
        if model.descriptor.task == "ENTITY":
            assert got == [predict_tags_reference(model, t, lexicon) for t in token_seqs]
            return got
        want = [predict_relation_reference(model, t, lexicon) for t in token_seqs]
        assert [label for label, _ in got] == [label for label, _ in want]
        assert np.abs(np.subtract([p for _, p in got], [p for _, p in want])).max() <= 1e-12
        return got

    @pytest.mark.parametrize("noun_filter", [False, True])
    @pytest.mark.parametrize("kind,task", NEURAL_CASES)
    def test_matches_per_question_forward(self, kind, task, noun_filter, embeddings):
        model = neural_model(kind, task, embeddings, noun_filter)
        self.check_parity(model, mixed_questions(120, seed=len(kind)), {"old": "ADJ"})

    @pytest.mark.parametrize("kind", NEURAL_KINDS)
    def test_all_zero_tagger_falls_back(self, kind, embeddings):
        model = neural_model(kind, "ENTITY", embeddings, noun_filter=True)
        fix_tagger(model, 0)
        got = self.check_parity(model, mixed_questions(60, seed=1))
        assert all(pred.degraded and set(pred.tags) == {1} for pred in got)

    def test_one_question_is_one_call(self, embeddings):
        model = neural_model("BILSTM2", "ENTITY", embeddings)
        (pred,), calls = recorded_batch(model, [["tom", "hanks"]])
        assert len(calls) == 1
        assert pred == predict_tags(model, ["tom", "hanks"])

    def test_empty_question_rejected(self, embeddings):
        model = neural_model("BIGRU2", "RELATION", embeddings)
        with pytest.raises(ValueError):
            predict_relation_batch(model, [["x"], []])
        with pytest.raises(ValueError):
            predict_tags_batch(neural_model("BILSTM2", "ENTITY", embeddings), [[]])

    @pytest.mark.parametrize("kind,task", NEURAL_CASES)
    def test_prediction_leaves_no_activations(self, kind, task, embeddings):
        model = neural_model(kind, task, embeddings)
        seqs = mixed_questions(37, seed=2)
        ids, mask = model.encode(seqs)
        targets = np.zeros(len(seqs), dtype=np.int64) if task == "RELATION" else np.zeros_like(ids)
        model.loss_and_grads((ids, mask, targets), training=True)
        assert held_activations(model)  # training keeps them for backward
        model.predict_probs(seqs)
        assert held_activations(model) == []


def held_activations(model) -> list[str]:
    """Names of the arrays a layer holds besides its parameters and
    gradients (activations kept for a backward pass)."""
    layers = [model.embedding, model.conv, model.dense, *model.drops]
    layers += [d for layer in model.recurrents for d in (layer.fwd, layer.bwd)]
    stored = [*model.all_params().values()]
    stored += [g for layer in layers if layer is not None
               for g in getattr(layer, "grads", {}).values()]
    held = []
    for layer in filter(None, layers):
        for name, value in vars(layer).items():
            items = value if isinstance(value, (tuple, list)) else (value,)
            for item in items:
                if isinstance(item, np.ndarray) and not any(
                    np.shares_memory(item, s) for s in stored
                ):
                    held.append(f"{type(layer).__name__}.{name}")
    return held


class TestBatchedValidation:
    @pytest.mark.parametrize("kind", NEURAL_KINDS)
    def test_trained_file_matches_per_question_validation(self, kind, tmp_path, monkeypatch):
        """Batched validation picks the same best epoch, so train writes the
        same bytes as with one forward pass per validation question."""
        questions, _ = entity_template_corpus(130, seed=8, n_names=10)
        train_set, valid_set = questions[:70], questions[70:]
        task = "ENTITY" if "LSTM" in kind else "RELATION"
        labels = RelationLabelSpace.from_questions(questions)
        vocab = [t for q in train_set for t in q.tokens]
        embeddings = random_embedding_table(vocab, 8, seed=2)

        def trained(path):
            desc = default_descriptor(task, kind, desk_scale=40)
            model = build_model(desc, embeddings, labels, vocab_tokens=vocab, seed=3)
            config = TrainConfig(epochs=5, batch_size=8, seed=3)
            log = train(model, train_set, config, make_optimizer("ADAM_COUPLED", 0.03),
                        valid_set=valid_set)
            save_model(model, str(path))
            return log, path.read_bytes()

        batched = trained(tmp_path / "batched.qam")
        monkeypatch.setattr(models, "_valid_accuracy", lambda model, questions, _inputs:
                            valid_accuracy_reference(model, questions, None))
        reference = trained(tmp_path / "reference.qam")
        assert len({e.valid_accuracy for e in batched[0]}) > 1
        assert batched == reference

    def test_validation_inputs_are_prepared_once_per_call(self, monkeypatch):
        """The noun filter sees each training and each validation question
        once per train call, not once per epoch."""
        questions, _ = entity_template_corpus(300, seed=8, n_names=10)
        train_set, valid_set = questions[:200], questions[200:]
        vocab = [t for q in train_set for t in q.tokens]
        model = build_model(default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40),
                            random_embedding_table(vocab, 8, seed=2), None,
                            vocab_tokens=vocab, seed=3)
        calls = []

        def counted(tokens, tags):
            calls.append(len(tokens))
            return noun_chunk_filter(tokens, tags)

        monkeypatch.setattr(models, "noun_chunk_filter", counted)
        log = train(model, train_set, TrainConfig(epochs=5, batch_size=50, seed=3),
                    make_optimizer("ADAM_COUPLED", 0.03), valid_set=valid_set)
        assert len(log) == 5
        assert len(calls) == 300


class TestEntityPhrase:
    def test_single_run(self):
        assert entity_phrase([0, 1, 1, 0], ["a", "tom", "hanks", "b"]) == ["tom", "hanks"]

    def test_longest_run_wins(self):
        assert entity_phrase([1, 0, 1, 1], ["a", "b", "c", "d"]) == ["c", "d"]

    def test_tie_earliest(self):
        assert entity_phrase([1, 0, 1], ["a", "b", "c"]) == ["a"]

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            entity_phrase([0, 0], ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entity_phrase([1], ["a", "b"])


class TestMajority:
    def test_majority_frequency(self):
        labels = RelationLabelSpace(("a", "b"))
        model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        model.fit([question(["x"], r) for r in ("a", "a", "a", "b")])
        assert predict_relation(model, ["anything"]) == ("a", 0.75)

    def test_tie_prefers_lower_label_index(self):
        labels = RelationLabelSpace(("b", "a"))
        model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        model.fit([question(["x"], "a"), question(["y"], "b")])
        assert predict_relation(model, ["z"])[0] == "b"


class TestNaiveBayes:
    def test_hand_computed_example(self):
        # corpus {("x y", A), ("z", B)}, alpha 1, V=3:
        # score(A|x) = ln(1/2) + ln(2/5); score(B|x) = ln(1/2) + ln(1/4)
        labels = RelationLabelSpace(("A", "B"))
        data = [question(["x", "y"], "A"), question(["z"], "B")]
        model = nb_model(data, labels, alpha=1.0)
        label, _ = model.predict_label(["x"])
        assert label == "A"
        scores = model.log_scores(["x"])
        assert scores[0] == pytest.approx(np.log(0.5) + np.log(2 / 5), abs=1e-12)
        assert scores[1] == pytest.approx(np.log(0.5) + np.log(1 / 4), abs=1e-12)

    def test_single_class(self):
        labels = RelationLabelSpace(("A",))
        model = nb_model([question(["q"], "A")], labels)
        assert model.predict_label(["anything"])[0] == "A"

    def test_bag_of_words_order_invariant(self):
        labels = RelationLabelSpace(("A", "B"))
        data = [question(["x", "y", "z"], "A"), question(["u", "v"], "B")]
        model = nb_model(data, labels)
        a = model.log_scores(["x", "v", "y"])
        b = model.log_scores(["y", "x", "v"])
        assert model.predict_label(["x", "v", "y"])[0] == model.predict_label(["y", "x", "v"])[0]
        assert np.allclose(a, b, rtol=1e-12)

    def test_unseen_token_uses_smoothed_likelihood(self):
        labels = RelationLabelSpace(("A", "B"))
        data = [question(["x", "y"], "A"), question(["z"], "B")]
        model = nb_model(data, labels)
        scores = model.log_scores(["unseen"])
        assert scores[0] == pytest.approx(np.log(0.5) + np.log(1 / 5), abs=1e-12)
        assert scores[1] == pytest.approx(np.log(0.5) + np.log(1 / 4), abs=1e-12)

    def test_empty_dataset(self):
        labels = RelationLabelSpace(("A",))
        with pytest.raises(ValueError):
            nb_model([], labels)


class TestUniformOutput:
    def test_zeroed_dense_gives_uniform(self, embeddings):
        labels = RelationLabelSpace(("a", "b", "c", "d"))
        desc = default_descriptor("RELATION", "BIGRU2", desk_scale=100)
        model = build_model(desc, embeddings, labels, vocab_tokens=["x"], seed=3)
        model.dense.params["W"][:] = 0.0
        model.dense.params["b"][:] = 0.0
        label, prob = predict_relation(model, ["x"])
        assert label == "a"
        assert prob == pytest.approx(0.25, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["BILSTM2", "NT_BILSTM1", "BIGRU2", "CONV_GRU"])
    def test_neural_roundtrip_predictions(self, kind, embeddings, tmp_path):
        task = "ENTITY" if "LSTM" in kind else "RELATION"
        labels = RelationLabelSpace(("a", "b", "c")) if task == "RELATION" else None
        desc = default_descriptor(task, kind, desk_scale=80, noun_filter=False)
        model = build_model(
            desc, embeddings, labels,
            vocab_tokens=["how", "old", "tom", "hanks"], seed=6,
        )
        path = tmp_path / "model.qam"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for tokens in (["how", "old", "is", "tom", "hanks"], ["tom"], ["zzz", "hanks"]):
            if task == "ENTITY":
                assert predict_tags(loaded, tokens) == predict_tags(model, tokens)
            else:
                assert predict_relation(loaded, tokens) == predict_relation(model, tokens)

    def test_neural_roundtrip_bytes_stable(self, embeddings, tmp_path):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom"], seed=8)
        p1, p2 = tmp_path / "m1.qam", tmp_path / "m2.qam"
        save_model(model, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_majority_roundtrip(self, tmp_path):
        labels = RelationLabelSpace(("a", "b"))
        model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        model.fit([question(["x"], "a"), question(["y"], "a"), question(["z"], "b")])
        path = tmp_path / "maj.qam"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert predict_relation(loaded, ["q"]) == predict_relation(model, ["q"])

    def test_nb_roundtrip(self, tmp_path):
        labels = RelationLabelSpace(("A", "B"))
        data = [question(["x", "y"], "A"), question(["z"], "B")]
        model = nb_model(data, labels)
        path = tmp_path / "nb.qam"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for tokens in (["x"], ["z"], ["x", "unseen"]):
            assert np.array_equal(loaded.log_scores(tokens), model.log_scores(tokens))
            assert loaded.predict_label(tokens) == model.predict_label(tokens)

    def test_naive_all_entity_roundtrip(self, tmp_path):
        model = build_model(ArchitectureDescriptor("ENTITY", "NAIVE_ALL_ENTITY"), None, None)
        path = tmp_path / "naive.qam"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert predict_tags(loaded, ["a", "b"]).mapped_tags == (1, 1)


NL = "\n"


class TestModelFileErrors:
    @pytest.fixture
    def saved(self, embeddings, tmp_path):
        desc = default_descriptor("ENTITY", "NT_BILSTM1", desk_scale=40)
        model = build_model(desc, embeddings, None, vocab_tokens=["tom", "hanks"], seed=4)
        path = tmp_path / "model.qam"
        save_model(model, str(path))
        return path

    def test_truncated_file_rejected(self, saved):
        n_lines = split_artifact(saved)[0].count("\n")
        saved.write_bytes(saved.read_bytes()[:-5])
        with pytest.raises(ParseError, match=f"{saved}:{n_lines}:"):
            load_model(str(saved))

    def test_missing_rows_rejected(self, saved):
        """The payload lacks the last array's values, and says so in line 1."""
        text, payload = split_artifact(saved)
        last = text.split("\n")[-2]  # PARAM dense.b 1 size
        replace_payload(saved, payload[: -8 * int(last.split(" ")[-1])])
        with pytest.raises(ParseError, match=f"{saved}:1: payload="):
            load_model(str(saved))

    def test_payload_one_byte_short_rejected(self, saved):
        text, payload = split_artifact(saved)
        data = saved.read_bytes()
        saved.write_bytes(data[:-1])
        # the text now ends without its last newline
        with pytest.raises(ParseError, match=f"{saved}:{text.count(NL)}: no newline"):
            load_model(str(saved))
        saved.write_bytes(data)
        replace_payload(saved, payload[:-1])
        with pytest.raises(ParseError, match=f"{saved}:1: payload={len(payload) - 1}, but"):
            load_model(str(saved))

    def test_payload_one_byte_long_rejected(self, saved):
        text, payload = split_artifact(saved)
        data = saved.read_bytes()
        saved.write_bytes(data + b"\0")
        # the text now ends in the payload's first byte, a line of its own
        with pytest.raises(ParseError, match=f"{saved}:{text.count(NL) + 1}: "):
            load_model(str(saved))
        saved.write_bytes(data)
        replace_payload(saved, payload + b"\0")
        with pytest.raises(ParseError, match=f"{saved}:1: payload={len(payload) + 1}, but"):
            load_model(str(saved))

    def test_param_shape_disagrees_with_payload(self, saved):
        last = split_artifact(saved)[0].count(NL)  # PARAM dense.b 1 size
        replace_line(saved, last, lambda line: line + "0")  # ten times the values
        with pytest.raises(ParseError, match=f"{saved}:1: payload=.* but the headers declare"):
            load_model(str(saved))

    def test_param_shape_with_the_payload_size_but_wrong_dims(self, saved):
        """A shape that holds as many values as the model's array is still
        checked against it, at its PARAM line."""
        line_no = first_line(saved, "PARAM embedding.E ")

        def swap_dims(line):
            _, name, ndim, rows, cols = line.split(" ")
            return f"PARAM {name} {ndim} {cols} {rows}"

        replace_line(saved, line_no, swap_dims)
        with pytest.raises(ParseError, match=f"{saved}:{line_no}: PARAM embedding.E has"):
            load_model(str(saved))

    def test_duplicate_param_rejected(self, saved):
        text, payload = split_artifact(saved)
        last = text.split(NL)[-2]  # PARAM dense.b 1 size
        edit_text(saved, lambda text: text + last + NL)
        replace_payload(saved, payload + payload[-8 * int(last.split(" ")[-1]) :])
        with pytest.raises(ParseError, match=f"{saved}:{text.count(NL) + 1}: unexpected"):
            load_model(str(saved))

    def test_qamodel_1_file_rejected(self, tmp_path):
        path = tmp_path / "old.qam"
        path.write_text(
            "QAMODEL 1 task=RELATION kind=MAJORITY hidden= dropout= conv_filters=0 "
            "conv_width=0 noun_filter=0\nLABELS 1\nbornOn\nPARAM counts 1 1\n2.0\n"
        )
        with pytest.raises(ParseError, match=f"{path}:1: QAMODEL 1 .*retrain"):
            load_model(str(path))

    def test_non_utf8_vocab_rejected(self, saved):
        lines = saved.read_bytes().split(b"\n")
        assert lines[1] == b"VOCAB 2"
        lines[2] = b"\xff" + lines[2]
        saved.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=f"{saved}:3: not UTF-8"):
            load_model(str(saved))

    def test_line_separator_in_label_roundtrips(self, tmp_path):
        labels = RelationLabelSpace(("born\u2028on", "died"))
        model = build_model(ArchitectureDescriptor("RELATION", "MAJORITY"), None, labels)
        model.fit([question(["x"], "born\u2028on")])
        path = tmp_path / "maj.qam"
        save_model(model, str(path))
        assert load_model(str(path)).label_space == labels

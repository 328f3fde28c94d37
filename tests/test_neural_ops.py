"""Single-example (B=1) semantics of the layers against hand values and the
scalar oracles: cells, bidirectional runs, convolution, dense softmax,
loss and dropout."""

import math

import numpy as np
import pytest

from kbqa.gradsuite import build_check_model, suite_architectures
from kbqa.neural.gradcheck import grad_check
from kbqa.neural.layers import (
    BidirectionalLayer,
    Conv1dLayer,
    DenseLayer,
    DropoutLayer,
    RecurrentDirection,
    cross_entropy,
    softmax,
)

from conftest import standalone
from oracles import conv1d_scalar, scalar_sequence


def run(layer, steps):
    """Forward one sequence [T, D] through a recurrent direction at B=1."""
    steps = np.asarray(steps, dtype=np.float64)
    return layer.forward(steps[None], np.ones((1, len(steps))))[0]


def cell_states(layer):
    """LSTM cell state after each step of the last forward pass, [T, H]."""
    cs = layer._cache[3][:, 0]
    return cs[:-1] if layer.reverse else cs[1:]


def driven_layer(kind, d, h):
    """A direction whose U and b are zero and whose first input feature
    drives the candidate (GRU) or input and candidate gates (LSTM) to
    exactly 1, and whose second drives the GRU update gate to exactly 0.
    Step 1 with input (40, -40, 0...) then sets the state to all ones;
    step 2 with a zero input is a step of the all-zero cell."""
    layer = standalone(RecurrentDirection, kind, d, h, False)
    if kind == "gru":
        layer.params["W_h"][0] = 1.0
        layer.params["W_z"][1] = 1.0
    else:
        layer.params["W_i"][0] = 1.0
        layer.params["W_g"][0] = 1.0
    return layer


class TestGruCell:
    def test_zero_params_halve_state(self):
        layer = driven_layer("gru", 3, 2)
        out = run(layer, [[40.0, -40.0, 0.0], [0.0, 0.0, 0.0]])
        assert out[0].tolist() == [1.0, 1.0]
        h = out[1]
        assert h.tolist() == [0.5, 0.5]

    def test_zero_state_stays_zero(self):
        h = run(standalone(RecurrentDirection, "gru", 3, 2, False), np.zeros((1, 3)))[0]
        assert h.tolist() == [0.0, 0.0]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        layer = standalone(RecurrentDirection, "gru", 3, 2, False, rng=rng, init_scale=0.6)
        x = rng.normal(size=(4, 3))
        got = run(layer, x)
        want, _ = scalar_sequence("gru", layer.params, x)
        assert np.allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            run(standalone(RecurrentDirection, "gru", 3, 2, False), np.zeros((1, 4)))


class TestLstmCell:
    def test_all_zero(self):
        layer = standalone(RecurrentDirection, "lstm", 2, 3, False)
        h = run(layer, np.zeros((1, 2)))[0]
        c = cell_states(layer)[0]
        assert h.tolist() == [0.0, 0.0, 0.0]
        assert c.tolist() == [0.0, 0.0, 0.0]

    def test_cell_state_halved(self):
        layer = driven_layer("lstm", 2, 1)
        h = run(layer, [[40.0, 0.0], [0.0, 0.0]])[1]
        assert cell_states(layer)[0, 0] == 1.0
        c = cell_states(layer)[1]
        assert c[0] == pytest.approx(0.5, abs=1e-15)
        assert h[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-15)
        assert h[0] == pytest.approx(0.23106, abs=1e-5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        layer = standalone(RecurrentDirection, "lstm", 3, 2, False, rng=rng, init_scale=0.6)
        x = rng.normal(size=(4, 3))
        h = run(layer, x)
        c = cell_states(layer)
        want_h, want_c = scalar_sequence("lstm", layer.params, x)
        assert np.allclose(h, want_h, atol=1e-12, rtol=0)
        assert np.allclose(c, want_c, atol=1e-12, rtol=0)


def shared_bidirectional(kind, d, h, rng):
    """A bidirectional layer whose two directions hold the same parameters."""
    layer = standalone(BidirectionalLayer, kind, d, h, rng=rng)
    for name, arr in layer.bwd.params.items():
        arr[...] = layer.fwd.params[name]
    return layer


class TestBidirectional:
    def test_single_step_symmetry(self):
        rng = np.random.default_rng(3)
        layer = shared_bidirectional("gru", 3, 2, rng)
        x = rng.normal(size=(1, 3))
        out = layer.forward(x[None], np.ones((1, 1)))[0]
        assert out.shape == (1, 4)
        assert np.array_equal(out[0, :2], out[0, 2:])

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        layer = standalone(BidirectionalLayer, "lstm", 3, 5, rng=rng)
        out = layer.forward(rng.normal(size=(1, 7, 3)), np.ones((1, 7)))[0]
        assert out.shape == (7, 10)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(5)
        layer = shared_bidirectional("gru", 2, 3, rng)
        half = rng.normal(size=(3, 2))
        seq = np.concatenate([half, half[::-1]], axis=0)
        out = layer.forward(seq[None], np.ones((1, len(seq))))[0]
        t_len = len(seq)
        for t in range(t_len):
            assert np.allclose(out[t, :3], out[t_len - 1 - t, 3:], atol=1e-12)


def conv(seq, filters, bias):
    filters = np.asarray(filters, dtype=np.float64)
    layer = standalone(Conv1dLayer, *filters.shape)
    layer.params["F"][...] = filters
    layer.params["b"][...] = bias
    return layer.forward(np.asarray(seq, dtype=np.float64)[None])[0]


class TestConv1d:
    def test_zero_filters(self):
        out = conv(np.ones((4, 3)), np.zeros((2, 2, 3)), np.zeros(2))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_hand_convolution(self):
        seq = np.array([[1.0], [2.0], [3.0]])
        filters = np.array([[[1.0], [1.0]]])  # one filter, width 2, depth 1
        out = conv(seq, filters, np.zeros(1))
        assert out[:, 0].tolist() == [1.0, 3.0, 5.0]

    def test_relu_clamps_negative(self):
        seq = np.array([[1.0], [1.0]])
        filters = np.array([[[-1.0], [-1.0]]])
        out = conv(seq, filters, np.zeros(1))
        assert out[:, 0].tolist() == [0.0, 0.0]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        seq = rng.normal(size=(5, 3))
        filters = rng.normal(size=(4, 2, 3))
        bias = rng.normal(size=4)
        got = conv(seq, filters, bias)
        want = np.maximum(
            np.array(conv1d_scalar(seq.tolist(), filters.tolist(), bias.tolist())), 0.0
        )
        assert np.allclose(got, want, atol=1e-12, rtol=0)

    def test_only_same_padding(self):
        """The layer always pads on the left to the input length (there is
        no other padding mode); input that does not fit its depth raises."""
        for width in (1, 2, 4):
            assert conv(np.ones((3, 1)), np.ones((1, width, 1)), np.zeros(1)).shape == (3, 1)
        with pytest.raises(ValueError):
            conv(np.ones((3, 2)), np.ones((1, 2, 1)), np.zeros(1))


def dense_softmax(h, weights, bias):
    layer = standalone(DenseLayer, weights.shape[1], weights.shape[0])
    layer.params["W"][...] = weights
    layer.params["b"][...] = bias
    return softmax(layer.forward(np.asarray(h, dtype=np.float64)[None]))[0]


class TestDenseSoftmax:
    def test_uniform_when_zero(self):
        probs = dense_softmax(np.ones(3), np.zeros((4, 3)), np.zeros(4))
        assert np.allclose(probs, 0.25)

    def test_distribution(self):
        rng = np.random.default_rng(7)
        probs = dense_softmax(rng.normal(size=5), rng.normal(size=(3, 5)), rng.normal(size=3))
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_large_logit_stability(self):
        probs = dense_softmax(
            np.array([1.0]), np.array([[1000.0], [0.0]]), np.zeros(2)
        )
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)


def loss(logits, targets):
    return float(cross_entropy(np.asarray(logits, dtype=np.float64), targets).mean())


class TestLoss:
    def test_uniform_is_log_k(self):
        assert loss(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)

    def test_perfect_prediction_zero(self):
        assert loss(np.array([-1000.0, 0.0, -1000.0]), 1) == 0.0

    def test_l1_penalty_added(self):
        """The model's one loss path: uniform logits over 4 classes and
        every penalised activation (recurrent outputs, logits) at 2.0."""
        model, _ = build_check_model(suite_architectures()[2], seed=0)
        model.l1_activity = 0.01
        mask = np.ones((1, 3))
        seq_outs = [np.full((1, 3, 5), 2.0), np.full((1, 3, 3), 2.0)]
        logits = np.full((1, 1, 4), 2.0)  # a classifier's head reads one position
        value, count = model._objective(seq_outs, mask, logits, np.ones((1, 1)), np.array([0]))
        assert count == 15 + 9 + 4
        assert value == pytest.approx(math.log(4) + 0.02, abs=1e-12)

    def test_sequence_targets(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        want = -(math.log(0.5) + math.log(0.75)) / 2
        assert loss(np.log(probs), [0, 1]) == pytest.approx(want, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss(np.zeros(4), 4)
        with pytest.raises(ValueError):
            loss(np.zeros(4), -1)

    def test_exact_near_certainty(self):
        """Where the target's probability rounds to 1, -log of the rounded
        probability is 0 or pure rounding noise; the loss must still equal
        the sum of the other classes' probabilities to full precision."""
        logits = np.array([0.0, -40.0, -45.0])
        want = math.exp(-40.0) + math.exp(-45.0)
        assert loss(logits, 0) == pytest.approx(want, rel=1e-12, abs=0)
        assert -math.log(softmax(logits)[0]) == 0.0
        assert loss(np.array([3.0, 3.0]), 1) == pytest.approx(math.log(2), abs=1e-15)


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((3, 3))
        out = DropoutLayer(0.0).forward(x, True, np.random.default_rng(0))
        assert out is x

    def test_inference_identity(self):
        x = np.ones((3, 3))
        out = DropoutLayer(0.9).forward(x, False, np.random.default_rng(0))
        assert out is x

    def test_statistics(self):
        x = np.ones(10_000)
        out = DropoutLayer(0.5).forward(x, True, np.random.default_rng(123))
        survivors = np.count_nonzero(out)
        assert abs(survivors / 10_000 - 0.5) < 0.02
        assert abs(out.mean() - 1.0) < 0.02

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)


class TestGradCheckArguments:
    @pytest.mark.parametrize("h, tolerance", [(0.0, 1e-4), (-1e-5, 1e-4), (1e-5, 0.0), (1e-5, -1.0)])
    def test_step_and_tolerance_must_be_positive(self, h, tolerance):
        model, batch = build_check_model(suite_architectures()[1], seed=0)
        with pytest.raises(ValueError, match="must be > 0"):
            grad_check(model, batch, h, tolerance)

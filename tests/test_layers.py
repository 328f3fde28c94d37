import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from kbqa.corpus import random_embedding_table
from kbqa.gradsuite import build_check_model, run_gradcheck_suite, suite_architectures
from kbqa.model_io import load_model, save_model
from kbqa.models import (
    ArchitectureDescriptor,
    _batch,
    _examples,
    build_model,
    train,
)
from kbqa.neural import layers
from kbqa.neural.config import TrainConfig
from kbqa.neural.gradcheck import grad_check
from kbqa.neural.layers import BidirectionalLayer, Conv1dLayer, RecurrentDirection, carve
from kbqa.neural.optim import Adam

from conftest import standalone
from corpora import entity_template_corpus
from oracles import (
    conv1d_scalar,
    loss_and_grads_reference,
    recurrent_reference,
    scalar_sequence,
)


class TestBatchedAgreesWithFunctional:
    """The batched layers at B=1 against the scalar oracles."""

    def test_gru_direction(self):
        rng = np.random.default_rng(10)
        layer = standalone(RecurrentDirection, "gru", 3, 4, False, rng=rng)
        x = rng.normal(size=(1, 6, 3))
        out = layer.forward(x, np.ones((1, 6)))
        want, _ = scalar_sequence("gru", layer.params, x[0])
        for t in range(6):
            assert np.allclose(out[0, t], want[t], atol=1e-12)

    def test_lstm_direction(self):
        rng = np.random.default_rng(11)
        layer = standalone(RecurrentDirection, "lstm", 3, 4, False, rng=rng)
        x = rng.normal(size=(1, 5, 3))
        out = layer.forward(x, np.ones((1, 5)))
        want, _ = scalar_sequence("lstm", layer.params, x[0])
        for t in range(5):
            assert np.allclose(out[0, t], want[t], atol=1e-12)

    def test_bidirectional(self):
        rng = np.random.default_rng(12)
        layer = standalone(BidirectionalLayer, "gru", 3, 4, rng=rng)
        x = rng.normal(size=(1, 5, 3))
        out = layer.forward(x, np.ones((1, 5)))
        fwd, _ = scalar_sequence("gru", layer.fwd.params, x[0])
        bwd, _ = scalar_sequence("gru", layer.bwd.params, x[0][::-1])
        bwd = bwd[::-1]
        assert np.allclose(out[0], np.concatenate([fwd, bwd], axis=1), atol=1e-12)

    def test_conv(self):
        rng = np.random.default_rng(13)
        layer = standalone(Conv1dLayer, 4, 2, 3, rng=rng)
        x = rng.normal(size=(2, 5, 3))
        out = layer.forward(x)
        for b in range(2):
            want = np.maximum(np.array(conv1d_scalar(
                x[b].tolist(), layer.params["F"].tolist(), layer.params["b"].tolist()
            )), 0.0)
            assert np.allclose(out[b], want, atol=1e-12)


def ragged_batch(rng, b_size, t_len, depth):
    """Random inputs with a mask whose rows after the first end early."""
    x = rng.normal(size=(b_size, t_len, depth))
    mask = np.ones((b_size, t_len))
    for b in range(1, b_size):
        mask[b, int(rng.integers(1, t_len + 1)):] = 0.0
    return x, mask


def run_layer(layer, x, mask, d_out):
    layer.use_grads(np.zeros(layer.block.size))
    out = layer.forward(x, mask)
    dx = layer.backward(d_out)
    return out, dx, layer.grads


KINDS = [(kind, rev) for kind in ("gru", "lstm") for rev in (False, True)]


class TestFusedKernel:
    """The gate-major kernel against the per-gate reference kernel, and
    the view contract of its parameters."""

    @pytest.mark.parametrize("kind,reverse", KINDS)
    @pytest.mark.parametrize("b_size,hidden", [(1, 5), (1, 40), (5, 6)])
    def test_matches_per_gate_reference(self, kind, reverse, b_size, hidden):
        rng = np.random.default_rng(hidden + b_size)
        layer = standalone(RecurrentDirection, kind, 4, hidden, reverse, rng=rng, init_scale=0.5)
        x, mask = ragged_batch(rng, b_size, 7, 4)
        mask[-1, 1] = 0.0  # an interior pad step: state and gradients carry across it
        d_out = rng.normal(size=(b_size, 7, hidden))
        out, dx, grads = run_layer(layer, x, mask, d_out)
        want_out, want_dx, want_grads = recurrent_reference(
            kind, layer.params, x, mask, reverse, d_out
        )
        assert np.abs(out - want_out).max() <= 1e-12
        assert np.abs(dx - want_dx).max() <= 1e-12
        for name, grad in want_grads.items():
            assert np.abs(grads[name] - grad).max() <= 1e-12, name

    @pytest.mark.parametrize("kind,reverse", KINDS)
    def test_masked_batch_matches_single_examples(self, kind, reverse):
        """Each row of a ragged batch gives the outputs and dx of its own
        B=1 run over its real length; the batch gradients are their sum."""
        rng = np.random.default_rng(21)
        layer = standalone(RecurrentDirection, kind, 3, 5, reverse, rng=rng, init_scale=0.5)
        x, mask = ragged_batch(rng, 4, 6, 3)
        d_out = rng.normal(size=(4, 6, 5)) * mask[:, :, None]
        out, dx, grads = run_layer(layer, x, mask, d_out)
        out, dx, grads = out.copy(), dx.copy(), {k: g.copy() for k, g in grads.items()}
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        for b in range(4):
            n = int(mask[b].sum())
            one_out, one_dx, one_grads = run_layer(
                layer, x[b : b + 1, :n], np.ones((1, n)), d_out[b : b + 1, :n]
            )
            assert np.abs(out[b, :n] - one_out[0]).max() <= 1e-12
            assert np.abs(dx[b, :n] - one_dx[0]).max() <= 1e-12
            for name, g in one_grads.items():
                summed[name] += g
        for name, g in grads.items():
            assert np.abs(g - summed[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_params_and_grads_are_writable_views(self, kind):
        layer = standalone(RecurrentDirection, kind, 3, 4, False, rng=np.random.default_rng(0))
        layer.use_grads(np.zeros(layer.block.size))
        names = [name for name, _ in layer.layout]
        for entries, fused in ((layer.params, (layer.W, layer.U, layer.b)),
                               (layer.grads, (layer.dW, layer.dU, layer.db))):
            for gate, name in enumerate(names[::3]):
                for offset, whole in enumerate(fused):
                    arr = entries[names[3 * gate + offset]]
                    assert arr.flags.c_contiguous and arr.flags.writeable, name
                    flat = arr.reshape(-1)
                    flat[-1] = 7.5 + gate
                    assert whole[gate].reshape(-1)[-1] == 7.5 + gate, name

    def test_optimizer_and_load_update_fused_arrays(self, tmp_path):
        model, batch = build_check_model(suite_architectures()[0], seed=2)
        model.loss_and_grads(batch)
        theta = model.theta[-model.grad.size :]  # the trainable suffix
        separate = theta.copy()
        Adam(0.01).step(theta, model.grad)
        Adam(0.01).step(separate, model.grad)
        separate = carve(separate, model.layout[1:])  # embedding.E is frozen
        layer = model.recurrents[1].bwd
        assert np.array_equal(layer.U[2], separate["rec1.bwd.U_o"])
        assert np.array_equal(layer.W[0], separate["rec1.bwd.W_i"])
        assert np.array_equal(layer.b[3], separate["rec1.bwd.b_g"])

        path = tmp_path / "model.qam"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for ours, theirs in zip(
            (d for r in model.recurrents for d in (r.fwd, r.bwd)),
            (d for r in loaded.recurrents for d in (r.fwd, r.bwd)),
        ):
            for name in ("W", "U", "b"):
                assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        assert loaded.loss(batch) == model.loss(batch)


class TestMasking:
    def test_padded_batch_matches_unpadded_run(self):
        """States at real positions and the final representation must be
        unaffected by right padding."""
        rng = np.random.default_rng(14)
        layer = standalone(BidirectionalLayer, "lstm", 3, 4, rng=rng)
        x_real = rng.normal(size=(1, 3, 3))
        out_real = layer.forward(x_real, np.ones((1, 3)))
        final_real = BidirectionalLayer.final_state(out_real, 4)

        x_padded = np.concatenate([x_real, rng.normal(size=(1, 2, 3))], axis=1)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out_padded = layer.forward(x_padded, mask)
        final_padded = BidirectionalLayer.final_state(out_padded, 4)

        assert np.allclose(out_padded[:, :3, :], out_real, atol=1e-12)
        assert np.allclose(final_padded, final_real, atol=1e-12)

    def test_pad_gradients_flow_through(self):
        """Loss on a padded batch must produce the gradients of the
        unpadded computation."""
        rng = np.random.default_rng(15)

        def grads_for(t_len, mask_len):
            layer = standalone(BidirectionalLayer, "gru", 2, 3, rng=np.random.default_rng(77))
            x = np.zeros((1, t_len, 2))
            x[:, :3, :] = base_x
            mask = np.zeros((1, t_len))
            mask[0, :mask_len] = 1.0
            out = layer.forward(x, mask)
            grads = np.zeros(2 * layer.fwd.block.size)
            layer.use_grads(grads)
            d_out = np.zeros_like(out)
            d_out[:, :3, :] = base_grad
            layer.backward(d_out)
            return grads

        base_x = rng.normal(size=(1, 3, 2))
        base_grad = rng.normal(size=(1, 3, 6))
        assert np.allclose(grads_for(3, 3), grads_for(5, 3), atol=1e-12)


class TestGradCheck:
    def test_quadratic_model_near_exact(self):
        class Quadratic:
            """loss = sum((W x - y)^2) / n; analytic gradient exact."""

            def __init__(self):
                rng = np.random.default_rng(16)
                self.w = rng.normal(size=(3, 4))

            def trainable_params(self):
                return {"w": self.w}

            def loss(self, example):
                x, y = example
                r = self.w @ x - y
                return float((r * r).sum() / r.size)

            def loss_and_grads(self, example):
                x, y = example
                r = self.w @ x - y
                return self.loss(example), {"w": 2.0 * np.outer(r, x) / r.size}

        rng = np.random.default_rng(17)
        example = (rng.normal(size=4), rng.normal(size=3))
        report = grad_check(Quadratic(), example, h=1e-5, tolerance=1e-9)
        assert report.passed
        assert report.max_relative_error < 1e-9

    def test_corrupted_gradient_fails_naming_param(self):
        model, batch = build_check_model(suite_architectures()[1], seed=5)

        class Corrupted:
            def trainable_params(self):
                return model.trainable_params()

            def loss(self, example):
                return model.loss(example)

            def loss_and_grads(self, example):
                value, grads = model.loss_and_grads(example)
                bad = grads["dense.W"].copy()
                flat_idx = int(np.abs(bad).argmax())
                bad.flat[flat_idx] *= 2.0
                grads["dense.W"] = bad
                return value, grads

        report = grad_check(Corrupted(), batch, h=1e-5, tolerance=1e-4)
        assert not report.passed
        assert report.worst_param == "dense.W"

    @pytest.mark.parametrize("arch_index", range(4))
    def test_architecture_gradients(self, arch_index):
        desc = suite_architectures()[arch_index]
        model, batch = build_check_model(desc, seed=0)
        report = grad_check(model, batch, h=1e-5, tolerance=1e-4)
        assert report.passed, f"{desc.kind}: {report}"

    def test_full_suite_passes(self):
        for kind, report in run_gradcheck_suite(seed=0):
            assert report.passed, f"{kind}: max={report.max_relative_error:.3e}"


class TestTrainedGradCheck:
    def test_well_trained_bilstm2_passes_grad_check(self):
        """Near zero loss, -log of a softmax probability that rounds to 1 is
        rounding noise larger than the finite differences it feeds; the
        exact cross-entropy keeps the check meaningful on a trained model."""
        corpus, _ = entity_template_corpus(40, seed=11, n_names=10)
        vocab = [t for q in corpus for t in q.tokens]
        embeddings = random_embedding_table(vocab, 8, seed=3)
        desc = ArchitectureDescriptor("ENTITY", "BILSTM2", (6, 4), (0.0, 0.0))
        model = build_model(desc, embeddings, None, vocab_tokens=vocab, seed=5)
        optimizer = Adam(0.02)
        batch = _batch(model, _examples(model, corpus[:4], None))
        for chunk in range(80):
            train(model, corpus, TrainConfig(epochs=10, batch_size=10, seed=chunk), optimizer)
            if model.loss(batch) < 3e-5:
                break
        assert model.loss(batch) < 3e-5
        report = grad_check(model, batch, h=1e-5, tolerance=1e-5)
        assert report.passed, str(report)


class TestBackwardProperties:
    def test_zero_loss_configuration_zero_grads(self):
        """Force probability ~1 on the target; all gradients vanish."""
        model, batch = build_check_model(suite_architectures()[2], seed=3)
        model.l1_activity = 0.0
        ids, mask, _ = batch
        _, logits, _ = model._forward(ids, mask, training=False)
        forced = np.argmax(logits[:, 0], axis=1)
        model.dense.params["b"][:] = 0.0
        model.dense.params["W"][:] = 0.0
        model.dense.params["b"][forced[0]] = 60.0
        targets = np.full(ids.shape[0], forced[0], dtype=np.int64)
        loss, grads = model.loss_and_grads((ids, mask, targets))
        assert loss < 1e-12
        for name, grad in grads.items():
            assert np.abs(grad).max() < 1e-12, name

    def test_duplicated_example_keeps_gradients(self):
        """Mean reduction: duplicating every example changes nothing."""
        model, batch = build_check_model(suite_architectures()[3], seed=9)
        ids, mask, targets = batch
        _, single = model.loss_and_grads((ids, mask, targets))
        doubled = (
            np.concatenate([ids, ids]),
            np.concatenate([mask, mask]),
            np.concatenate([targets, targets]),
        )
        _, twice = model.loss_and_grads(doubled)
        for name in single:
            assert np.allclose(single[name], twice[name], atol=1e-12), name


class TestOneLossPath:
    """The one objective against the per-task formulas it replaced
    (oracles.loss_and_grads_reference), on padded batches.  A classifier's
    logit gradient is now scaled by fl(1/B) where it was divided by B, so
    its gradients agree bit for bit only where B is a power of two.
    Elsewhere that last-bit difference reaches each tensor through sums
    that cancel: over 320 random BIGRU2 and CONV_GRU batches of 7 and 20,
    the largest difference was 3.1e-15 of its tensor's largest value."""

    @pytest.mark.parametrize("l1", [0.0, 0.01])
    @pytest.mark.parametrize("b_size", [1, 7, 16, 20])
    @pytest.mark.parametrize("arch", range(4))
    def test_matches_the_per_task_formulas(self, arch, b_size, l1):
        desc = suite_architectures()[arch]
        model, (ids, _, _) = build_check_model(desc, seed=5)
        model.l1_activity = l1
        rng = np.random.default_rng(b_size)
        t_len = ids.shape[1]
        lengths = rng.integers(1, t_len + 1, b_size)
        lengths[0] = t_len - 1  # at least one padded row
        mask = (np.arange(t_len) < lengths[:, None]).astype(float)
        ids = rng.integers(2, 12, (b_size, t_len)) * mask.astype(np.int64)
        if desc.task == "ENTITY":
            targets = rng.integers(0, 2, (b_size, t_len)) * mask.astype(np.int64)
        else:
            targets = rng.integers(0, 3, b_size)
        batch = (ids, mask, targets)

        loss, grads = model.loss_and_grads(batch)
        grads = {name: g.copy() for name, g in grads.items()}
        want_loss, want = loss_and_grads_reference(model, batch)
        assert loss == want_loss
        assert model.loss(batch) == want_loss
        exact = desc.task == "ENTITY" or b_size in (1, 16)
        for name, grad in grads.items():
            if exact:
                assert np.array_equal(grad, want[name]), name
            else:
                assert np.abs(grad - want[name]).max() <= 1e-14 * np.abs(want[name]).max(), name


def _sequential(layer, x, mask):
    return np.concatenate([layer.fwd.forward(x, mask), layer.bwd.forward(x, mask)], axis=2)


def _record_threads(direction, seen):
    """Make direction.forward note the thread that runs it in seen."""
    forward = direction.forward

    def recorded(*args):
        seen.append(threading.get_ident())
        return forward(*args)

    direction.forward = recorded


def _can_overlap():
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) >= 2


class TestOverlappedDirections:
    """Above OVERLAP_MIN_U the reverse direction runs on the worker thread
    while the caller runs the forward one; the output must not change."""

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("b_size", [1, 5])
    def test_equals_sequential_directions(self, kind, b_size):
        rng = np.random.default_rng(b_size)
        layer = standalone(BidirectionalLayer, kind, 6, 300, rng=rng)
        assert layer.bwd.U.size >= layers.OVERLAP_MIN_U
        x, mask = ragged_batch(rng, b_size, 9, 6)
        assert np.array_equal(layer.forward(x, mask), _sequential(layer, x, mask))

    @pytest.mark.parametrize("hidden,overlapped", [(300, True), (50, False)])
    def test_reverse_direction_thread(self, hidden, overlapped):
        rng = np.random.default_rng(2)
        layer = standalone(BidirectionalLayer, "lstm", 6, hidden, rng=rng)
        seen = []
        _record_threads(layer.bwd, seen)
        layer.forward(*ragged_batch(rng, 2, 5, 6))
        elsewhere = overlapped and _can_overlap()
        assert (seen[0] != threading.get_ident()) == elsewhere

    def test_one_cpu_runs_both_directions_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(layers, "_worker", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        rng = np.random.default_rng(3)
        layer = standalone(BidirectionalLayer, "gru", 6, 300, rng=rng)
        seen = []
        _record_threads(layer.bwd, seen)
        layer.forward(*ragged_batch(rng, 2, 5, 6))
        assert seen == [threading.get_ident()]
        assert layers._worker is None

    def test_wrong_width_raises_and_the_layer_still_works(self):
        rng = np.random.default_rng(4)
        layer = standalone(BidirectionalLayer, "lstm", 6, 300, rng=rng)
        with pytest.raises(ValueError, match="layer expects 6"):
            layer.forward(rng.normal(size=(2, 5, 7)), np.ones((2, 5)))
        x, mask = ragged_batch(rng, 3, 5, 6)
        assert np.array_equal(layer.forward(x, mask), _sequential(layer, x, mask))

    def test_caller_error_waits_for_the_reverse_direction(self):
        rng = np.random.default_rng(5)
        layer = standalone(BidirectionalLayer, "gru", 6, 300, rng=rng)
        finished = []
        reverse = layer.bwd.forward

        def slow_reverse(*args):
            time.sleep(0.05)
            out = reverse(*args)
            finished.append(True)
            return out

        def failing_forward(*args):
            raise RuntimeError("forward direction failed")

        layer.bwd.forward = slow_reverse
        layer.fwd.forward = failing_forward
        with pytest.raises(RuntimeError, match="forward direction failed"):
            layer.forward(*ragged_batch(rng, 2, 5, 6))
        assert finished == [True]

    def test_concurrent_callers_share_one_worker(self, monkeypatch):
        monkeypatch.setattr(layers, "_worker", None)
        rng = np.random.default_rng(6)
        jobs, seen = [], []
        for kind in ("lstm", "gru") * 3:
            layer = standalone(BidirectionalLayer, kind, 6, 300, rng=rng)
            x, mask = ragged_batch(rng, 2, 4, 6)
            jobs.append((layer, x, mask, _sequential(layer, x, mask)))
            _record_threads(layer.bwd, seen)
        results = [None] * len(jobs)

        def call(i):
            layer, x, mask, want = jobs[i]
            results[i] = all(np.array_equal(layer.forward(x, mask), want) for _ in range(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if layers._worker is not None:
                layers._worker.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * len(jobs)
        callers = {thread.ident for thread in threads}
        reverse_threads = set(seen) - callers
        assert len(reverse_threads) == (1 if _can_overlap() else 0)


# Run in a fresh process per BLAS thread count, in which importing the
# layers has started no thread: with two directions in flight at once,
# each BLAS call must still give the bytes it gives alone, and a forked
# child must start a worker of its own.
_BLAS_SCRIPT = """
import os
import signal
import threading
import time

import numpy as np

from kbqa.neural.layers import BidirectionalLayer, RecurrentDirection, layout_size

assert threading.active_count() == 1, "importing the layers started a thread"
rng = np.random.default_rng(7)
for kind in ("lstm", "gru"):
    n = layout_size(RecurrentDirection.shapes(kind, 8, 400))
    layer = BidirectionalLayer(kind, 8, 400, rng.uniform(-0.08, 0.08, 2 * n))
    for b_size in (1, 50):
        x = rng.normal(size=(b_size, 9, 8))
        mask = np.ones((b_size, 9))
        for b in range(1, b_size):
            mask[b, int(rng.integers(1, 10)):] = 0.0
        overlapped = layer.forward(x, mask)
        sequential = np.concatenate([layer.fwd.forward(x, mask), layer.bwd.forward(x, mask)], axis=2)
        assert overlapped.tobytes() == sequential.tobytes(), (kind, b_size)
assert threading.active_count() <= 2, "more than one worker thread"
if hasattr(os, "fork"):  # a forked child cannot use its parent's worker thread
    same = False
    pid = os.fork()
    if pid == 0:
        try:
            same = layer.forward(x, mask).tobytes() == sequential.tobytes()
        finally:
            os._exit(0 if same else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        raise AssertionError("the forked child's forward did not finish")
    assert os.waitstatus_to_exitcode(status) == 0, "the forked child's forward failed"
print("ok")
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_overlap_is_byte_identical_at_each_blas_thread_count(blas_threads):
    src = str(Path(layers.__file__).parents[2])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"

"""Batched layers with explicit backward passes.

Inputs are [batch, time, features] float64 arrays with a [batch, time]
mask (1.0 = real token, 0.0 = pad).  Recurrent layers carry the previous
state through masked steps, so right padding never alters the states
seen at real positions and gradients flow straight through pad steps.

Every parameter layer exposes params/grads dicts keyed by local names:
views of one flat block each, in the order its `shapes` lists them.

Recurrent cells (sigmoid s, elementwise *, inputs are row vectors):

  GRU   z = s(x W_z + h U_z + b_z)          LSTM  i, f, o = s(gates)
        r = s(x W_r + h U_r + b_r)                g = tanh(x W_g + h U_g + b_g)
        hc = tanh(x W_h + (r*h) U_h + b_h)        c' = f*c + i*g
        h' = z*h + (1 - z)*hc                     h' = o*tanh(c')

Both cells share one gate-major kernel.  A direction's block holds W_z,
U_z, b_z, W_r, ... for the GRU (k = 3 gates z, r, h) and W_i, U_i, b_i,
... for the LSTM (k = 4 gates i, f, o, g); the kernel reads W [k, D, H],
U [k, H, H] and b [k, H], strided views of the block whose gate axis
steps over one gate's W, U and b, and dW, dU, db likewise from the grads
block.  Every params and grads entry is a C-contiguous writable view, so
in-place writes reach the arrays the kernel reads: the optimizer's step
on the model's whole parameter vector and finite-difference checks
writing through `arr.reshape(-1)`.  A model hands each layer its run of
that one vector as the layer's block.

The forward pass projects every step's input with one GEMM, then runs
one recurrent GEMM per step (two for the GRU, whose candidate reads
r*h).  The backward pass writes each step's gate gradients into one
time-major [T, B, k, H] buffer and forms dW, dU, db and dx from it with
one GEMM each after the loop.
"""

import math

import numpy as np

__all__ = [
    "BidirectionalLayer",
    "Conv1dLayer",
    "DenseLayer",
    "DropoutLayer",
    "EmbeddingLayer",
    "RecurrentDirection",
    "carve",
    "cross_entropy",
    "layout_size",
    "sigmoid",
    "softmax",
]

def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5*(1 + tanh(x/2)): one pass, no overflow."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, targets) -> np.ndarray:
    """-log softmax(logits)[target] for every row of the last axis.

    Computed as log1p(sum_{j != m} exp(z_j - z_m)) - (z_t - z_m), with m
    the row's argmax, so no log is taken of a probability that rounds to
    1: the loss keeps its relative precision as it approaches 0, which
    finite-difference gradient checks on a well-trained model rely on.
    """
    targets = np.asarray(targets)
    n_classes = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValueError(f"targets out of range for {n_classes} classes")
    top = np.argmax(logits, axis=-1)[..., None]
    shifted = logits - np.take_along_axis(logits, top, axis=-1)
    rest = np.exp(shifted)
    np.put_along_axis(rest, top, 0.0, axis=-1)
    picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    return np.log1p(rest.sum(axis=-1)) - picked


def layout_size(layout) -> int:
    """The number of values the (name, shape) pairs of a layout hold."""
    return sum(math.prod(shape) for _, shape in layout)


def carve(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """One C-contiguous view of vector per (name, shape) of layout, in order."""
    views, at = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = vector[at : at + size].reshape(shape)
        at += size
    return views


class _ParamLayer:
    """A layer whose params are views of one flat float64 block."""

    def __init__(self, layout, block):
        self.layout = layout
        self.block = block
        self.params = carve(block, layout)
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def use_grads(self, block: np.ndarray) -> None:
        """Add the next backward passes' gradients into block, laid out as the params."""
        self.grads = carve(block, self.layout)

    def forget(self):
        """Drop the activations forward keeps for backward."""
        self._cache = None


class EmbeddingLayer(_ParamLayer):
    """Row lookup into a [vocab, dim] matrix; row 0 is reserved for padding
    and is never updated.  It takes gradients only while trainable."""

    PAD_ROW = 0

    def __init__(self, matrix: np.ndarray, trainable: bool):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        super().__init__([("E", matrix.shape)], matrix.reshape(-1))
        self.trainable = trainable

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._cache = ids
        return self.params["E"][ids]

    def backward(self, d_out: np.ndarray) -> None:
        if not self.trainable:
            return
        grad = self.grads["E"]
        np.add.at(grad, self._cache, d_out)
        grad[self.PAD_ROW] = 0.0


class RecurrentDirection(_ParamLayer):
    """One direction of a GRU or LSTM over a padded batch (see the module
    docstring for the parameter layout)."""

    def __init__(self, kind: str, input_dim: int, hidden_dim: int, reverse: bool,
                 block: np.ndarray):
        layout = self.shapes(kind, input_dim, hidden_dim)  # raises for an unknown kind
        self.kind = kind
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.reverse = reverse
        super().__init__(layout, block)
        self.W, self.U, self.b = self._fused(self.block)

    @staticmethod
    def shapes(kind: str, input_dim: int, hidden_dim: int) -> list[tuple[str, tuple[int, ...]]]:
        """The direction's arrays, gate by gate: W_z, U_z, b_z, W_r, ..."""
        if kind not in ("gru", "lstm"):
            raise ValueError(f"unknown cell kind {kind!r}")
        shape = {"W": (input_dim, hidden_dim), "U": (hidden_dim, hidden_dim), "b": (hidden_dim,)}
        return [(f"{m}_{gate}", shape[m]) for gate in ("zrh" if kind == "gru" else "ifog")
                for m in "WUb"]

    def _fused(self, block: np.ndarray):
        """W [k, D, H], U [k, H, H] and b [k, H]: views of the block's rows [k, D*H + H*H + H]."""
        d, h = self.input_dim, self.hidden_dim
        rows = block.reshape(len(self.layout) // 3, -1)
        return (rows[:, : d * h].reshape(-1, d, h), rows[:, d * h : -h].reshape(-1, h, h),
                rows[:, -h:])

    def use_grads(self, block: np.ndarray) -> None:
        super().use_grads(block)
        self.dW, self.dU, self.db = self._fused(block)

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        b_size, t_len, depth = x.shape
        if depth != self.input_dim:
            raise ValueError(f"input has {depth} features, layer expects {self.input_dim}")
        k, hidden = self.b.shape
        lstm = self.kind == "lstm"
        rev = int(self.reverse)
        U = self.U
        # time-major throughout, so every per-step slice is contiguous
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(-1, depth)
        xw = np.matmul(x_tm, self.W).reshape(k, t_len, b_size, hidden)
        xw += self.b[:, None, None, :]
        gates = np.empty((t_len, k, b_size, hidden))
        # hs[t + rev] is the state entering step t, hs[t + 1 - rev] the one leaving it
        hs = np.zeros((t_len + 1, b_size, hidden))
        cs = np.zeros_like(hs) if lstm else None
        aux = np.empty((t_len, b_size, hidden))  # LSTM tanh(c'), GRU r*h
        pads = mask.T[:, :, None] == 0.0
        full = (~pads.any(axis=(1, 2))).tolist()
        for t in range(t_len - 1, -1, -1) if rev else range(t_len):
            h, h_new, a = hs[t + rev], hs[t + 1 - rev], gates[t]
            if lstm:
                np.matmul(h, U, out=a)
                a += xw[:, t]
                sigmoid(a[:3], out=a[:3])
                np.tanh(a[3], out=a[3])
                i, f, o, g = a
                c, c_new = cs[t + rev], cs[t + 1 - rev]
                np.multiply(f, c, out=c_new)
                c_new += i * g
                np.multiply(o, np.tanh(c_new, out=aux[t]), out=h_new)
            else:
                np.matmul(h, U[:2], out=a[:2])
                a[:2] += xw[:2, t]
                sigmoid(a[:2], out=a[:2])
                z, r, hc = a
                np.matmul(np.multiply(r, h, out=aux[t]), U[2], out=hc)
                hc += xw[2, t]
                np.tanh(hc, out=hc)
                np.subtract(h, hc, out=h_new)
                h_new *= z
                h_new += hc
            if not full[t]:
                np.copyto(h_new, h, where=pads[t])
                if lstm:
                    np.copyto(c_new, c, where=pads[t])
        self._cache = (x_tm, gates, hs, cs, aux, pads, full)
        return hs[1 - rev : t_len + 1 - rev].transpose(1, 0, 2)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        x_tm, gates, hs, cs, aux, pads, full = self._cache
        t_len, k, b_size, hidden = gates.shape
        lstm = self.kind == "lstm"
        rev = int(self.reverse)
        h_prev = hs[rev : t_len + rev]
        # gate-gradient buffer: each step's slot is first filled with the
        # local derivatives of all steps at once, then scaled in the loop
        # by that step's incoming state gradients
        d_gates = np.zeros((t_len, b_size, k, hidden))
        slots = d_gates.transpose(0, 2, 1, 3)  # [T, k, B, H] view
        sig = gates[:, : k - 1]
        d_sig = sig * (1.0 - sig)
        if lstm:
            i, f, o, g = gates.transpose(1, 0, 2, 3)
            np.multiply(g, d_sig[:, 0], out=slots[:, 0])
            np.multiply(cs[rev : t_len + rev], d_sig[:, 1], out=slots[:, 1])
            np.multiply(i, 1.0 - g * g, out=slots[:, 3])
            k_o = aux * d_sig[:, 2]  # dh' -> output gate
            k_c = o * (1.0 - aux * aux)  # dh' -> c'
            u_cat = self.U.transpose(0, 2, 1).reshape(k * hidden, hidden)
        else:
            z, r, hc = gates.transpose(1, 0, 2, 3)
            np.multiply(h_prev - hc, d_sig[:, 0], out=slots[:, 0])
            np.multiply(1.0 - z, 1.0 - hc * hc, out=slots[:, 2])
            k_r = h_prev * d_sig[:, 1]  # d(r*h) -> reset gate
            u_zr = self.U[:2].transpose(0, 2, 1).reshape(2 * hidden, hidden)
            u_h = self.U[2].T
        dh = np.zeros((b_size, hidden))
        dc = np.zeros((b_size, hidden))
        for t in range(t_len) if rev else range(t_len - 1, -1, -1):
            dh += d_out[:, t]
            dh_new, dc_new = dh, dc
            if not full[t]:
                dh_new = np.where(pads[t], 0.0, dh)
                dc_new = np.where(pads[t], 0.0, dc)
            slot = d_gates[t]
            if lstm:
                dc_new = dc_new + dh_new * k_c[t]
                slot *= dc_new[:, None, :]
                np.multiply(dh_new, k_o[t], out=slot[:, 2])
                dc_prev = dc_new * f[t]
                dh_prev = slot.reshape(b_size, -1) @ u_cat
            else:
                slot[:, ::2] *= dh_new[:, None, :]
                d_rh = slot[:, 2] @ u_h
                np.multiply(d_rh, k_r[t], out=slot[:, 1])
                dh_prev = dh_new * z[t]
                dh_prev += d_rh * r[t]
                dh_prev += slot[:, :2].reshape(b_size, -1) @ u_zr
            if not full[t]:
                np.copyto(dh_prev, dh, where=pads[t])
                if lstm:
                    np.copyto(dc_prev, dc, where=pads[t])
            dh = dh_prev
            if lstm:
                dc = dc_prev
        per_gate = d_gates.reshape(-1, k, hidden).transpose(1, 0, 2)  # [k, T*B, H]
        self.dW += np.matmul(x_tm.T, per_gate)
        h_flat = h_prev.reshape(-1, hidden)
        if lstm:
            self.dU += np.matmul(h_flat.T, per_gate)
        else:
            self.dU[:2] += np.matmul(h_flat.T, per_gate[:2])
            self.dU[2] += aux.reshape(-1, hidden).T @ per_gate[2]
        self.db += d_gates.sum(axis=(0, 1))
        w_cat = self.W.transpose(0, 2, 1).reshape(k * hidden, -1)
        dx = d_gates.reshape(t_len * b_size, -1) @ w_cat
        return dx.reshape(t_len, b_size, -1).transpose(1, 0, 2)


class BidirectionalLayer:
    """Forward and backward recurrences with concatenated outputs [B, T, 2H].

    The final sequence representation (for classification heads) is
    concat(forward state at the last step, backward state at step 0);
    with carry masking these are the states after the last real token in
    each direction.
    """

    def __init__(self, kind: str, input_dim: int, hidden_dim: int, block: np.ndarray):
        self.kind = kind
        self.hidden_dim = hidden_dim
        self.fwd, self.bwd = (RecurrentDirection(kind, input_dim, hidden_dim, reverse, half)
                              for reverse, half in zip((False, True), np.split(block, 2)))

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_dim

    def use_grads(self, block: np.ndarray) -> None:
        """RecurrentDirection.use_grads for the two halves of block."""
        half = block.size // 2
        self.fwd.use_grads(block[:half])
        self.bwd.use_grads(block[half:])

    def forget(self):
        self.fwd.forget()
        self.bwd.forget()

    def forward(self, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [self.fwd.forward(x, mask), self.bwd.forward(x, mask)], axis=2
        )

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        h = self.hidden_dim
        return self.fwd.backward(d_out[:, :, :h]) + self.bwd.backward(d_out[:, :, h:])

    @staticmethod
    def final_state(out: np.ndarray, hidden_dim: int) -> np.ndarray:
        return np.concatenate([out[:, -1, :hidden_dim], out[:, 0, hidden_dim:]], axis=1)

    @staticmethod
    def inject_final_grad(d_final: np.ndarray, out_shape, hidden_dim: int) -> np.ndarray:
        d_out = np.zeros(out_shape)
        d_out[:, -1, :hidden_dim] = d_final[:, :hidden_dim]
        d_out[:, 0, hidden_dim:] = d_final[:, hidden_dim:]
        return d_out


class Conv1dLayer(_ParamLayer):
    """Causal same-length 1-D convolution (left zero pad) with ReLU."""

    def __init__(self, n_filters: int, width: int, input_dim: int, block: np.ndarray):
        super().__init__(self.shapes(n_filters, width, input_dim), block)
        self.n_filters = n_filters
        self.width = width
        self.input_dim = input_dim

    @staticmethod
    def shapes(n_filters: int, width: int, input_dim: int) -> list[tuple[str, tuple[int, ...]]]:
        return [("F", (n_filters, width, input_dim)), ("b", (n_filters,))]

    @property
    def output_dim(self) -> int:
        return self.n_filters

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, t_len, depth = x.shape
        padded = np.concatenate([np.zeros((b, self.width - 1, depth)), x], axis=1)
        pre = np.broadcast_to(self.params["b"], (b, t_len, self.n_filters)).copy()
        for j in range(self.width):
            pre += padded[:, j : j + t_len, :] @ self.params["F"][:, j, :].T
        self._cache = (padded, pre > 0.0, t_len)
        return np.maximum(pre, 0.0)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        padded, active, t_len = self._cache
        d_pre = d_out * active
        self.grads["b"] += d_pre.sum(axis=(0, 1))
        d_flat = d_pre.reshape(-1, self.n_filters)
        d_padded = np.zeros_like(padded)
        for j in range(self.width):
            window = padded[:, j : j + t_len, :].reshape(-1, padded.shape[2])
            self.grads["F"][:, j, :] += d_flat.T @ window
            d_padded[:, j : j + t_len, :] += d_pre @ self.params["F"][:, j, :]
        return d_padded[:, self.width - 1 :, :]


class DenseLayer(_ParamLayer):
    """Affine map to class logits; weights are [classes, hidden]."""

    def __init__(self, input_dim: int, n_classes: int, block: np.ndarray):
        super().__init__(self.shapes(input_dim, n_classes), block)
        self.input_dim = input_dim
        self.n_classes = n_classes

    @staticmethod
    def shapes(input_dim: int, n_classes: int) -> list[tuple[str, tuple[int, ...]]]:
        return [("W", (n_classes, input_dim)), ("b", (n_classes,))]

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, x.shape[-1])
        self._cache = (flat, x.shape)
        logits = flat @ self.params["W"].T + self.params["b"]
        return logits.reshape(*x.shape[:-1], self.n_classes)

    def backward(self, d_logits: np.ndarray) -> np.ndarray:
        flat_in, in_shape = self._cache
        d_flat = d_logits.reshape(-1, self.n_classes)
        self.grads["W"] += d_flat.T @ flat_in
        self.grads["b"] += d_flat.sum(axis=0)
        return (d_flat @ self.params["W"]).reshape(in_shape)


class DropoutLayer:
    """Inverted dropout; identity at inference or rate 0."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, training: bool, rng: np.random.Generator) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return d_out
        return d_out * self._mask

"""Trainable models: frame encoder, encoder+LSTM phase model, Adam.

Everything is plain numpy with hand-written backward passes. Products over
a stack of rows are one BLAS call each: the encoder's forward and input
gradients, the LSTM's input products and the classifier are one gemm per
batch or chunk, and weight gradients one gemm over all rows (`dz.T @ a`).
A row of such a product is not bitwise independent of the rows around it,
so a row embedded alone can differ in its last bits from the same row
inside a batch. The bits are fixed by the shapes: the same inputs give the
same outputs at any BLAS thread count. The kernel also follows the memory
order of the operands, so the constructors require C-contiguous weights
and the entry points make their inputs contiguous.

The encoder's `forward` and `forward_cached` run one layer loop, so they
give the same bits. The per-frame LSTM loops write into preallocated
buffers. Their ufuncs take `out` positionally (no keyword parsing) and
constants as prebuilt arrays of the model dtype (no float conversion per
call). A forward step is 10 numpy calls and a backward step 6; see
`_recurrence` and `_recurrence_backward`. The forward writes the hidden
and cell states into (T+1)-row histories whose row 0 is the carried-in
state, so a chunk's cache holds the states before and after each step as
views of them.

Adam updates every parameter of a step as one flat array: per element the
same operations, in the same order, as a per-parameter update. The layout
is fixed at the first step; a later step with other parameter names, sizes
or dtype is an error.

The constructors own the shape rules, and the checkpoint loader builds
through them. `EncoderModel` refuses a weight that is not 2-D, a bias that
is not one entry per weight row, and a layer whose input width is not the
previous layer's output width. `PhaseModel` refuses LSTM and classifier
parameters whose five shapes do not fit one hidden size, one phase count
and the encoder's embedding width.

Parameters are stored as float32 by default (matching the checkpoint
format); gradient-check tests build float64 models instead. A parameter is
addressed by name in the dicts exchanged between backward passes, the
optimizer, and checkpoints. This module owns the name table:
`EncoderModel.parameter_names` names an encoder's layers and
`PhaseModel.HEAD` the head's five parameters in constructor order.
`parameters()`, both backward passes and the checkpoint loader take their
names from these two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32


def _uniform_fan_in(rng, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class EncoderModel:
    """Stack of affine-then-rectifier layers mapping input features to embeddings."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        self.weights = list(weights)
        self.biases = list(biases)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != w.shape[:1]:
                raise ValueError(f"encoder layer {i} needs a 2-D weight and a "
                                 f"bias of its rows, got {w.shape} and {b.shape}")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"encoder layer {i} takes {w.shape[1]} inputs, "
                                 f"layer {i - 1} gives {self.weights[i - 1].shape[0]}")
        if not all(w.flags.c_contiguous for w in self.weights):
            raise ValueError("encoder weights must be C-contiguous")

    @classmethod
    def create(cls, input_dim, hidden_sizes, embedding_dim, dtype=DEFAULT_DTYPE):
        """Zero-initialized encoder with sizes input -> hidden... -> embedding."""
        sizes = [int(input_dim), *(int(h) for h in hidden_sizes), int(embedding_dim)]
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
        weights = [np.zeros((sizes[i + 1], sizes[i]), dtype=dtype) for i in range(len(sizes) - 1)]
        biases = [np.zeros(sizes[i + 1], dtype=dtype) for i in range(len(sizes) - 1)]
        return cls(weights, biases)

    @property
    def dtype(self):
        return self.weights[0].dtype

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim] + [w.shape[0] for w in self.weights]

    @property
    def trainable(self) -> list[bool]:
        """Every layer trains. Kept only because the benchmark's MAC count
        (perfbench/layers.py:_encoder_backward_done) reads it."""
        return [True] * self.num_layers

    def init_uniform_fan(self, rng) -> "EncoderModel":
        """Draw every parameter uniformly from (-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            fan_in = w.shape[1]
            self.weights[i] = _uniform_fan_in(rng, w.shape, fan_in, w.dtype)
            self.biases[i] = _uniform_fan_in(rng, b.shape, fan_in, b.dtype)
        return self

    @staticmethod
    def parameter_names(num_layers: int) -> list[str]:
        """An encoder's parameter names: each layer's weight, then its bias."""
        return [f"encoder.{i}.{p}" for i in range(num_layers)
                for p in ("weight", "bias")]

    def parameters(self) -> dict[str, np.ndarray]:
        arrays = [p for wb in zip(self.weights, self.biases) for p in wb]
        return dict(zip(self.parameter_names(self.num_layers), arrays))

    def _layers(self, x, cache: list | None) -> np.ndarray:
        """The layer loop of `forward` and `forward_cached`: the embedding of
        `x`, appending each layer's (input, pre-activation) to `cache` unless
        it is None."""
        a = np.ascontiguousarray(x, dtype=self.dtype)
        if a.shape[-1] != self.input_dim:
            raise ValueError(f"input dimension {a.shape[-1]} does not match "
                             f"encoder input {self.input_dim}")
        for w, b in zip(self.weights, self.biases):
            z = a @ w.T + b
            if cache is not None:
                cache.append((a, z))
            a = np.maximum(z, 0)
        return a

    def forward(self, x) -> np.ndarray:
        """Embed a single feature vector or a (batch, features) stack."""
        return self._layers(x, None)

    def forward_cached(self, x: np.ndarray):
        """Batched forward keeping per-layer inputs and pre-activations."""
        if np.ndim(x) != 2:
            raise ValueError("forward_cached expects a (batch, features) array")
        cache = []
        return self._layers(x, cache), cache

    def backward(self, cache, grad_embedding: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of every parameter for one cached forward, each summed
        over all rows of the batch."""
        if len(cache) != self.num_layers:
            raise ValueError("cache does not match this encoder")
        names = self.parameter_names(self.num_layers)
        grads: dict[str, np.ndarray] = {}
        da = grad_embedding
        for i in reversed(range(self.num_layers)):
            a_in, z = cache[i]
            dz = da * (z > 0)
            grads[names[2 * i]] = dz.T @ a_in
            grads[names[2 * i + 1]] = dz.sum(axis=0)
            if i > 0:
                da = dz @ self.weights[i]
        return grads

    def copy(self) -> "EncoderModel":
        return EncoderModel([w.copy() for w in self.weights],
                            [b.copy() for b in self.biases])


@dataclass
class LstmState:
    """Hidden and cell vectors carried between chunks of one video."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, dtype=DEFAULT_DTYPE) -> "LstmState":
        return cls(np.zeros(hidden_size, dtype=dtype), np.zeros(hidden_size, dtype=dtype))


class PhaseModel:
    """Encoder followed by a single LSTM layer and an affine phase classifier.

    LSTM gate packing order along the 4H axis is input, forget, candidate,
    output.
    """

    HEAD = ("lstm.w_input", "lstm.w_hidden", "lstm.bias",
            "classifier.weight", "classifier.bias")  # in constructor order

    def __init__(self, encoder: EncoderModel, lstm_w_input, lstm_w_hidden,
                 lstm_bias, clf_weight, clf_bias):
        self.encoder = encoder
        self.lstm_w_input = lstm_w_input
        self.lstm_w_hidden = lstm_w_hidden
        self.lstm_bias = lstm_bias
        self.clf_weight = clf_weight
        self.clf_bias = clf_bias
        # Hidden size and phase count from the bias sizes, which arrays of
        # any rank have, so a weight of the wrong rank is refused, not indexed.
        h, k = lstm_bias.size // 4, clf_bias.size
        got = [p.shape for p in self._head()]
        want = [(4 * h, encoder.embedding_dim), (4 * h, h), (4 * h,), (k, h), (k,)]
        if got != want:
            raise ValueError(f"LSTM and classifier shapes {got} do not fit one "
                             f"hidden size and phase count; expected {want}")
        if not all(w.flags.c_contiguous for w in (lstm_w_input, lstm_w_hidden, clf_weight)):
            raise ValueError("LSTM and classifier weights must be C-contiguous")

    def _head(self) -> tuple[np.ndarray, ...]:
        return (self.lstm_w_input, self.lstm_w_hidden, self.lstm_bias,
                self.clf_weight, self.clf_bias)

    @classmethod
    def create(cls, encoder: EncoderModel, hidden_size: int, num_phases: int):
        if num_phases < 2:
            raise ValueError("need at least 2 phases")
        if hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        d = encoder.embedding_dim
        dt = encoder.dtype
        return cls(
            encoder,
            np.zeros((4 * hidden_size, d), dtype=dt),
            np.zeros((4 * hidden_size, hidden_size), dtype=dt),
            np.zeros(4 * hidden_size, dtype=dt),
            np.zeros((num_phases, hidden_size), dtype=dt),
            np.zeros(num_phases, dtype=dt),
        )

    @property
    def hidden_size(self) -> int:
        return self.lstm_w_hidden.shape[1]

    @property
    def num_phases(self) -> int:
        return self.clf_weight.shape[0]

    @property
    def dtype(self):
        return self.encoder.dtype

    def init_head_uniform_fan(self, rng) -> "PhaseModel":
        """Initialize LSTM and classifier only; an LSTM unit's fan-in counts
        both its embedding and its recurrent inputs."""
        d = self.encoder.embedding_dim
        h = self.hidden_size
        fan = d + h
        dt = self.dtype
        self.lstm_w_input = _uniform_fan_in(rng, self.lstm_w_input.shape, fan, dt)
        self.lstm_w_hidden = _uniform_fan_in(rng, self.lstm_w_hidden.shape, fan, dt)
        self.lstm_bias = _uniform_fan_in(rng, self.lstm_bias.shape, fan, dt)
        self.clf_weight = _uniform_fan_in(rng, self.clf_weight.shape, h, dt)
        self.clf_bias = _uniform_fan_in(rng, self.clf_bias.shape, h, dt)
        return self

    def init_uniform_fan(self, rng) -> "PhaseModel":
        self.encoder.init_uniform_fan(rng)
        return self.init_head_uniform_fan(rng)

    def zero_state(self) -> LstmState:
        return LstmState.zeros(self.hidden_size, self.dtype)

    def parameters(self) -> dict[str, np.ndarray]:
        out = self.encoder.parameters()
        out.update(zip(self.HEAD, self._head()))
        return out

    def _recurrence(self, zx: np.ndarray, state_in: LstmState):
        """Run the cell over precomputed input pre-activations zx (T, 4H)
        from the carried `state_in`, which is read and never written.

        Returns (gates, tanh_cs, h_hist, c_hist): row t of the first two and
        row t+1 of the (T+1)-row state histories are the values at step t;
        row 0 of the histories is `state_in`. A sigmoid gate is tanh(z/2)/2
        + 1/2. Halving is exact (a power-of-two scale), so it is folded into
        copies of zx and of the recurrent weight rows of the input, forget
        and output gates; one tanh over all 4H pre-activations, one multiply
        by `scale` and one add of `shift` then give all four gates, the
        candidate with scale 1 and shift 0."""
        n = zx.shape[0]
        hs = self.hidden_size
        dt = self.dtype
        scale = np.full(4 * hs, 0.5, dtype=dt)
        scale[2 * hs:3 * hs] = 1.0
        shift = 1.0 - scale
        zx = zx * scale
        w_hidden = self.lstm_w_hidden * scale[:, None]
        gates = np.empty((n, 4 * hs), dtype=dt)
        tanh_cs = np.empty((n, hs), dtype=dt)
        h_hist = np.empty((n + 1, hs), dtype=dt)
        c_hist = np.empty((n + 1, hs), dtype=dt)
        h_hist[0] = state_in.h
        c_hist[0] = state_in.c
        gi, gf = gates[:, :hs], gates[:, hs:2 * hs]
        gg, go = gates[:, 2 * hs:3 * hs], gates[:, 3 * hs:]
        z = np.empty(4 * hs, dtype=dt)
        ig = np.empty(hs, dtype=dt)
        for zx_t, g_t, gi_t, gf_t, gg_t, go_t, h, c, c_t, tc_t, h_t in zip(
                zx, gates, gi, gf, gg, go, h_hist, c_hist, c_hist[1:], tanh_cs,
                h_hist[1:]):
            np.dot(w_hidden, h, z)
            np.add(zx_t, z, z)
            np.tanh(z, g_t)
            np.multiply(g_t, scale, g_t)
            np.add(g_t, shift, g_t)
            np.multiply(gf_t, c, c_t)
            np.multiply(gi_t, gg_t, ig)
            np.add(c_t, ig, c_t)
            np.tanh(c_t, tc_t)
            np.multiply(go_t, tc_t, h_t)
        return gates, tanh_cs, h_hist, c_hist

    def forward_chunk(self, frames, state_in: LstmState):
        """Left-to-right pass over consecutive frames of one video.

        Returns (logits of shape (T, num_phases), state after last frame)."""
        logits, state, _ = self.forward_chunk_cached(frames, state_in)
        return logits, state

    def forward_chunk_cached(self, frames, state_in: LstmState):
        frames = np.asarray(frames, dtype=self.dtype)
        if frames.ndim != 2 or frames.shape[0] == 0:
            raise ValueError("frames must be a non-empty (T, features) array")
        emb, enc_cache = self.encoder.forward_cached(frames)
        zx = emb @ self.lstm_w_input.T + self.lstm_bias  # (T, 4H)
        gates, tanh_cs, h_hist, c_hist = self._recurrence(zx, state_in)
        hs_out = h_hist[1:]
        logits = hs_out @ self.clf_weight.T + self.clf_bias
        state_out = LstmState(h_hist[-1].copy(), c_hist[-1].copy())
        cache = (enc_cache, emb, h_hist[:-1], c_hist[:-1], gates, c_hist[1:],
                 tanh_cs, hs_out)
        return logits, state_out, cache

    def _recurrence_backward(self, dh_seq: np.ndarray, gates: np.ndarray,
                             c_prev: np.ndarray, tanh_cs: np.ndarray) -> np.ndarray:
        """Gradients (T, 4H) of the gate pre-activations, given the upstream
        gradients dh_seq (T, H) of the hidden outputs and the cached forward
        values; nothing flows into the carried-in state."""
        n, hs = tanh_cs.shape
        dt = dh_seq.dtype
        gi, gf = gates[:, :hs], gates[:, hs:2 * hs]
        gg, go = gates[:, 2 * hs:3 * hs], gates[:, 3 * hs:]
        # The gate pre-activation gradients are a * y with a = (dc, dc, dc,
        # dh) per gate and y each gate's derivative product, known before
        # the loop: e.g. dc * (gg * gi * (1 - gi)) for the input gate.
        y = np.concatenate([gg * gi * (1.0 - gi), c_prev * gf * (1.0 - gf),
                            gi * (1.0 - gg ** 2), tanh_cs * go * (1.0 - go)],
                           axis=1)
        go_dtanh = go * (1.0 - tanh_cs ** 2)
        dzs = np.empty((n, 4 * hs), dtype=dt)
        a = np.empty(4 * hs, dtype=dt)
        dc, dh = a[:hs], a[3 * hs:]
        dc_slots = a[:3 * hs].reshape(3, hs)  # dc, broadcast to three gates
        dh_go = np.empty(hs, dtype=dt)
        dh_next = np.zeros(hs, dtype=dt)
        dc_next = np.zeros(hs, dtype=dt)
        w_hidden = self.lstm_w_hidden
        for dh_t, gd_t, gf_t, y_t, dz in zip(
                dh_seq[::-1], go_dtanh[::-1], gf[::-1], y[::-1], dzs[::-1]):
            np.add(dh_t, dh_next, dh)
            np.multiply(dh, gd_t, dh_go)
            np.add(dc_next, dh_go, dc_slots)
            np.multiply(dc, gf_t, dc_next)
            np.multiply(a, y_t, dz)
            np.dot(dz, w_hidden, dh_next)
        return dzs

    def backward_chunk(self, cache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate through classifier, LSTM and encoder for one chunk.

        The carried-in state is treated as a constant, so no gradient flows
        across chunk boundaries."""
        enc_cache, emb, h_prev, c_prev, gates, cs, tanh_cs, hs_out = cache
        grad_logits = np.ascontiguousarray(grad_logits)
        clf = (grad_logits.T @ hs_out, grad_logits.sum(axis=0))
        dh_seq = grad_logits @ self.clf_weight
        dzs = self._recurrence_backward(dh_seq, gates, c_prev, tanh_cs)
        head = (dzs.T @ emb, dzs.T @ h_prev, dzs.sum(axis=0), *clf)
        grad_emb = dzs @ self.lstm_w_input
        grads = dict(zip(self.HEAD, head))
        grads.update(self.encoder.backward(enc_cache, grad_emb))
        return grads


def softmax_cross_entropy_batch(logits, labels):
    """Rowwise cross entropy; returns ((T,) losses, (T, K) gradients)."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError("expected (T, K) logits and (T,) labels")
    if labels.size and (labels.min() < 0 or labels.max() >= z.shape[1]):
        raise ValueError("label out of range")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    losses = (log_norm[:, 0] - shifted[rows, labels])
    grads = np.exp(shifted - log_norm)
    grads[rows, labels] -= 1.0
    return losses, grads




@dataclass
class AdamState:
    """Bias-corrected Adam. The first step fixes the parameters the state
    updates: `names` in sorted order, their sizes and their dtype. `m` and
    `v` are the flat moment arrays over those parameters, laid out in
    `names` order."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    names: tuple[str, ...] = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """Apply one Adam update in place to the parameters named in `grads`.

    Parameters without a gradient entry are untouched.
    The gradients, cast to the parameters' dtype, are laid out flat in
    sorted-name order, so the moments and the step are one ufunc pass each,
    per element the same operations as a per-parameter update. A step whose
    names, sizes or dtype differ from the state's first step raises
    ValueError and changes nothing."""
    for name in grads:
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape {grads[name].shape} does not match "
                             f"parameter {name!r} shape {params[name].shape}")
    if not grads:
        return
    names = tuple(sorted(grads))
    dtype = params[names[0]].dtype
    if any(params[name].dtype != dtype for name in names):
        raise ValueError("parameters updated in one Adam step must share a dtype")
    g = np.concatenate([grads[name].reshape(-1) for name in names], dtype=dtype)
    if state.m is None:
        state.names = names
        state.m, state.v = np.zeros((2, g.size), dtype=dtype)
    elif names != state.names or dtype != state.m.dtype or g.size != state.m.size:
        raise ValueError("an Adam state updates the parameter names, sizes "
                         "and dtype of its first step")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    step = state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    start = 0
    for name in names:
        p = params[name]
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size

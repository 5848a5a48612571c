"""Trainable models: frame encoder, encoder+LSTM phase model, Adam.

Everything is plain numpy with hand-written backward passes. A row of a
batched product must equal the same row computed alone, so forward
products and input gradients go through `np.matvec`/`np.vecmat` (numpy >=
2.2), which make one BLAS gemv call per row: a row's result depends neither
on the rows around it, nor on its memory offset, nor on the BLAS thread
count. It does depend on the kernel, which follows the weight's memory
order and the vector's stride, so the constructors require C-contiguous
weights and the entry points make their inputs contiguous. Weight
gradients are sums over rows: `_row_outer_sum` is one gemm per block of
rows, which gives the same bits for the same rows at any offset. So the
encoder backward over a stack of equal blocks (the tuple positions of a
pretraining batch) takes one batched matmul and adds the block results in
order along the leading axis, bitwise equal to one backward call per block,
added up.

Adam updates every parameter of a step as one flat array: per element the
same operations, in the same order, as a per-parameter update.

The per-frame LSTM loops write into preallocated buffers; each element goes
through the same operations in the same order as a plain expression would.
Their ufuncs take `out` positionally (no keyword parsing) and constants as
prebuilt arrays of the model dtype (no float conversion per call), except
`np.minimum`/`np.maximum`, whose positional `out` numpy 2 deprecates.

Parameters are stored as float32 by default (matching the checkpoint
format); gradient-check tests build float64 models instead. A parameter is
addressed by name ("encoder.0.weight", "lstm.w_hidden", ...) in the dicts
exchanged between backward passes, the optimizer, and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_DTYPE = np.float32


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight.T + bias for one row or a stack, one gemv per row."""
    return np.matvec(weight, x) + bias


def _row_outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over t of outer(a[..., t, :], b[..., t, :]) for a (..., T, O) and
    b (..., T, I): one gemm per leading index."""
    return a.mT @ b


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

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"encoder.{i}.weight"] = w
            out[f"encoder.{i}.bias"] = b
        return out

    def _check_input(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dimension {x.shape[-1]} does not match "
                             f"encoder input {self.input_dim}")

    def forward(self, x) -> np.ndarray:
        """Embed a single feature vector or a (batch, features) stack."""
        a = np.ascontiguousarray(x, dtype=self.dtype)
        self._check_input(a)
        for w, b in zip(self.weights, self.biases):
            a = np.maximum(_affine(a, w, b), 0)
        return a

    def forward_cached(self, x: np.ndarray):
        """Batched forward keeping per-layer inputs and pre-activations."""
        a = np.ascontiguousarray(x, dtype=self.dtype)
        if a.ndim != 2:
            raise ValueError("forward_cached expects a (batch, features) array")
        self._check_input(a)
        cache = []
        for w, b in zip(self.weights, self.biases):
            z = _affine(a, w, b)
            cache.append((a, z))
            a = np.maximum(z, 0)
        return a, cache

    def backward(self, cache, grad_embedding: np.ndarray,
                 positions: int = 1) -> dict[str, np.ndarray]:
        """Gradients of every parameter for one cached forward.

        The batch is `positions` equal consecutive blocks of rows. Each
        weight and bias gradient is reduced over every block's rows
        separately and the block results are added in order, which is
        bitwise equal to adding up one backward call per block; the rowwise
        steps run once over all rows."""
        if len(cache) != self.num_layers:
            raise ValueError("cache does not match this encoder")
        rows = grad_embedding.shape[0]
        if positions < 1 or rows % positions:
            raise ValueError(f"{rows} rows do not split into {positions} "
                             f"equal blocks")
        grads: dict[str, np.ndarray] = {}
        da = grad_embedding
        for i in reversed(range(self.num_layers)):
            a_in, z = cache[i]
            dz = da * (z > 0)
            dz_blocks = dz.reshape(positions, rows // positions, -1)
            a_blocks = a_in.reshape(positions, rows // positions, -1)
            grads[f"encoder.{i}.weight"] = np.add.reduce(
                _row_outer_sum(dz_blocks, a_blocks), axis=0)
            grads[f"encoder.{i}.bias"] = np.add.reduce(
                dz_blocks.sum(axis=1), axis=0)
            if i > 0:
                da = np.vecmat(dz, self.weights[i])
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

    def copy(self) -> "LstmState":
        return LstmState(self.h.copy(), self.c.copy())


class PhaseModel:
    """Encoder followed by a single LSTM layer and an affine phase classifier.

    LSTM gate packing order along the 4H axis is input, forget, candidate,
    output.
    """

    def __init__(self, encoder: EncoderModel, lstm_w_input, lstm_w_hidden,
                 lstm_bias, clf_weight, clf_bias):
        self.encoder = encoder
        self.lstm_w_input = lstm_w_input
        self.lstm_w_hidden = lstm_w_hidden
        self.lstm_bias = lstm_bias
        self.clf_weight = clf_weight
        self.clf_bias = clf_bias
        h = self.hidden_size
        d = encoder.embedding_dim
        if lstm_w_input.shape != (4 * h, d) or lstm_bias.shape != (4 * h,):
            raise ValueError("LSTM parameter shapes are inconsistent")
        if clf_weight.shape[1] != h:
            raise ValueError("classifier width does not match LSTM hidden size")
        if not all(w.flags.c_contiguous for w in (lstm_w_input, lstm_w_hidden, clf_weight)):
            raise ValueError("LSTM and classifier weights must be C-contiguous")

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
        out = dict(self.encoder.parameters())
        out["lstm.w_input"] = self.lstm_w_input
        out["lstm.w_hidden"] = self.lstm_w_hidden
        out["lstm.bias"] = self.lstm_bias
        out["classifier.weight"] = self.clf_weight
        out["classifier.bias"] = self.clf_bias
        return out

    def _recurrence(self, zx: np.ndarray, h: np.ndarray, c: np.ndarray):
        """Run the cell over precomputed input pre-activations zx (T, 4H)
        from the carried state (h, c), which is read and never written.

        Returns (gates, cs, tanh_cs, hs_out), each row the values at one
        step. The sigmoid over all four gates is exp(min(z, 0)) / (1 +
        exp(-|z|)): per element the same operations as the stable two-branch
        form 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, without
        masks."""
        n = zx.shape[0]
        hs = self.hidden_size
        dt = self.dtype
        w_hidden = self.lstm_w_hidden
        gates = np.empty((n, 4 * hs), dtype=dt)
        cs = np.empty((n, hs), dtype=dt)
        tanh_cs = np.empty((n, hs), dtype=dt)
        hs_out = np.empty((n, hs), dtype=dt)
        gi, gf = gates[:, :hs], gates[:, hs:2 * hs]
        gg, go = gates[:, 2 * hs:3 * hs], gates[:, 3 * hs:]
        z = np.empty(4 * hs, dtype=dt)
        z_cand = z[2 * hs:3 * hs]
        num_den = np.empty((2, 4 * hs), dtype=dt)
        num, den = num_den
        ig = np.empty(hs, dtype=dt)
        zero = np.zeros(4 * hs, dtype=dt)
        one = np.ones(4 * hs, dtype=dt)
        minus_one = -one
        for zx_t, g_t, gi_t, gf_t, gg_t, go_t, c_t, tc_t, h_t in zip(
                zx, gates, gi, gf, gg, go, cs, tanh_cs, hs_out):
            np.matvec(w_hidden, h, z)
            np.add(zx_t, z, z)
            np.minimum(z, zero, out=num)
            np.copysign(z, minus_one, den)
            np.exp(num_den, num_den)
            np.add(one, den, den)
            np.divide(num, den, g_t)
            np.tanh(z_cand, gg_t)
            np.multiply(gf_t, c, c_t)
            np.multiply(gi_t, gg_t, ig)
            np.add(c_t, ig, c_t)
            np.tanh(c_t, tc_t)
            np.multiply(go_t, tc_t, h_t)
            h, c = h_t, c_t
        return gates, cs, tanh_cs, hs_out

    def lstm_step(self, embedding, state: LstmState):
        """One recurrent step on an already-embedded frame.

        Returns (logits, new state)."""
        emb = np.ascontiguousarray(embedding, dtype=self.dtype)
        if emb.shape != (self.encoder.embedding_dim,):
            raise ValueError(f"embedding shape {emb.shape} does not match "
                             f"encoder output {self.encoder.embedding_dim}")
        zx = _affine(emb, self.lstm_w_input, self.lstm_bias)
        _, cs, _, hs_out = self._recurrence(
            zx[None], np.ascontiguousarray(state.h, dtype=self.dtype),
            np.asarray(state.c, dtype=self.dtype))
        h, c = hs_out[0], cs[0]
        logits = _affine(h, self.clf_weight, self.clf_bias)
        return logits, LstmState(h, c)

    def forward_chunk(self, frames, state_in: LstmState):
        """Left-to-right pass over consecutive frames of one video.

        Returns (logits of shape (T, num_phases), state after last frame)."""
        logits, state, _ = self.forward_chunk_cached(frames, state_in, keep_cache=False)
        return logits, state

    def forward_chunk_cached(self, frames, state_in: LstmState, keep_cache=True):
        frames = np.asarray(frames, dtype=self.dtype)
        if frames.ndim != 2 or frames.shape[0] == 0:
            raise ValueError("frames must be a non-empty (T, features) array")
        emb, enc_cache = self.encoder.forward_cached(frames)
        zx = _affine(emb, self.lstm_w_input, self.lstm_bias)  # (T, 4H)
        h0 = np.ascontiguousarray(state_in.h, dtype=self.dtype)
        c0 = np.asarray(state_in.c, dtype=self.dtype)
        gates, cs, tanh_cs, hs_out = self._recurrence(zx, h0, c0)
        logits = _affine(hs_out, self.clf_weight, self.clf_bias)
        state_out = LstmState(hs_out[-1].copy(), cs[-1].copy())
        cache = None
        if keep_cache:
            h_prev = np.concatenate([h0[None], hs_out[:-1]])
            c_prev = np.concatenate([c0[None], cs[:-1]])
            cache = (enc_cache, emb, h_prev, c_prev, gates, cs, tanh_cs, hs_out)
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
        # The gate pre-activation gradients are ((a * x1) * x2) * x3 with
        # a = (dc, dc, dc, dh) per gate, e.g. ((dc * gg) * gi) * (1 - gi) for
        # the input gate. x1..x3 are known before the loop. The candidate's
        # x3 is 1, which leaves (dc * gi) * (1 - gg**2) exact.
        cand = slice(2 * hs, 3 * hs)
        x1 = np.concatenate([gg, c_prev, gi, tanh_cs], axis=1)
        x2 = gates.copy()
        x2[:, cand] = 1.0 - gg ** 2
        x3 = 1.0 - gates
        x3[:, cand] = 1.0
        one_minus_tanh_sq = 1.0 - tanh_cs ** 2
        dzs = np.empty((n, 4 * hs), dtype=dt)
        a = np.empty(4 * hs, dtype=dt)
        dc, dh = a[:hs], a[3 * hs:]
        dc_copies = a[hs:3 * hs].reshape(2, hs)
        dh_go = np.empty(hs, dtype=dt)
        dh_next = np.zeros(hs, dtype=dt)
        dc_next = np.zeros(hs, dtype=dt)
        w_hidden = self.lstm_w_hidden
        for dh_t, go_t, tsq_t, gf_t, x1_t, x2_t, x3_t, dz in zip(
                dh_seq[::-1], go[::-1], one_minus_tanh_sq[::-1], gf[::-1],
                x1[::-1], x2[::-1], x3[::-1], dzs[::-1]):
            np.add(dh_t, dh_next, dh)
            np.multiply(dh, go_t, dh_go)
            np.multiply(dh_go, tsq_t, dh_go)
            np.add(dc_next, dh_go, dc)
            np.copyto(dc_copies, dc)
            np.multiply(dc, gf_t, dc_next)
            np.multiply(a, x1_t, dz)
            np.multiply(dz, x2_t, dz)
            np.multiply(dz, x3_t, dz)
            np.vecmat(dz, w_hidden, dh_next)
        return dzs

    def backward_chunk(self, cache, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate through classifier, LSTM and encoder for one chunk.

        The carried-in state is treated as a constant, so no gradient flows
        across chunk boundaries."""
        enc_cache, emb, h_prev, c_prev, gates, cs, tanh_cs, hs_out = cache
        grad_logits = np.ascontiguousarray(grad_logits)
        grads: dict[str, np.ndarray] = {
            "classifier.weight": _row_outer_sum(grad_logits, hs_out),
            "classifier.bias": grad_logits.sum(axis=0),
        }
        dh_seq = np.vecmat(grad_logits, self.clf_weight)
        dzs = self._recurrence_backward(dh_seq, gates, c_prev, tanh_cs)
        grads["lstm.w_input"] = _row_outer_sum(dzs, emb)
        grads["lstm.w_hidden"] = _row_outer_sum(dzs, h_prev)
        grads["lstm.bias"] = dzs.sum(axis=0)
        grad_emb = np.vecmat(dzs, self.lstm_w_input)
        grads.update(self.encoder.backward(enc_cache, grad_emb))
        return grads

    def copy(self) -> "PhaseModel":
        return PhaseModel(
            self.encoder.copy(),
            self.lstm_w_input.copy(),
            self.lstm_w_hidden.copy(),
            self.lstm_bias.copy(),
            self.clf_weight.copy(),
            self.clf_bias.copy(),
        )


def softmax_cross_entropy(logits, label: int):
    """Numerically stable cross entropy of one frame.

    Returns (loss, gradient w.r.t. logits); the gradient is softmax minus
    the one-hot target. Computed in float64."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be a vector")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} phases")
    shifted = z - z.max()
    log_norm = np.log(np.exp(shifted).sum())
    loss = float(log_norm - shifted[label])
    grad = np.exp(shifted - log_norm)
    grad[label] -= 1.0
    return loss, grad


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


class _FlatLayout(NamedTuple):
    """The parameters one Adam step updates, laid out flat in `names` order."""

    names: tuple[str, ...]
    dtype: np.dtype
    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    step_views: list[np.ndarray]  # per-parameter reshaped slices of `step`


@dataclass
class AdamState:
    """Bias-corrected Adam with per-parameter moment accumulators.

    `m[name]`/`v[name]` are views into the flat buffers of `_layout`."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _layout: _FlatLayout | None = field(default=None, init=False, repr=False,
                                        compare=False)


def _flat_layout(state: AdamState, names: tuple[str, ...], params,
                 dtype) -> _FlatLayout:
    """The state's flat layout for `names`, rebuilt when the names or the
    dtype change; existing moments carry over and `state.m`/`state.v` then
    hold views of the new buffers."""
    layout = state._layout
    if layout is not None and layout.names == names and layout.dtype == dtype:
        return layout
    bounds = np.cumsum([0, *(params[name].size for name in names)])
    m, v, step = np.zeros((3, bounds[-1]), dtype=dtype)
    step_views = []
    for name, lo, hi in zip(names, bounds, bounds[1:]):
        shape = params[name].shape
        for buffer, moments in ((m, state.m), (v, state.v)):
            view = buffer[lo:hi].reshape(shape)
            if name in moments:
                view[...] = moments[name]
            moments[name] = view
        step_views.append(step[lo:hi].reshape(shape))
    state._layout = _FlatLayout(names, dtype, m, v, step, step_views)
    return state._layout


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """Apply one Adam update in place to the parameters named in `grads`.

    Parameters without a gradient entry are untouched.
    The gradients, cast to the parameters' dtype, are laid out flat in
    sorted-name order, so the moments and the step are one ufunc pass each,
    per element the same operations as a per-parameter update."""
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
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    layout = _flat_layout(state, names, params, dtype)
    g = np.concatenate([grads[name].reshape(-1) for name in names], dtype=dtype)
    m, v = layout.m, layout.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    np.divide(state.lr * (m / c1), np.sqrt(v / c2) + state.eps, layout.step)
    for name, step in zip(names, layout.step_views):
        params[name] -= step

"""Model forward/backward correctness, initialization, Adam."""

import math

import numpy as np
import pytest

from gradcheck import param_rel_error, rel_error
from tempcoh.models import (
    AdamState,
    EncoderModel,
    PhaseModel,
    adam_step,
    softmax_cross_entropy_batch,
)

GRAD_TOL = 1e-4


def f64_encoder(rng, sizes=(4, 5, 3)):
    enc = EncoderModel.create(sizes[0], list(sizes[1:-1]), sizes[-1],
                              dtype=np.float64)
    enc.init_uniform_fan(rng)
    return enc


def f64_phase_model(rng, n_in=3, hidden=(4,), d=3, h=3, k=2):
    enc = f64_encoder(rng, (n_in, *hidden, d))
    model = PhaseModel.create(enc, h, k)
    model.init_head_uniform_fan(rng)
    return model


def relu_safe_inputs(encoder, rng, batch, margin=1e-3):
    """Inputs whose pre-activations are all at least `margin` from the
    rectifier kink, so finite differences stay on one side of it."""
    while True:
        x = rng.uniform(-1.0, 1.0, size=(batch, encoder.input_dim))
        _, cache = encoder.forward_cached(x)
        if all(np.abs(z).min() > margin for _, z in cache):
            return x


# ----------------------------------------------------------------- encoder

def test_encoder_forward_matches_loop_oracle(rng):
    enc = f64_encoder(rng, (4, 6, 3))
    x = rng.normal(size=4)
    a = x
    for w, b in zip(enc.weights, enc.biases):
        out = np.empty(w.shape[0])
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * float(a[i])
            out[o] = max(acc, 0.0)
        a = out
    assert rel_error(enc.forward(x), a) < 1e-6


def test_encoder_zero_parameters_map_to_zero(rng):
    enc = EncoderModel.create(5, [4], 3)
    assert np.array_equal(enc.forward(rng.normal(size=5)), np.zeros(3))


def test_encoder_batch_equals_stacked_singles_to_rounding(rng):
    # A batch is one gemm, a single row one gemv: they may sum in other
    # orders, so a row agrees with its batch row to rounding, not bitwise.
    enc = EncoderModel.create(16, [64], 32).init_uniform_fan(rng)
    xs = rng.normal(size=(37, 16)).astype(np.float32)
    batched = enc.forward(xs)
    singles = np.stack([enc.forward(x) for x in xs])
    assert np.allclose(batched, singles, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [[], [64]], ids=["no-hidden", "hidden"])
def test_encoder_forward_equals_forward_cached_bitwise(rng, dtype, hidden):
    # Retrieval embeds with forward and pretraining with forward_cached; both
    # run one layer loop, so they give the same bits.
    enc = EncoderModel.create(16, hidden, 32, dtype=dtype).init_uniform_fan(rng)
    x = rng.normal(size=(37, 16)).astype(dtype)
    emb, cache = enc.forward_cached(x)
    assert len(cache) == enc.num_layers
    assert _same_bits(enc.forward(x), emb)


def test_encoder_input_dim_checked(rng):
    enc = EncoderModel.create(4, [], 2)
    with pytest.raises(ValueError):
        enc.forward(np.zeros(5))


def test_encoder_gradients_match_finite_differences(rng):
    for _ in range(5):
        enc = f64_encoder(rng, (4, 5, 3))
        x = relu_safe_inputs(enc, rng, batch=3)
        upstream = rng.normal(size=(3, 3))

        def loss():
            return float((enc.forward(x) * upstream).sum())

        _, cache = enc.forward_cached(x)
        grads = enc.backward(cache, upstream)
        assert param_rel_error(enc.parameters(), grads, loss) < GRAD_TOL


def test_encoder_zero_upstream_gives_zero_gradients(rng):
    enc = f64_encoder(rng)
    x = rng.normal(size=(2, 4))
    _, cache = enc.forward_cached(x)
    for g in enc.backward(cache, np.zeros((2, 3))).values():
        assert not g.any()


def test_two_branch_accumulation_is_twice_single_branch(rng):
    enc = f64_encoder(rng)
    x = rng.normal(size=(3, 4))
    upstream = rng.normal(size=(3, 3))
    _, cache = enc.forward_cached(x)
    single = enc.backward(cache, upstream)
    _, cache2 = enc.forward_cached(x)
    summed = {name: g + enc.backward(cache2, upstream)[name]
              for name, g in single.items()}
    for name in single:
        assert np.array_equal(summed[name], 2.0 * single[name])


# The products are BLAS calls whose bits follow the operands' shapes and
# memory order: a weight gradient does not depend on where its rows lie,
# and a strided input gives the bits of its contiguous copy.

def _placed(arr, rng, offset, gap):
    """A copy of the 2-D `arr` starting `offset` elements into a fresh buffer,
    with `gap` unused elements after each row."""
    rows, cols = arr.shape
    buf = rng.normal(size=offset + rows * (cols + gap)).astype(arr.dtype)
    view = buf[offset:].reshape(rows, cols + gap)[:, :cols]
    view[...] = arr
    return view


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_models_take_strided_inputs_as_their_contiguous_copies(rng, dtype):
    # A product with an operand of non-unit stride can give other bits than
    # with its contiguous copy, so the entry points make their inputs
    # contiguous first.
    enc = EncoderModel.create(40, [64], 1, dtype).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 64, 7).init_head_uniform_fan(rng)
    frames = rng.normal(size=(33, 120)).astype(dtype)[:, ::3]
    assert _same_bits(enc.forward(frames), enc.forward(frames.copy()))
    assert _same_bits(enc.forward(frames[4]), enc.forward(frames[4].copy()))
    logits, _, cache = model.forward_chunk_cached(frames, model.zero_state())
    want_logits, _, _ = model.forward_chunk_cached(frames.copy(), model.zero_state())
    assert _same_bits(logits, want_logits)
    upstream = rng.normal(size=(33, 21)).astype(dtype)[:, ::3]
    grads = model.backward_chunk(cache, upstream)
    for name, want in model.backward_chunk(cache, upstream.copy()).items():
        assert _same_bits(grads[name], want), name


@pytest.mark.parametrize("dtype_a,dtype_b", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float32, np.float64), (np.float64, np.float32)],
    ids=["f32", "f64", "f32-f64", "f64-f32"])
@pytest.mark.parametrize("rows", [1, 9, 128])
@pytest.mark.parametrize("out_width,in_width", [
    (1, 1), (1, 6), (6, 1), (16, 16), (7, 40), (40, 7), (256, 32), (32, 64)])
def test_row_outer_sum_equals_einsum_bitwise(rng, dtype_a, dtype_b, rows,
                                             out_width, in_width):
    # Every weight gradient is the gemm a.T @ b, the sum over rows t of
    # outer(a[t], b[t]). It sums in another order than einsum's loop, so the
    # two agree bit for bit only without a sum (one row), and to rounding
    # otherwise. Bitwise, the result is the same for the same rows at any
    # offset, which the LSTM's views into its state histories rely on.
    a = (50.0 * rng.normal(size=(rows, out_width))).astype(dtype_a)
    b = rng.normal(size=(rows, in_width)).astype(dtype_b)
    got = a.T @ b
    assert got.flags.c_contiguous
    want = np.einsum("to,ti->oi", a, b)
    if rows == 1:
        assert _same_bits(got, want)
    eps = np.finfo(got.dtype).eps
    assert (np.abs(got - want) <= 2 * rows * eps * (np.abs(a).T @ np.abs(b))).all()
    first = int(rng.integers(0, rows))
    shifted = (_placed(a, rng, int(rng.integers(1, 8)), 0)[first:].T
               @ _placed(b, rng, int(rng.integers(1, 8)), 0)[first:])
    assert _same_bits(shifted, a[first:].copy().T @ b[first:].copy())


def test_models_reject_fortran_ordered_weights(rng):
    with pytest.raises(ValueError, match="C-contiguous"):
        EncoderModel([np.asfortranarray(np.ones((3, 4), np.float32))],
                     [np.zeros(3, np.float32)])
    enc = EncoderModel.create(4, [], 3)
    head = PhaseModel.create(enc, 5, 2)
    params = [head.lstm_w_input, head.lstm_w_hidden, head.lstm_bias,
              head.clf_weight, head.clf_bias]
    for index in (0, 1, 3):
        swapped = list(params)
        swapped[index] = np.asfortranarray(params[index])
        with pytest.raises(ValueError, match="C-contiguous"):
            PhaseModel(enc, *swapped)


def _layer(rows, cols):
    return np.ones((rows, cols), np.float32), np.zeros(rows, np.float32)


@pytest.mark.parametrize("weights,biases,problem", [
    ([np.ones((4, 3), np.float32)], [np.zeros(1, np.float32)], "bias"),
    ([np.ones((4, 3), np.float32)], [np.zeros((4, 1), np.float32)], "bias"),
    ([np.ones(3, np.float32)], [np.zeros(3, np.float32)], "2-D"),
    ([np.ones((), np.float32)], [np.zeros((), np.float32)], "2-D"),
    ([np.ones((2, 4, 3), np.float32)], [np.zeros(2, np.float32)], "2-D"),
    (*zip(_layer(4, 3), _layer(2, 5)), "takes 5 inputs, layer 0 gives 4"),
    (_layer(4, 3)[:1] * 2, _layer(4, 3)[1:], "non-empty and aligned"),
], ids=["one-long-bias", "2-d-bias", "1-d-weight", "0-d-weight", "3-d-weight",
        "broken-chain", "misaligned"])
def test_encoder_refuses_layers_that_do_not_chain(weights, biases, problem):
    # A 1-long bias used to broadcast over the layer's rows, and a 3->4,
    # 5->2 chain used to report layer_sizes [3, 4, 2].
    with pytest.raises(ValueError, match=problem):
        EncoderModel(list(weights), list(biases))


@pytest.mark.parametrize("sizes", [(0, [], 2), (3, [4, 0], 2), (3, [], 0)],
                         ids=["input", "hidden", "embedding"])
def test_encoder_create_refuses_a_size_below_1(sizes):
    with pytest.raises(ValueError, match="all layer sizes must be >= 1"):
        EncoderModel.create(*sizes)


@pytest.mark.parametrize("call,problem", [
    (lambda enc: enc.forward_cached(np.zeros(4)), r"\(batch, features\)"),
    (lambda enc: enc.backward(EncoderModel.create(4, [3], 3).forward_cached(
        np.ones((2, 4)))[1], np.ones((2, 3))), "cache does not match"),
], ids=["1-d-forward-cached", "cache-of-another-encoder"])
def test_encoder_refuses_inputs_and_caches_that_do_not_fit(rng, call, problem):
    # A one-layer encoder; the other encoder's cache holds two layers.
    with pytest.raises(ValueError, match=problem):
        call(f64_encoder(rng, sizes=(4, 3)))


@pytest.mark.parametrize("index,shape", [
    (0, (16, 3)), (1, (12, 4)), (1, (16,)), (1, ()), (2, (12,)), (2, ()),
    (3, (2, 4)), (3, (4,)), (4, (1,)), (4, (3, 1)),
], ids=["w_input", "w_hidden-12x4", "w_hidden-1d", "w_hidden-0d", "bias",
        "bias-0d", "clf_weight", "clf_weight-1d", "clf_bias-1", "clf_bias-2d"])
def test_phase_model_refuses_head_shapes_that_do_not_fit(index, shape):
    # Hidden size 4 with 3 phases over a 2-wide embedding: (16, 2), (16, 4),
    # (16,), (3, 4), (3,). A (12, 4) recurrent weight used to fail only at
    # the first step, and a (1,) classifier bias to broadcast into the logits.
    enc = EncoderModel.create(3, [], 2)
    head = PhaseModel.create(enc, 4, 3)
    params = [head.lstm_w_input, head.lstm_w_hidden, head.lstm_bias,
              head.clf_weight, head.clf_bias]
    params[index] = np.zeros(shape, np.float32)
    with pytest.raises(ValueError, match="shapes"):
        PhaseModel(enc, *params)


def _reference_encoder_backward(enc, cache, grad_embedding):
    """Each layer's gradients as one product over all rows: the weight
    gradient dz.T @ a, the bias gradient the row sum, the input gradient
    dz @ W."""
    grads = {}
    da = grad_embedding
    for i in reversed(range(enc.num_layers)):
        a_in, z = cache[i]
        dz = da * (z > 0)
        grads[f"encoder.{i}.weight"] = dz.T @ a_in
        grads[f"encoder.{i}.bias"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ enc.weights[i]
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 17, 300])
@pytest.mark.parametrize("sizes", [(16, 64, 32), (1, 1), (7, 40, 1), (256, 32),
                                   (32, 256, 7)], ids=str)
def test_encoder_backward_equals_reference_bitwise(sizes, rows, dtype):
    rng = np.random.default_rng(len(sizes) * 1000 + rows)
    enc = EncoderModel.create(sizes[0], list(sizes[1:-1]), sizes[-1],
                              dtype=dtype).init_uniform_fan(rng)
    _, cache = enc.forward_cached(rng.normal(size=(rows, sizes[0])).astype(dtype))
    upstream = rng.normal(size=(rows, sizes[-1])).astype(dtype)
    got = enc.backward(cache, upstream)
    want = _reference_encoder_backward(enc, cache, upstream)
    assert got.keys() == want.keys()
    assert len(got) == 2 * enc.num_layers
    for name in want:
        assert _same_bits(got[name], want[name]), name


# -------------------------------------------------------------------- LSTM

def test_lstm_zero_weights_zero_state():
    model = PhaseModel.create(EncoderModel.create(3, [], 2), 4, 3)
    logits, state = model.forward_chunk(np.array([[0.7, -0.2, 0.4]]),
                                        model.zero_state())
    h0, c0 = model.zero_state()
    assert _same_bits(h0, np.zeros(4, np.float32)) and _same_bits(c0, h0)
    assert np.array_equal(logits, np.zeros((1, 3)))
    h, c = state
    assert np.array_equal(h, np.zeros(4))
    assert np.array_equal(c, np.zeros(4))


def test_lstm_zero_weights_carried_cell():
    # With all parameters zero every sigmoid gate is 1/2 and the candidate
    # is 0, so c' = c/2 and h' = tanh(c/2)/2.
    model = PhaseModel.create(EncoderModel.create(3, [], 2), 4, 3,)
    v = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
    _, (h, c) = model.forward_chunk(np.zeros((1, 3)),
                                    (np.zeros(4, np.float32), v))
    assert np.allclose(c, 0.5 * v, atol=1e-7)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-7)


def test_lstm_step_gradients_match_finite_differences(rng):
    for _ in range(3):
        model = f64_phase_model(rng)
        frames = relu_safe_inputs(model.encoder, rng, batch=5)
        weights = rng.normal(size=(5, model.num_phases))

        def loss():
            logits, _ = model.forward_chunk(frames, model.zero_state())
            return float((logits * weights).sum())

        logits, _, cache = model.forward_chunk_cached(frames, model.zero_state())
        grads = model.backward_chunk(cache, weights)
        assert param_rel_error(model.parameters(), grads, loss) < GRAD_TOL


def test_chunked_forward_equals_whole_sequence(rng):
    enc = EncoderModel.create(16, [8], 6).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 5, 4)
    model.init_head_uniform_fan(rng)
    frames = rng.normal(size=(256, 16)).astype(np.float32)
    whole, state_whole = model.forward_chunk(frames, model.zero_state())
    for sizes in ([128, 128], [1] * 256, [100, 100, 56], [256]):
        state = model.zero_state()
        parts = []
        start = 0
        for size in sizes:
            logits, state = model.forward_chunk(frames[start:start + size], state)
            parts.append(logits)
            start += size
        stitched = np.concatenate(parts)
        assert np.max(np.abs(stitched - whole)) <= 1e-5
        for got, want in zip(state, state_whole):  # h, then c
            assert np.max(np.abs(got - want)) <= 1e-5


def test_carried_state_affects_second_chunk(rng):
    model = f64_phase_model(rng, n_in=4, hidden=(), d=4, h=5, k=3)
    frames = rng.normal(size=(40, 4))
    _, carried = model.forward_chunk(frames[:20], model.zero_state())
    with_carry, _ = model.forward_chunk(frames[20:], carried)
    with_zero, _ = model.forward_chunk(frames[20:], model.zero_state())
    assert np.max(np.abs(with_carry - with_zero)) > 1e-6


def test_forward_chunk_rejects_empty_input(rng):
    model = f64_phase_model(rng)
    with pytest.raises(ValueError):
        model.forward_chunk(np.zeros((0, 3)), model.zero_state())


# Oracle for the LSTM step loops: the straightforward per-frame bodies, each
# sigmoid written as tanh(z/2)/2 + 1/2. PhaseModel's buffered loops, which
# fold the halving into their copies of the weights, must reproduce them bit
# for bit.

def _sigmoid(z):
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _reference_forward_chunk(model, frames, state_in):
    frames = np.asarray(frames, dtype=model.dtype)
    emb, enc_cache = model.encoder.forward_cached(frames)
    n = frames.shape[0]
    hs = model.hidden_size
    zx = emb @ model.lstm_w_input.T + model.lstm_bias
    h, c = state_in[0].copy(), state_in[1].copy()
    h_prev = np.empty((n, hs), dtype=model.dtype)
    c_prev = np.empty((n, hs), dtype=model.dtype)
    gates = np.empty((n, 4 * hs), dtype=model.dtype)
    tanh_cs = np.empty((n, hs), dtype=model.dtype)
    hs_out = np.empty((n, hs), dtype=model.dtype)
    for t in range(n):
        h_prev[t] = h
        c_prev[t] = c
        z = zx[t] + model.lstm_w_hidden @ h
        gi = _sigmoid(z[:hs])
        gf = _sigmoid(z[hs:2 * hs])
        gg = np.tanh(z[2 * hs:3 * hs])
        go = _sigmoid(z[3 * hs:])
        gates[t, :hs], gates[t, hs:2 * hs] = gi, gf
        gates[t, 2 * hs:3 * hs], gates[t, 3 * hs:] = gg, go
        c = gf * c + gi * gg
        tc = np.tanh(c)
        h = go * tc
        tanh_cs[t] = tc
        hs_out[t] = h
    logits = hs_out @ model.clf_weight.T + model.clf_bias
    cache = (enc_cache, emb, h_prev, c_prev, gates, tanh_cs, hs_out)
    return logits, (h.copy(), c.copy()), cache


def _reference_backward_chunk(model, cache, grad_logits):
    enc_cache, emb, h_prev, c_prev, gates, tanh_cs, hs_out = cache
    n, hs = hs_out.shape
    grads = {
        "classifier.weight": grad_logits.T @ hs_out,
        "classifier.bias": grad_logits.sum(axis=0),
    }
    dh_seq = grad_logits @ model.clf_weight
    dzs = np.empty((n, 4 * hs), dtype=dh_seq.dtype)
    dh_next = np.zeros(hs, dtype=dh_seq.dtype)
    dc_next = np.zeros(hs, dtype=dh_seq.dtype)
    for t in reversed(range(n)):
        gi, gf = gates[t, :hs], gates[t, hs:2 * hs]
        gg, go = gates[t, 2 * hs:3 * hs], gates[t, 3 * hs:]
        dh = dh_seq[t] + dh_next
        dc = dc_next + dh * (go * (1.0 - tanh_cs[t] ** 2))
        dc_next = dc * gf
        dzs[t, :hs] = dc * ((gg * gi) * (1.0 - gi))
        dzs[t, hs:2 * hs] = dc * ((c_prev[t] * gf) * (1.0 - gf))
        dzs[t, 2 * hs:3 * hs] = dc * (gi * (1.0 - gg ** 2))
        dzs[t, 3 * hs:] = dh * ((tanh_cs[t] * go) * (1.0 - go))
        dh_next = dzs[t] @ model.lstm_w_hidden
    grads["lstm.w_input"] = dzs.T @ emb
    grads["lstm.w_hidden"] = dzs.T @ h_prev
    grads["lstm.bias"] = dzs.sum(axis=0)
    grad_emb = dzs @ model.lstm_w_input
    grads.update(model.encoder.backward(enc_cache, grad_emb))
    return grads


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 7, 128])
@pytest.mark.parametrize("dtype,grad_dtype", [
    (np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float64)])
def test_lstm_chunk_loops_match_reference_bitwise(rng, n, dtype, grad_dtype):
    # Desk shapes: 16 features -> 64 -> 32-d embedding, 64 LSTM units, 7
    # phases. Weights are scaled up so the gate pre-activations are large
    # and of both signs, exercising gates on both sides of 1/2 and
    # saturation.
    enc = EncoderModel.create(16, [64], 32, dtype=dtype).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 64, 7).init_head_uniform_fan(rng)
    model.lstm_w_input *= 8
    model.lstm_w_hidden *= 8
    frames = (3.0 * rng.normal(size=(n, 16))).astype(dtype)
    state_in = (rng.normal(size=64).astype(dtype),
                rng.normal(size=64).astype(dtype))
    h_in, c_in = state_in[0].copy(), state_in[1].copy()

    logits, state, cache = model.forward_chunk_cached(frames, state_in)
    ref_logits, ref_state, ref_cache = _reference_forward_chunk(
        model, frames, (h_in.copy(), c_in.copy()))

    sigmoids = np.delete(ref_cache[4], np.s_[2 * 64:3 * 64], axis=1)  # not tanh
    assert (sigmoids < 0.5).any() and (sigmoids > 0.5).any()
    assert _same_bits(logits, ref_logits)
    assert len(state) == len(ref_state) == 2
    assert all(map(_same_bits, state, ref_state))
    assert len(cache) == len(ref_cache) == 7
    for (a_in, z), (r_in, r_z) in zip(cache[0], ref_cache[0]):
        assert _same_bits(a_in, r_in) and _same_bits(z, r_z)
    for got, want in zip(cache[1:], ref_cache[1:]):
        assert _same_bits(got, want)
    assert _same_bits(state_in[0], h_in) and _same_bits(state_in[1], c_in)

    grad_logits = rng.normal(size=logits.shape).astype(grad_dtype)
    grads = model.backward_chunk(cache, grad_logits)
    ref_grads = _reference_backward_chunk(model, ref_cache, grad_logits)
    assert grads.keys() == ref_grads.keys()
    for name in ref_grads:
        assert _same_bits(grads[name], ref_grads[name]), name


def test_gates_equal_logistic_sigmoid_and_tanh_of_pre_activations(rng):
    # The loop computes each sigmoid gate as tanh(z/2)/2 + 1/2 from halved
    # copies of its inputs; compared here with 1/(1+exp(-z)) of the full
    # pre-activation, recomputed from the cached inputs of each step.
    enc = EncoderModel.create(5, [], 6, dtype=np.float64).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 8, 3).init_head_uniform_fan(rng)
    model.lstm_w_input *= 8
    model.lstm_w_hidden *= 8
    frames = 3.0 * rng.normal(size=(50, 5))
    _, _, cache = model.forward_chunk_cached(frames, model.zero_state())
    _, emb, h_prev, _, gates, _, _ = cache
    z = emb @ model.lstm_w_input.T + model.lstm_bias + h_prev @ model.lstm_w_hidden.T
    sigmoids, cand = np.r_[0:16, 24:32], slice(16, 24)
    logistic = 1.0 / (1.0 + np.exp(-z[:, sigmoids]))
    assert 0.0 < logistic.min() < 1e-3 and logistic.max() > 1 - 1e-3
    assert np.allclose(gates[:, sigmoids], logistic, rtol=0, atol=1e-12)
    assert np.allclose(gates[:, cand], np.tanh(z[:, cand]), rtol=0, atol=1e-12)


def test_forward_chunk_state_out_does_not_alias_cache(rng):
    model = f64_phase_model(rng, n_in=4, hidden=(), d=4, h=5, k=3)
    frames = rng.normal(size=(6, 4))
    _, state, cache = model.forward_chunk_cached(frames, model.zero_state())
    before = [arr.copy() for arr in cache[1:]]
    for vector in state:  # h, then c
        vector += 1.0
    for got, want in zip(cache[1:], before):
        assert _same_bits(got, want)


def test_chunk_cache_outlives_the_next_chunk(rng):
    # The next chunk starts from this chunk's state_out; it must not reuse
    # the state histories that this chunk's cache views.
    enc = EncoderModel.create(4, [5], 4, dtype=np.float32).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 6, 3).init_head_uniform_fan(rng)
    frames = rng.normal(size=(12, 4)).astype(np.float32)
    upstream = rng.normal(size=(7, 3)).astype(np.float32)
    _, state, cache = model.forward_chunk_cached(frames[:7], model.zero_state())
    want = model.backward_chunk(cache, upstream)
    model.forward_chunk_cached(frames[7:], state)
    got = model.backward_chunk(cache, upstream)
    assert got.keys() == want.keys()
    for name in want:
        assert _same_bits(got[name], want[name]), name


def test_lstm_step_costs_ten_numpy_calls_forward_and_six_backward(rng, monkeypatch):
    # README "Performance" gives these counts per frame, the floor of the
    # step loops: one more frame in a chunk costs exactly that many calls.
    model = f64_phase_model(rng, n_in=4, hidden=(5,), d=4, h=6, k=3)
    calls = [0]
    for name in ("dot", "add", "tanh", "multiply"):
        def counted(*args, _real=getattr(np, name), **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)

    def cost(n):
        before = calls[0]
        logits, _, cache = model.forward_chunk_cached(rng.normal(size=(n, 4)),
                                                      model.zero_state())
        forward = calls[0] - before
        model.backward_chunk(cache, rng.normal(size=logits.shape))
        return forward, calls[0] - before - forward

    (forward, backward), (forward_plus, backward_plus) = cost(5), cost(6)
    assert forward >= 5 * 10 and backward >= 5 * 6
    assert (forward_plus - forward, backward_plus - backward) == (10, 6)


def test_phase_model_create_validation():
    enc = EncoderModel.create(3, [], 2)
    with pytest.raises(ValueError):
        PhaseModel.create(enc, 4, 1)  # needs >= 2 phases
    with pytest.raises(ValueError):
        PhaseModel.create(enc, 0, 3)


# ----------------------------------------------------------- cross entropy

def _one_row(logits, label):
    """Cross entropy of one frame through the batched function."""
    losses, grads = softmax_cross_entropy_batch(np.asarray(logits)[None],
                                                np.array([label]))
    return float(losses[0]), grads[0]


def test_cross_entropy_uniform_logits():
    loss, grad = _one_row(np.zeros(7), 3)
    assert loss == pytest.approx(math.log(7.0), abs=1e-12)
    assert grad[3] == pytest.approx(1.0 / 7.0 - 1.0, abs=1e-12)


def test_cross_entropy_confident_correct():
    loss, grad = _one_row(np.array([10.0, -10.0]), 0)
    assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)
    assert loss == pytest.approx(2.061e-9, rel=1e-3)
    # gradient = softmax - one_hot: tiny negative on the target coordinate,
    # the same magnitude positive on the other; components sum to ~0.
    assert grad[0] == pytest.approx(-2.061e-9, rel=1e-3)
    assert grad[1] == pytest.approx(2.061e-9, rel=1e-3)
    assert abs(grad.sum()) < 1e-15


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        _one_row(np.zeros(3), 3)
    with pytest.raises(ValueError):
        _one_row(np.zeros(3), -1)


def test_cross_entropy_gradient_matches_finite_differences(rng):
    from gradcheck import central_diff
    for _ in range(10):
        logits = rng.normal(size=5) * 3
        label = int(rng.integers(5))
        _, grad = _one_row(logits, label)
        numeric = central_diff(lambda z: _one_row(z, label)[0], logits)
        assert rel_error(grad, numeric) < 1e-6


def _reference_softmax_cross_entropy(logits, label: int):
    """The single-frame cross entropy the batched function replaced."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max()
    log_norm = np.log(np.exp(shifted).sum())
    loss = float(log_norm - shifted[label])
    grad = np.exp(shifted - log_norm)
    grad[label] -= 1.0
    return loss, grad


def test_cross_entropy_batch_equals_singles_exactly(rng):
    logits = rng.normal(size=(9, 4)) * 2
    labels = rng.integers(0, 4, size=9)
    losses, grads = softmax_cross_entropy_batch(logits, labels)
    for row in range(9):
        loss, grad = _reference_softmax_cross_entropy(logits[row], int(labels[row]))
        assert losses[row] == loss
        assert np.array_equal(grads[row], grad)


def test_cross_entropy_batch_validation(rng):
    with pytest.raises(ValueError):
        softmax_cross_entropy_batch(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        softmax_cross_entropy_batch(np.zeros((2, 2)), np.array([0, 2]))


# -------------------------------------------------------------------- Adam

def test_adam_first_step_closed_form():
    params = {"w": np.zeros(3, dtype=np.float64)}
    grads = {"w": np.full(3, 0.1)}
    adam_step(params, grads, AdamState(lr=1e-4))
    # First step: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps).
    expected = -1e-4 * 0.1 / (0.1 + 1e-8)
    assert np.allclose(params["w"], expected, atol=1e-12)
    assert params["w"][0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    params = {"w": np.full(2, 5.0)}
    state = AdamState(lr=1e-2)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], np.full(2, 5.0))
    assert state.step_count == 1
    adam_step(params, {}, state)  # no gradients at all: full no-op
    assert state.step_count == 1


def test_adam_equal_gradients_update_identically(rng):
    g = rng.normal(size=4)
    params = {"a": np.zeros(4), "b": np.zeros(4)}
    state = AdamState(lr=3e-3)
    for _ in range(5):
        adam_step(params, {"a": g.copy(), "b": g.copy()}, state)
    assert np.array_equal(params["a"], params["b"])


def test_adam_keeps_existing_moments():
    params = {"w": np.zeros(3)}
    state = AdamState(lr=1e-2)
    adam_step(params, {"w": np.full(3, 0.5)}, state)
    m, v = state.m, state.v
    assert state.names == ("w",) and m.shape == v.shape == (3,)
    adam_step(params, {"w": np.full(3, 0.5)}, state)
    assert state.m is m and state.v is v
    assert np.allclose(m, 0.9 * 0.05 + 0.1 * 0.5, rtol=0, atol=1e-15)
    assert np.allclose(v, 0.999 * 0.00025 + 0.001 * 0.25, rtol=0, atol=1e-15)


def test_adam_rejects_unknown_or_misshapen_gradients():
    params = {"w": np.zeros(3)}
    with pytest.raises(ValueError):
        adam_step(params, {"nope": np.zeros(3)}, AdamState())
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.zeros(4)}, AdamState())


def test_adam_step_counter_strictly_increasing(rng):
    params = {"w": np.zeros(2)}
    state = AdamState()
    for step in range(1, 6):
        adam_step(params, {"w": rng.normal(size=2)}, state)
        assert state.step_count == step


# ---------------------------------------------------------- initialization

def test_init_bounds_fan_in_100(rng):
    enc = EncoderModel.create(100, [], 1000)
    enc.init_uniform_fan(rng)
    w = enc.weights[0]
    assert w.size == 100_000
    assert np.all(np.abs(w) < 0.1)
    assert w.max() > 0.0999 and w.min() < -0.0999
    assert np.all(np.abs(enc.biases[0]) < 0.1)


def test_init_bounds_fan_in_one(rng):
    enc = EncoderModel.create(1, [], 4)
    enc.init_uniform_fan(rng)
    assert np.all(np.abs(enc.weights[0]) < 1.0)
    assert np.all(np.abs(enc.biases[0]) < 1.0)


def test_init_deterministic_per_seed():
    e1 = EncoderModel.create(6, [5], 4).init_uniform_fan(np.random.default_rng(3))
    e2 = EncoderModel.create(6, [5], 4).init_uniform_fan(np.random.default_rng(3))
    e3 = EncoderModel.create(6, [5], 4).init_uniform_fan(np.random.default_rng(4))
    for a, b in zip(e1.weights + e1.biases, e2.weights + e2.biases):
        assert np.array_equal(a, b)
    assert not all(np.array_equal(a, b) for a, b
                   in zip(e1.weights + e1.biases, e3.weights + e3.biases))


def test_phase_model_head_init_uses_combined_lstm_fan_in(rng):
    enc = EncoderModel.create(16, [], 32)
    model = PhaseModel.create(enc, 64, 7)
    model.init_head_uniform_fan(rng)
    lstm_bound = 1.0 / np.sqrt(32 + 64)  # embedding plus recurrent inputs
    clf_bound = 1.0 / np.sqrt(64)
    for arr in (model.lstm_w_input, model.lstm_w_hidden, model.lstm_bias):
        assert np.all(np.abs(arr) < lstm_bound)
    assert np.abs(model.lstm_w_input).max() > 0.98 * lstm_bound
    assert np.all(np.abs(model.clf_weight) < clf_bound)
    assert np.abs(model.clf_weight).max() > 0.95 * clf_bound
    # Head-only initialization must leave the encoder untouched.
    assert not enc.weights[0].any()


def test_copies_are_independent(rng):
    enc = f64_encoder(rng)
    before_w0, before_b1 = enc.weights[0].copy(), enc.biases[1].copy()
    clone = enc.copy()
    clone.weights[0] += 1.0
    clone.biases[1] += 1.0
    assert np.array_equal(enc.weights[0], before_w0)
    assert np.array_equal(enc.biases[1], before_b1)
    assert not np.array_equal(enc.weights[0], clone.weights[0])


def _reference_adam_step(params, grads, hyper: AdamState, state: dict):
    """The per-parameter Adam loop the flat update replaced. `state` holds
    the step count and per-name moments; `hyper` only the learning rate."""
    if not grads:
        return
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    for name in sorted(grads):
        p = params[name]
        g = grads[name].astype(p.dtype, copy=False)
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p -= hyper.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_equals_per_parameter_reference_bitwise(dtype, grad_dtype):
    rng = np.random.default_rng(5)
    shapes = {"encoder.0.weight": (8, 6), "encoder.0.bias": (8,),
              "encoder.1.weight": (5, 8), "encoder.1.bias": (5,),
              "lstm.w_hidden": (12, 3)}
    params = {name: rng.normal(size=shape).astype(dtype)
              for name, shape in shapes.items()}
    ref_params = {name: p.copy() for name, p in params.items()}
    state = AdamState(lr=3e-2)
    ref_state = {"step": 0, "m": {}, "v": {}}
    for step in range(20):
        grads = {name: (rng.normal(size=shapes[name]) * 10.0 ** (step % 4 - 2))
                 .astype(grad_dtype) for name in reversed(sorted(shapes))}
        if step == 7:
            grads["encoder.1.bias"][:] = 0.0
        adam_step(params, grads, state)
        _reference_adam_step(ref_params, grads, state, ref_state)
        assert state.step_count == ref_state["step"]
        assert state.names == tuple(sorted(shapes))
        for name in shapes:
            assert _same_bits(params[name], ref_params[name]), (step, name)
        for flat, moments in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
            assert _same_bits(flat, np.concatenate(
                [moments[name].reshape(-1) for name in state.names])), step


@pytest.mark.parametrize("later", ["fewer-names", "more-names", "other-name",
                                   "other-dtype", "other-size"])
def test_adam_step_unlike_the_first_raises_and_changes_nothing(later):
    params = {"a": np.ones((2, 3)), "b": np.ones(4)}
    state = AdamState(lr=1e-2)
    adam_step(params, {"a": np.full((2, 3), 0.5), "b": np.full(4, -0.5)}, state)
    grads = {"a": np.full((2, 3), 0.25), "b": np.full(4, 0.25)}
    if later == "fewer-names":
        del grads["b"]
    elif later == "more-names":
        params["c"] = np.ones(1)
        grads["c"] = np.ones(1)
    elif later == "other-name":
        params["c"] = params.pop("b")
        grads["c"] = grads.pop("b")
    elif later == "other-dtype":
        params = {name: p.astype(np.float32) for name, p in params.items()}
    else:
        params["b"] = np.ones(5)
        grads["b"] = np.full(5, 0.25)
    before = {name: p.copy() for name, p in params.items()}
    m, v = state.m.copy(), state.v.copy()
    with pytest.raises(ValueError, match="first step"):
        adam_step(params, grads, state)
    for name, p in params.items():
        assert _same_bits(p, before[name]), name
    assert state.step_count == 1 and state.names == ("a", "b")
    assert _same_bits(state.m, m) and _same_bits(state.v, v)


def test_adam_rejects_parameters_of_mixed_dtypes():
    params = {"a": np.zeros(2, np.float32), "b": np.zeros(2, np.float64)}
    with pytest.raises(ValueError, match="dtype"):
        adam_step(params, {"a": np.ones(2), "b": np.ones(2)}, AdamState())

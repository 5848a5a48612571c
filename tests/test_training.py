"""Training loops: pretraining descent/determinism, fine-tuning mechanics
(stateful chunking, accumulation, stop criterion), and evaluation."""

import math
import warnings

import numpy as np
import pytest

from tempcoh import training
from tempcoh.data_io import FrameSequence
from tempcoh.errors import NonFiniteLossError
from tempcoh.losses import LOSS_ARITY, LossConfig, batch_loss_and_gradients
from tempcoh.models import AdamState, EncoderModel, PhaseModel, adam_step
from tempcoh.sampling import SamplerConfig
from tempcoh.synthetic import SynthConfig, generate_dataset
from tempcoh.training import (
    PRETRAIN_METHODS,
    EvalResult,
    FinetuneConfig,
    PretrainConfig,
    evaluate,
    finetune,
    predict_sequence,
    pretrain,
)

SMALL_SAMPLER = SamplerConfig(delta_seconds=5.0, gamma_seconds=20.0, fps=1.0,
                              tuples_per_video=100)


def unlabeled_videos(rng, n=2, frames=120, dim=6):
    return [FrameSequence(f"u{i}", rng.normal(size=(frames, dim)).astype(np.float32),
                          1.0) for i in range(n)]


def labeled_videos(rng, n=3, dim=6, phases=3, frames_per_phase=15):
    videos = []
    for i in range(n):
        labels = np.repeat(np.arange(phases), frames_per_phase).astype(np.int32)
        anchors = rng.normal(size=(phases, dim)) * 3.0
        feats = anchors[labels] + rng.normal(size=(labels.size, dim)) * 0.3
        videos.append(FrameSequence(f"l{i}", feats.astype(np.float32), 1.0, labels))
    return videos


def snapshot(model):
    return {name: arr.copy() for name, arr in model.parameters().items()}


def assert_params_equal(model, saved):
    for name, arr in model.parameters().items():
        assert np.array_equal(arr, saved[name]), name


def assert_params_differ(model, saved):
    assert any(not np.array_equal(arr, saved[name])
               for name, arr in model.parameters().items())


# ----------------------------------------------------------- config objects

def test_pretrain_config_validation():
    with pytest.raises(ValueError, match="unknown pretraining method"):
        PretrainConfig(method="triplet")
    with pytest.raises(ValueError):
        PretrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        PretrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        PretrainConfig(lr=0.0)


def test_method_to_loss_and_order_mapping():
    assert PretrainConfig(method="contrastive").loss_kind == "contrastive"
    assert PretrainConfig(method="contrastive").tuple_order == "first"
    assert PretrainConfig(method="ranking").loss_kind == "ranking"
    assert PretrainConfig(method="ranking").tuple_order == "first"
    assert PretrainConfig(method="contrastive2").loss_kind == "combined"
    assert PretrainConfig(method="contrastive2").tuple_order == "second"
    assert set(PRETRAIN_METHODS) == {"contrastive", "ranking", "contrastive2"}


def test_finetune_config_validation():
    with pytest.raises(ValueError):
        FinetuneConfig(max_epochs=-1)
    with pytest.raises(ValueError):
        FinetuneConfig(batch_frames=0)
    with pytest.raises(ValueError):
        FinetuneConfig(accumulate_batches=0)
    with pytest.raises(ValueError):
        FinetuneConfig(lr=-1.0)
    with pytest.raises(ValueError):
        FinetuneConfig(stop_train_accuracy=1.5)
    FinetuneConfig(stop_train_accuracy=0.0)
    FinetuneConfig(stop_train_accuracy=1.0)


# ------------------------------------------------------------- pretraining

def test_pretrain_zero_epochs_is_noop(rng):
    videos = unlabeled_videos(rng)
    enc = EncoderModel.create(6, [8], 4).init_uniform_fan(rng)
    before = snapshot(enc)
    result = pretrain(enc, videos,
                      PretrainConfig(epochs=0, sampler=SMALL_SAMPLER), rng=0)
    assert result.epoch_losses == []
    assert result.tuples_per_epoch == 200
    assert_params_equal(enc, before)


@pytest.mark.parametrize("method", sorted(PRETRAIN_METHODS))
def test_pretrain_loss_decreases_over_epochs(method):
    # Temporally structured sequences, so near frames genuinely are more
    # similar than distant ones and the objectives have signal to descend.
    cfg = PretrainConfig(method=method, epochs=25, lr=1e-3,
                         sampler=SMALL_SAMPLER)
    for seed in range(5):
        data = generate_dataset(
            SynthConfig(min_duration=40, max_duration=80, feature_dim=6,
                        num_phases=4), 4, 100 + seed)
        enc = EncoderModel.create(6, [8], 4).init_uniform_fan(
            np.random.default_rng(seed))
        result = pretrain(enc, data.videos, cfg, rng=seed)
        assert len(result.epoch_losses) == 25
        assert all(np.isfinite(result.epoch_losses))
        assert result.epoch_losses[-1] < result.epoch_losses[0], (method, seed)


def test_pretrain_updates_parameters(rng):
    videos = unlabeled_videos(rng)
    enc = EncoderModel.create(6, [8], 4).init_uniform_fan(rng)
    before = snapshot(enc)
    pretrain(enc, videos, PretrainConfig(epochs=1, sampler=SMALL_SAMPLER), rng=0)
    assert_params_differ(enc, before)


def test_pretrain_same_seed_bitwise_identical(rng):
    videos = unlabeled_videos(rng)
    results = []
    encoders = []
    for _ in range(2):
        enc = EncoderModel.create(6, [8], 4).init_uniform_fan(
            np.random.default_rng(9))
        results.append(pretrain(enc, videos,
                                PretrainConfig(epochs=3, sampler=SMALL_SAMPLER),
                                rng=17))
        encoders.append(enc)
    assert results[0].epoch_losses == results[1].epoch_losses
    assert_params_equal(encoders[0], snapshot(encoders[1]))


@pytest.mark.parametrize("method", sorted(PRETRAIN_METHODS))
def test_pretrain_refuses_a_loss_sum_past_float64(rng, method):
    # Every tuple loss is about the margin, so finite, but 64 of them sum
    # to infinity; the refusal comes before any loss history or warning.
    videos = unlabeled_videos(rng)
    enc = EncoderModel.create(6, [8], 4).init_uniform_fan(rng)
    huge = LossConfig(margin_contrastive=1e307, margin_ranking=1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError,
                           match=f"^non-finite {method} mean loss at epoch 0:"):
            pretrain(enc, videos,
                     PretrainConfig(method=method, epochs=2, loss=huge,
                                    sampler=SMALL_SAMPLER),
                     rng=0)


def test_pretrain_raises_on_non_finite_features(rng):
    videos = unlabeled_videos(rng)
    videos[0].features[3, 2] = np.nan
    enc = EncoderModel.create(6, [8], 4).init_uniform_fan(rng)
    # The first offending tuple holds frame 3 of video u0.
    with pytest.raises(NonFiniteLossError,
                       match=r"non-finite .* video 'u0', "
                             r"frames \((\d+, )*3(, \d+)*\)$"):
        pretrain(enc, videos, PretrainConfig(epochs=1, sampler=SMALL_SAMPLER),
                 rng=0)


def _reference_pretrain(encoder, videos, cfg, schedules):
    """Pretraining over given epoch schedules, written out plainly: one row
    copy per tuple frame into a position-major stack, then every layer's
    forward and backward products over the whole stack."""
    kind = cfg.loss_kind
    arity = LOSS_ARITY[kind]
    adam = AdamState(lr=cfg.lr)
    history = []
    for schedule in schedules:
        loss_sum = 0.0
        for start in range(0, len(schedule), cfg.batch_size):
            stop = start + cfg.batch_size
            batch = list(zip(schedule.video[start:stop],
                             schedule.indices[start:stop]))
            n = len(batch)
            a = np.empty((arity * n, encoder.input_dim), dtype=encoder.dtype)
            for row, (vid, indices) in enumerate(batch):
                for pos, index in enumerate(indices):
                    a[pos * n + row] = videos[vid].features[index]
            inputs, pre = [], []
            for w, b in zip(encoder.weights, encoder.biases):
                inputs.append(a)
                pre.append(a @ w.T + b)
                a = np.maximum(pre[-1], 0)
            embedded = a.astype(np.float64).reshape(arity, n, -1)
            losses, grads = batch_loss_and_gradients(kind, embedded, cfg.loss)
            loss_sum += float(losses.sum())
            da = (grads.reshape(arity * n, -1) / n).astype(encoder.dtype)
            total = {}
            for i in reversed(range(encoder.num_layers)):
                dz = da * (pre[i] > 0)
                total[f"encoder.{i}.weight"] = dz.T @ inputs[i]
                total[f"encoder.{i}.bias"] = dz.sum(axis=0)
                da = dz @ encoder.weights[i]
            adam_step(encoder.parameters(), total, adam)
        history.append(loss_sum / len(schedule))
    return history


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_size", [1, 17, 64])
@pytest.mark.parametrize("method", sorted(PRETRAIN_METHODS))
def test_pretrain_equals_reference_loop_bitwise(monkeypatch, method,
                                               batch_size, dtype):
    rng = np.random.default_rng(batch_size)
    videos = [FrameSequence(f"u{i}", rng.normal(size=(60 + 7 * i, 6))
                            .astype(np.float32), 1.0) for i in range(3)]
    sampler = SamplerConfig(delta_seconds=3.0, gamma_seconds=20.0, fps=1.0,
                            tuples_per_video=40)
    cfg = PretrainConfig(method=method, epochs=2, batch_size=batch_size,
                         sampler=sampler)
    enc = EncoderModel.create(6, [8], 5, dtype=dtype).init_uniform_fan(
        np.random.default_rng(3))
    ref = enc.copy()
    schedules = []
    build = training.build_epoch_schedule

    def recording(*args, **kwargs):
        schedules.append(build(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(training, "build_epoch_schedule", recording)
    result = pretrain(enc, videos, cfg, rng=11)
    assert len(schedules) == 2
    assert schedules[0].indices.shape[1] == LOSS_ARITY[cfg.loss_kind]
    # 120 tuples per epoch, so batch sizes 17 and 64 end on a partial batch.
    assert len(schedules[0]) == len(schedules[1]) == 120
    expected = _reference_pretrain(ref, videos, cfg, schedules)
    assert result.epoch_losses == expected
    for name, arr in ref.parameters().items():
        assert enc.parameters()[name].tobytes() == arr.tobytes(), name


def test_pretrain_input_validation(rng):
    enc = EncoderModel.create(6, [], 4)
    with pytest.raises(ValueError, match="at least one video"):
        pretrain(enc, [], PretrainConfig(sampler=SMALL_SAMPLER), rng=0)
    wrong = unlabeled_videos(rng, dim=5)
    with pytest.raises(ValueError, match="feature dim"):
        pretrain(enc, wrong, PretrainConfig(sampler=SMALL_SAMPLER), rng=0)


# ------------------------------------------------------------- fine-tuning

def make_model(rng, dim=6, emb=5, hidden=8, phases=3):
    enc = EncoderModel.create(dim, [], emb).init_uniform_fan(rng)
    model = PhaseModel.create(enc, hidden, phases)
    model.init_head_uniform_fan(rng)
    return model


def test_finetune_stop_zero_runs_exactly_one_epoch(rng):
    videos = labeled_videos(rng)
    model = make_model(rng)
    result = finetune(model, videos,
                      FinetuneConfig(stop_train_accuracy=0.0, max_epochs=50,
                                     lr=1e-3), rng=0)
    assert result.epochs_run == 1
    assert result.stopped_early
    assert len(result.epoch_accuracies) == 1
    assert result.epoch_accuracies[0] > 0.0


def test_finetune_max_epochs_zero_is_noop(rng):
    videos = labeled_videos(rng)
    model = make_model(rng)
    before = snapshot(model)
    result = finetune(model, videos, FinetuneConfig(max_epochs=0), rng=0)
    assert result.epochs_run == 0
    assert result.epoch_accuracies == []
    assert not result.stopped_early
    assert_params_equal(model, before)


def test_finetune_same_seed_bitwise_identical(rng):
    videos = labeled_videos(rng)
    cfg = FinetuneConfig(max_epochs=3, stop_train_accuracy=1.0, lr=1e-3)
    models = []
    accs = []
    for _ in range(2):
        model = make_model(np.random.default_rng(4))
        result = finetune(model, videos, cfg, rng=11)
        models.append(model)
        accs.append(result.epoch_accuracies)
    assert accs[0] == accs[1]
    assert_params_equal(models[0], snapshot(models[1]))


def test_accumulation_count_changes_the_updates(rng):
    videos = labeled_videos(rng)
    finals = []
    for acc in (1, 3):
        model = make_model(np.random.default_rng(4))
        finetune(model, videos,
                 FinetuneConfig(max_epochs=2, stop_train_accuracy=1.0,
                                accumulate_batches=acc, batch_frames=16,
                                lr=1e-3), rng=11)
        finals.append(snapshot(model))
    assert any(not np.array_equal(finals[0][name], finals[1][name])
               for name in finals[0])


def test_finetune_steps_every_accumulate_batches_chunks_and_at_epoch_end(
        monkeypatch, rng):
    # 10-frame chunks of videos of 45, 45 and 30 frames: 5 + 5 + 3 = 13
    # chunks per epoch, which 3 does not divide, and in any visiting order
    # some group of 3 chunks straddles two videos.
    videos = [*labeled_videos(rng, n=2), *labeled_videos(rng, n=1,
                                                         frames_per_phase=10)]
    videos[2].video_id = "short"
    model = make_model(rng)
    chunks = 0
    steps = []
    zeroed = []
    forward, zero_state = PhaseModel.forward_chunk_cached, PhaseModel.zero_state

    def counting_forward(self, frames, state_in):
        nonlocal chunks
        chunks += 1
        return forward(self, frames, state_in)

    def recording_zero_state(self):
        zeroed.append(chunks)
        return zero_state(self)

    def recording_adam_step(params, grads, state):
        steps.append(chunks)
        return adam_step(params, grads, state)

    monkeypatch.setattr(PhaseModel, "forward_chunk_cached", counting_forward)
    monkeypatch.setattr(PhaseModel, "zero_state", recording_zero_state)
    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    result = finetune(model, videos,
                      FinetuneConfig(max_epochs=2, stop_train_accuracy=1.0,
                                     accumulate_batches=3, batch_frames=10),
                      rng=3)
    assert result.epochs_run == 2
    assert chunks == 2 * 13
    assert len(steps) == 2 * math.ceil(13 / 3)
    # Every third chunk of an epoch ends a step, and so does its last.
    assert steps == [3, 6, 9, 12, 13, 16, 19, 22, 25, 26]
    # A video's state is zeroed just before its first chunk, so the gaps
    # between zeroings are the videos' chunk counts in visiting order.
    assert len(zeroed) == 2 * len(videos)
    for epoch in (0, 1):
        bounds = [*zeroed[3 * epoch:3 * epoch + 3], 13 * (epoch + 1)]
        assert sorted(np.diff(bounds).tolist()) == [3, 5, 5]


def test_finetune_non_finite_loss_names_the_video_and_frames(rng):
    videos = labeled_videos(rng, n=2)
    model = make_model(rng)
    model.clf_bias[1] = np.nan
    with pytest.raises(NonFiniteLossError,
                       match=r"non-finite cross entropy at epoch 0, video "
                             r"'l[01]', frames \[0, 16\)"):
        finetune(model, videos, FinetuneConfig(batch_frames=16), rng=0)


def test_finetune_walks_each_video_in_order(monkeypatch, rng):
    videos = labeled_videos(rng, n=2, frames_per_phase=30)  # 90 frames each
    model = make_model(rng)
    calls = []
    forward = PhaseModel.forward_chunk_cached

    def recording(self, frames, state_in):
        # Each chunk is a row slice of one video's features.
        for seq in videos:
            if np.shares_memory(frames, seq.features):
                start = ((frames.ctypes.data - seq.features.ctypes.data)
                         // seq.features.strides[0])
                calls.append((seq.video_id, start, start + len(frames)))
        return forward(self, frames, state_in)

    monkeypatch.setattr(PhaseModel, "forward_chunk_cached", recording)
    finetune(model, videos,
             FinetuneConfig(max_epochs=1, stop_train_accuracy=1.0,
                            batch_frames=40),
             rng=3)
    by_video = {}
    for vid, start, end in calls:
        assert 0 < end - start <= 40
        by_video.setdefault(vid, []).append((start, end))
    assert set(by_video) == {"l0", "l1"}
    for vid, spans in by_video.items():
        assert spans == [(0, 40), (40, 80), (80, 90)]


def test_finetune_input_validation(rng):
    model = make_model(rng)
    with pytest.raises(ValueError, match="at least one video"):
        finetune(model, [], FinetuneConfig(), rng=0)
    unlabeled = unlabeled_videos(rng, n=1)
    with pytest.raises(ValueError, match="no labels"):
        finetune(model, unlabeled, FinetuneConfig(), rng=0)
    wrong_dim = labeled_videos(rng, n=1, dim=4)
    with pytest.raises(ValueError, match="feature dim"):
        finetune(model, wrong_dim, FinetuneConfig(), rng=0)
    too_many_phases = labeled_videos(rng, n=1, phases=5)
    with pytest.raises(ValueError, match="exceed"):
        finetune(model, too_many_phases, FinetuneConfig(), rng=0)


def test_finetune_converges_on_four_small_videos():
    # Well-separated phases, tiny model: training accuracy should cross
    # 99.9% within the epoch budget for nearly every seed.
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        videos = labeled_videos(rng, n=4, dim=6, phases=3, frames_per_phase=20)
        model = make_model(rng)
        result = finetune(model, videos,
                          FinetuneConfig(max_epochs=80, lr=1e-2,
                                         stop_train_accuracy=0.999), rng=seed)
        if result.stopped_early:
            assert result.epoch_accuracies[-1] > 0.999
            hits += 1
    assert hits >= 4


# -------------------------------------------------------------- evaluation

def one_hot_videos(labels_per_video, dim, scale=10.0):
    videos = []
    for i, labels in enumerate(labels_per_video):
        labels = np.asarray(labels, dtype=np.int32)
        feats = np.zeros((labels.size, dim), dtype=np.float32)
        feats[np.arange(labels.size), labels] = scale
        videos.append(FrameSequence(f"v{i}", feats, 1.0, labels))
    return videos


def perfect_two_phase_model():
    """Hand-crafted weights that decode 2-dim one-hot inputs exactly.

    Gate packing is [input, forget, candidate, output]; saturating the
    input/output gates open and the forget gate closed makes the hidden
    state mirror tanh of the candidate, which reads the one-hot input."""
    enc = EncoderModel.create(2, [], 2)
    enc.weights[0][:] = np.eye(2, dtype=enc.dtype)
    model = PhaseModel.create(enc, 2, 2)
    h = 2
    model.lstm_bias[0 * h:1 * h] = 20.0   # input gate open
    model.lstm_bias[1 * h:2 * h] = -20.0  # forget gate shut
    model.lstm_bias[3 * h:4 * h] = 20.0   # output gate open
    model.lstm_w_input[2 * h:3 * h, :] = 10.0 * np.eye(2, dtype=model.dtype)
    model.clf_weight[:] = np.eye(2, dtype=model.dtype)
    return model


def test_perfect_model_scores_100_everywhere():
    videos = one_hot_videos([[0] * 8 + [1] * 8, [0] * 5 + [1] * 11], dim=2)
    model = perfect_two_phase_model()
    for seq in videos:
        assert np.array_equal(predict_sequence(model, seq), seq.labels)
    result = evaluate(model, videos)
    report = result.report
    assert report.num_videos == 2
    for summary in (report.accuracy, report.macro_recall,
                    report.macro_precision, report.f1):
        assert summary.mean == 100.0
        assert summary.std == 0.0
        assert summary.count == 2


def test_constant_predictor_scores_50_on_balanced_video():
    enc = EncoderModel.create(2, [], 2)  # all-zero weights
    model = PhaseModel.create(enc, 3, 2)
    model.clf_bias[:] = np.array([1.0, 0.0], dtype=model.dtype)
    videos = one_hot_videos([[0] * 30 + [1] * 30], dim=2)
    result = evaluate(model, videos)
    assert np.array_equal(result.predictions["v0"], np.zeros(60))
    report = result.report
    assert report.accuracy.mean == 50.0
    assert report.macro_recall.mean == 50.0
    assert report.macro_precision.mean == 50.0
    assert report.f1.mean == 50.0


def test_evaluate_does_not_mutate_and_is_idempotent(rng):
    videos = labeled_videos(rng)
    model = make_model(rng)
    before = snapshot(model)
    first = evaluate(model, videos)
    second = evaluate(model, videos)
    assert_params_equal(model, before)
    assert isinstance(first, EvalResult)
    assert first.report == second.report
    for vid in first.predictions:
        assert np.array_equal(first.predictions[vid], second.predictions[vid])


def test_evaluate_input_validation(rng):
    model = make_model(rng)
    with pytest.raises(ValueError, match="at least one video"):
        evaluate(model, [])
    with pytest.raises(ValueError, match="no labels"):
        evaluate(model, unlabeled_videos(rng, n=1))


# -------------------------------------------------------------- end to end

def test_pipeline_is_bit_reproducible():
    def run():
        data = generate_dataset(
            SynthConfig(min_duration=25, max_duration=40, feature_dim=6,
                        num_phases=4), 4, 5)
        enc = EncoderModel.create(6, [8], 4).init_uniform_fan(
            np.random.default_rng(1))
        pre = pretrain(enc, data.videos,
                       PretrainConfig(epochs=2, sampler=SMALL_SAMPLER), rng=2)
        model = PhaseModel.create(enc, 8, 4)
        model.init_head_uniform_fan(np.random.default_rng(3))
        fin = finetune(model, data.videos,
                       FinetuneConfig(max_epochs=3, stop_train_accuracy=1.0,
                                      lr=1e-3), rng=4)
        result = evaluate(model, data.videos)
        return pre.epoch_losses, fin.epoch_accuracies, result.report, snapshot(model)

    run1 = run()
    run2 = run()
    assert run1[0] == run2[0]
    assert run1[1] == run2[1]
    assert run1[2] == run2[2]
    for name in run1[3]:
        assert np.array_equal(run1[3][name], run2[3][name])

"""Training loops: self-supervised pretraining, fine-tuning, evaluation.

Pretraining treats the sequences as unlabeled: it only reads frame features
and timestamps. Fine-tuning is stateful over each video (LSTM state carried
across chunks, gradients truncated at chunk boundaries) with gradient
accumulation over a fixed number of chunks per optimizer step.

Losses and their input gradients are computed in float64; gradients are cast
to the model dtype before backpropagation through parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import FrameSequence
from .errors import NonFiniteLossError
from .losses import LOSS_ARITY, LossConfig, batch_loss_and_gradients
from .metrics import AggregateReport, VideoMetrics, aggregate, video_metrics
from .models import (AdamState, EncoderModel, PhaseModel, adam_step,
                     softmax_cross_entropy_batch)
from .sampling import SamplerConfig, build_epoch_schedule


# Pretraining method -> (loss kind, default temporal offset of the "near"
# frame in seconds). The second-order method trains on the combined
# objective (first-order contrastive plus weighted second-order term) over
# 4-frame tuples; the loss kind's arity fixes the tuple order.
PRETRAIN_METHODS = {
    "contrastive": ("contrastive", 30.0),
    "ranking": ("ranking", 30.0),
    "contrastive2": ("combined", 15.0),
}


def check_method(method: str, where: str = "") -> None:
    """A ValueError, its message prefixed `where`, unless `method` names a
    pretraining method."""
    if method not in PRETRAIN_METHODS:
        raise ValueError(f"{where}unknown pretraining method {method!r}; "
                         f"expected one of {sorted(PRETRAIN_METHODS)}")


@dataclass(frozen=True)
class PretrainConfig:
    """Self-supervised pretraining settings.

    Learning rates are scale-dependent: at paper scale Adam's 1e-4 is
    appropriate (the `paper` preset sets it), but desk-scale runs take far
    fewer optimizer steps, so the defaults here and in `FinetuneConfig` are
    larger to converge within the same epoch budget."""

    method: str = "contrastive"
    epochs: int = 25
    batch_size: int = 64
    lr: float = 1e-3
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        check_method(self.method)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    @property
    def loss_kind(self) -> str:
        return PRETRAIN_METHODS[self.method][0]

    @property
    def tuple_order(self) -> str:
        return "second" if LOSS_ARITY[self.loss_kind] == 4 else "first"


@dataclass
class PretrainResult:
    epoch_losses: list[float]
    tuples_per_epoch: int


def pretrain(encoder: EncoderModel, videos: list[FrameSequence],
             cfg: PretrainConfig, rng) -> PretrainResult:
    """Train the encoder in place on temporal-coherence tuples.

    Labels on the videos, if any, are never read. `rng` is a
    numpy Generator or an integer seed. Returns the per-epoch mean tuple
    loss history.
    """
    if not videos:
        raise ValueError("need at least one video to pretrain on")
    for v in videos:
        if v.feature_dim != encoder.input_dim:
            raise ValueError(f"video {v.video_id!r} has feature dim "
                             f"{v.feature_dim}, encoder expects {encoder.input_dim}")
    # All frames in one array; a video's frame i is row starts[video] + i.
    features = np.concatenate([v.features for v in videos])
    starts = np.cumsum([0] + [v.num_frames for v in videos[:-1]])
    lengths = [(v.video_id, v.num_frames) for v in videos]
    kind = cfg.loss_kind
    arity = LOSS_ARITY[kind]
    rng = np.random.default_rng(rng)
    adam = AdamState(lr=cfg.lr)
    history: list[float] = []
    tuples_per_epoch = cfg.sampler.tuples_per_video * len(videos)
    for epoch in range(cfg.epochs):
        schedule = build_epoch_schedule(lengths, cfg.sampler, rng,
                                        order=cfg.tuple_order)
        rows = starts[schedule.video][:, None] + schedule.indices
        loss_sum = 0.0
        for start in range(0, len(schedule), cfg.batch_size):
            batch = rows[start:start + cfg.batch_size]
            n = len(batch)
            # One forward over the tuples' frames stacked position-major:
            # rows [pos*n, (pos+1)*n) hold tuple position pos.
            emb, cache = encoder.forward_cached(features[batch.T.ravel()])
            embedded = emb.astype(np.float64).reshape(arity, n, -1)
            losses, grads = batch_loss_and_gradients(kind, embedded, cfg.loss)
            if not np.isfinite(losses).all():
                bad = start + int(np.flatnonzero(~np.isfinite(losses))[0])
                raise NonFiniteLossError(
                    f"non-finite {cfg.method} loss at epoch {epoch}, batch "
                    f"starting at tuple {start}, video "
                    f"{videos[schedule.video[bad]].video_id!r}, "
                    f"frames {tuple(schedule.indices[bad].tolist())}")
            # Finite tuple losses can still sum past the float64 range; the
            # epoch mean below refuses that.
            with np.errstate(over="ignore"):
                loss_sum += float(losses.sum())
            # One backward over the whole stack sums the parameter gradients
            # of every tuple position.
            upstream = (grads.reshape(arity * n, -1) / n).astype(encoder.dtype)
            total = encoder.backward(cache, upstream)
            adam_step(encoder.parameters(), total, adam)
        mean_loss = loss_sum / len(schedule)
        if not np.isfinite(mean_loss):
            raise NonFiniteLossError(
                f"non-finite {cfg.method} mean loss at epoch {epoch}: the "
                f"tuple losses sum past the float64 range")
        history.append(mean_loss)
    return PretrainResult(history, tuples_per_epoch)


@dataclass(frozen=True)
class FinetuneConfig:
    """Supervised phase-segmentation training settings.

    `stop_train_accuracy` is a fraction; training stops at the end of the
    first epoch whose training-set frame accuracy exceeds it."""

    batch_frames: int = 128
    accumulate_batches: int = 3
    stop_train_accuracy: float = 0.999
    max_epochs: int = 100
    lr: float = 3e-3  # desk scale; see PretrainConfig

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        if self.accumulate_batches < 1:
            raise ValueError("accumulate_batches must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.stop_train_accuracy <= 1:
            raise ValueError("stop_train_accuracy must be in [0, 1]")


@dataclass
class FinetuneResult:
    epoch_accuracies: list[float]  # fractions, collected while training
    stopped_early: bool

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_accuracies)


def finetune(model: PhaseModel, videos: list[FrameSequence],
             cfg: FinetuneConfig, rng) -> FinetuneResult:
    """Train the phase model in place on labeled videos.

    Videos are visited in a fresh random order each epoch (`rng` is a numpy
    Generator or an integer seed), each as its consecutive `batch_frames`
    chunks; the LSTM state is zeroed at a video's first chunk and carried
    (detached) across the rest. Chunk gradients of the mean cross entropy
    are summed until an Adam step: every `accumulate_batches`-th chunk of
    an epoch, counted across video boundaries, and the epoch's last chunk
    end a step.
    """
    if not videos:
        raise ValueError("need at least one video to fine-tune on")
    for v in videos:
        if v.labels is None:
            raise ValueError(f"video {v.video_id!r} has no labels")
        if v.feature_dim != model.encoder.input_dim:
            raise ValueError(f"video {v.video_id!r} has feature dim "
                             f"{v.feature_dim}, encoder expects "
                             f"{model.encoder.input_dim}")
        if v.labels.max() >= model.num_phases:
            raise ValueError(f"video {v.video_id!r} labels exceed "
                             f"num_phases {model.num_phases}")
    rng = np.random.default_rng(rng)
    adam = AdamState(lr=cfg.lr)
    params = model.parameters()
    epoch_frames = sum(v.num_frames for v in videos)
    history: list[float] = []
    stopped = False
    for epoch in range(cfg.max_epochs):
        visit = [videos[int(vi)] for vi in rng.permutation(len(videos))]
        chunks = [(seq, start) for seq in visit
                  for start in range(0, seq.num_frames, cfg.batch_frames)]
        pending: dict[str, np.ndarray] = {}
        correct = 0
        for k, (seq, start) in enumerate(chunks, 1):
            if start == 0:
                state = model.zero_state()
            end = min(start + cfg.batch_frames, seq.num_frames)
            labels = seq.labels[start:end]
            logits, state, cache = model.forward_chunk_cached(
                seq.features[start:end], state)
            losses, dlogits = softmax_cross_entropy_batch(logits, labels)
            if not np.isfinite(losses).all():
                raise NonFiniteLossError(
                    f"non-finite cross entropy at epoch {epoch}, video "
                    f"{seq.video_id!r}, frames [{start}, {end})")
            dlogits /= end - start
            grads = model.backward_chunk(cache, dlogits.astype(model.dtype))
            for name, g in grads.items():
                if name in pending:
                    pending[name] += g
                else:
                    pending[name] = g
            if k % cfg.accumulate_batches == 0 or k == len(chunks):
                adam_step(params, pending, adam)
                pending = {}
            correct += int((np.argmax(logits, axis=1) == labels).sum())
        accuracy = correct / epoch_frames
        history.append(accuracy)
        if accuracy > cfg.stop_train_accuracy:
            stopped = True
            break
    return FinetuneResult(history, stopped)


def predict_sequence(model: PhaseModel, seq: FrameSequence) -> np.ndarray:
    """Predicted phase per frame from one stateful left-to-right pass."""
    logits, _ = model.forward_chunk(seq.features, model.zero_state())
    return np.argmax(logits, axis=1).astype(np.int32)


@dataclass
class EvalResult:
    report: AggregateReport
    per_video: dict[str, VideoMetrics]
    predictions: dict[str, np.ndarray]


def evaluate(model: PhaseModel, videos: list[FrameSequence]) -> EvalResult:
    """Score the model on labeled videos without mutating anything."""
    if not videos:
        raise ValueError("need at least one video to evaluate on")
    per_video: dict[str, VideoMetrics] = {}
    predictions: dict[str, np.ndarray] = {}
    for seq in videos:
        if seq.labels is None:
            raise ValueError(f"video {seq.video_id!r} has no labels")
        pred = predict_sequence(model, seq)
        predictions[seq.video_id] = pred
        per_video[seq.video_id] = video_metrics(seq.labels, pred, model.num_phases)
    report = aggregate([per_video[v.video_id] for v in videos])
    return EvalResult(report, per_video, predictions)

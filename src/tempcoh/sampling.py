"""Sampling of pretraining tuples from temporally ordered sequences.

A first-order tuple is (t, t+D, t+G) and a second-order tuple is
(t, t+D, t+2D, t+G), where D is a near offset with |D| <= delta_frames and
G a distant offset with |G| >= gamma_frames. All emitted indices lie in
[0, T-1].

Each value is drawn uniformly from its valid set given the values before
it, directly and never by rejection:

- the anchor t from the anchors with at least one valid distant partner,
  [0, T-1-gamma] union [gamma, T-1], which is all of [0, T-1] whenever
  T >= 2 * gamma_frames;
- D from [max(-delta, -t), min(delta, T-1-t)], or for second order from
  [max(-delta, -(t//2)), min(delta, (T-1-t)//2)] so that t+2D is in range
  too;
- G from [-t, -gamma] union [gamma, T-1-t].

This is the distribution of re-drawing each offset uniformly from
[-delta, delta] or [-(T-1), -gamma] union [gamma, T-1] with t held fixed
until it lands in range. One generator call draws a value for every row:
an epoch schedule takes its anchors, near offsets and distant offsets with
one `integers` call each, then shuffles with one `permutation`, whatever
its size. A single tuple is a one-row draw through the same kernel.

`SamplerConfig.check_length` owns the rule that a video must hold a frame
at the distant offset; the sampler and `experiments.pretrain_videos` both
refuse through it, in its words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data_io import check_fps
from .errors import NoValidDistantFrame, allocating


@dataclass(frozen=True)
class SamplerConfig:
    """Offsets in seconds plus the frame rate used to convert them."""

    delta_seconds: float = 30.0
    gamma_seconds: float = 120.0
    fps: float = 5.0
    tuples_per_video: int = 250

    def __post_init__(self):
        if self.delta_seconds < 0 or self.gamma_seconds < 0:
            raise ValueError("delta_seconds and gamma_seconds must be >= 0")
        check_fps(self.fps)
        if not all(math.isfinite(s * self.fps)
                   for s in (self.delta_seconds, self.gamma_seconds)):
            raise ValueError("delta_seconds and gamma_seconds times fps must "
                             "be finite")
        if self.tuples_per_video < 1:
            raise ValueError("tuples_per_video must be >= 1")
        if self.delta_frames >= self.gamma_frames:
            raise ValueError(
                f"derived frame offsets must satisfy delta < gamma, got "
                f"{self.delta_frames} >= {self.gamma_frames}"
            )

    @property
    def delta_frames(self) -> int:
        return round(self.delta_seconds * self.fps)

    @property
    def gamma_frames(self) -> int:
        return round(self.gamma_seconds * self.fps)

    def check_length(self, num_frames: int, video_id=None,
                     where: str = "") -> None:
        """NoValidDistantFrame, its message prefixed `where`, unless a
        video of `num_frames` frames holds two frames `gamma_frames` apart;
        the message names the video and `sampler.gamma_seconds`."""
        if num_frames <= self.gamma_frames:
            video = "a video" if video_id is None else f"video {video_id!r}"
            raise NoValidDistantFrame(
                f"{where}{video} has {num_frames} frames, fewer than the "
                f"{self.gamma_frames + 1} that sampler.gamma_seconds "
                f"{self.gamma_seconds} needs ({self.gamma_frames} frames at "
                f"{self.fps} fps)")


@dataclass(frozen=True)
class SampledTuple:
    """Frame indices of one pretraining example."""

    order: str  # "first" | "second"
    indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class EpochSchedule:
    """One epoch of shuffled tuples: row i is the tuple `indices[i]` drawn
    from the video at position `video[i]` of the list it was built from."""

    video: np.ndarray  # (N,) video positions
    indices: np.ndarray  # (N, arity) frame indices

    def __len__(self) -> int:
        return len(self.video)


def _draw(last, cfg: SamplerConfig, rng, second_order: bool) -> np.ndarray:
    """(N, arity) frame indices, one tuple per entry of the (N,) array
    `last`, the last frame index of that row's video (each at least
    gamma_frames). An integer `last` gives one (arity,) tuple from the same
    formula without the cost of array operations on one-element arrays.

    Three generator calls whatever N: all anchors, all near offsets, all
    distant offsets."""
    gamma_f, delta_f = cfg.gamma_frames, cfg.delta_frames
    # Anchors: [0, last-gamma] then [gamma, last], one range when they meet.
    left = last - gamma_f + 1
    merged = left >= gamma_f
    k = rng.integers(0, np.where(merged, last + 1, 2 * left))
    t = np.where(merged | (k < left), k, k - left + gamma_f)
    if second_order:  # t + 2d must be in range as well
        lo = np.maximum(-delta_f, -(t // 2))
        hi = np.minimum(delta_f, (last - t) // 2)
    else:
        lo = np.maximum(-delta_f, -t)
        hi = np.minimum(delta_f, last - t)
    d = rng.integers(lo, hi + 1)
    # Distant offsets: [-t, -gamma] then [gamma, last-t].
    below = np.maximum(t - gamma_f + 1, 0)
    above = np.maximum(last - t - gamma_f + 1, 0)
    k = rng.integers(0, below + above)
    g = np.where(k < below, k - t, k - below + gamma_f)
    if second_order:
        return np.stack((t, t + d, t + 2 * d, t + g), axis=-1)
    return np.stack((t, t + d, t + g), axis=-1)


def sample_first_order(num_frames: int, cfg: SamplerConfig, rng) -> SampledTuple:
    """Draw one (t, t+D, t+G) tuple."""
    cfg.check_length(num_frames)
    row = _draw(num_frames - 1, cfg, rng, second_order=False)
    return SampledTuple("first", tuple(row.tolist()))


def build_epoch_schedule(
    videos: Sequence[tuple[object, int]],
    cfg: SamplerConfig,
    rng,
    order: str = "first",
) -> EpochSchedule:
    """Sample `tuples_per_video` tuples per video and shuffle them.

    `videos` is a sequence of (video_id, num_frames) pairs; the schedule
    refers to them by position. A video too short for a distant frame is
    named in the raised error. Makes four generator calls. A schedule of
    more tuples than int64 counts raises a ValueError, and one too large to
    allocate a MemoryError, both naming `tuples_per_video`.
    """
    if order not in ("first", "second"):
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    for video_id, num_frames in videos:
        cfg.check_length(num_frames, video_id)
    per_video = cfg.tuples_per_video
    named = f"sampler.tuples_per_video {per_video} for {len(videos)} videos"
    if len(videos) * per_video >= 2**63:
        raise ValueError(f"{named} overflow int64: 2**63 tuples or more")
    with allocating(named):
        last = np.repeat(np.array([n - 1 for _, n in videos], dtype=np.int64),
                         per_video)
        indices = _draw(last, cfg, rng, order == "second")
        perm = rng.permutation(len(last))
        video = np.repeat(np.arange(len(videos)), per_video)
        return EpochSchedule(video[perm], indices[perm])

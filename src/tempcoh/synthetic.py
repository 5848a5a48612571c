"""Synthetic phase-structured sequences for desk-scale experiments.

A procedure runs through up to `num_phases` phases in a fixed global order;
each phase is independently skipped with a small probability (a video keeps
at least two phases). Every frame of a phase is that phase's prototype
vector plus a slow random-walk drift shared across the video plus per-frame
noise. Prototypes are drawn once per dataset, so an encoder can transfer
what it learns across videos. The drift makes temporally close frames
similar for reasons beyond the phase label.

`generate_dataset` names the `SynthConfig` fields behind a failure as keys
of the `synth` config section: the sizes for an allocation that cannot be
made, the scales for features beyond float32. `SynthConfig` itself refuses
a `num_phases` or `fps` through `data_io.check_num_phases` and
`data_io.check_fps`, so no dataset is generated that `load_dataset` would
refuse; a `num_phases * max_duration` beyond int64, naming both keys as an
overflow; and a `skip_probability` at which a video keeps at least two of its
`num_phases` phases with probability below MIN_KEEP_TWO, naming both keys.
`check_video_count` owns the least number of videos a dataset is generated
with, one per split, for `generate_dataset` and the CLI's `synth` alike.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data_io import SPLIT_NAMES, Dataset, FrameSequence, check_fps, check_num_phases
from .errors import allocating


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; phase durations are in frames."""

    num_phases: int = 7
    feature_dim: int = 16
    min_duration: int = 60
    max_duration: int = 300
    prototype_scale: float = 2.0
    drift_step: float = 0.02
    noise_std: float = 0.5
    fps: float = 5.0
    skip_probability: float = 0.1

    def __post_init__(self):
        check_num_phases(self.num_phases)
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if not 1 <= self.min_duration <= self.max_duration:
            raise ValueError("need 1 <= min_duration <= max_duration")
        # `np.repeat` sums a video's phase durations in int64.
        if self.num_phases * self.max_duration >= 2**63:
            raise ValueError(f"{_named(self, ('num_phases', 'max_duration'))} "
                             f"overflow int64: num_phases * max_duration "
                             f"frames is 2**63 or more")
        for key in SCALE_KEYS:
            if not 0 <= getattr(self, key) <= sys.float_info.max:
                raise ValueError(f"{key} must be finite and non-negative")
        check_fps(self.fps)
        if not 0.0 <= self.skip_probability < 1.0:
            raise ValueError("skip_probability must be in [0, 1)")
        # `generate_procedure` redraws a video's phases until it keeps two,
        # which takes 1 / keep_two draws on average.
        p, n = self.skip_probability, self.num_phases
        keep_two = 1.0 - p**n - n * p**(n - 1) * (1.0 - p)
        if keep_two < MIN_KEEP_TWO:
            raise ValueError(f"{_named(self, ('skip_probability', 'num_phases'))} "
                             f"keep at least two of a video's phases with "
                             f"probability below {MIN_KEEP_TWO:g}")


SIZE_KEYS = ("num_phases", "feature_dim", "max_duration")
SCALE_KEYS = ("prototype_scale", "drift_step", "noise_std")
# The least chance per draw that a video keeps two phases: a million draws
# per video on average at most.
MIN_KEEP_TWO = 1e-6


def check_video_count(n_videos: int, where: str = "") -> None:
    """A ValueError, its message prefixed `where`, unless `n_videos` gives
    every split of SPLIT_NAMES a video."""
    if n_videos < len(SPLIT_NAMES):
        raise ValueError(f"{where}need at least {len(SPLIT_NAMES)} videos for "
                         f"an {'/'.join(SPLIT_NAMES)} split, got {n_videos}")


def _named(cfg: SynthConfig, keys: tuple[str, ...]) -> str:
    """`keys` with their values in `cfg`, as the `synth` config section names them."""
    *head, last = (f"synth.{key} {getattr(cfg, key)!r}" for key in keys)
    return f"{', '.join(head)} and {last}"


def generate_prototypes(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """One feature-space anchor per phase, shape (num_phases, feature_dim)."""
    return rng.standard_normal((cfg.num_phases, cfg.feature_dim)) * cfg.prototype_scale


def generate_procedure(cfg: SynthConfig, rng: np.random.Generator,
                       prototypes: np.ndarray, video_id: str) -> FrameSequence:
    """One labeled video built from the given phase prototypes."""
    if prototypes.shape != (cfg.num_phases, cfg.feature_dim):
        raise ValueError(f"prototypes shape {prototypes.shape} does not match "
                         f"config ({cfg.num_phases}, {cfg.feature_dim})")
    while True:
        present = np.flatnonzero(rng.random(cfg.num_phases) >= cfg.skip_probability)
        if present.size >= 2:
            break
    durations = rng.integers(cfg.min_duration, cfg.max_duration + 1,
                             size=present.size)
    labels = np.repeat(present, durations)
    num_frames = labels.shape[0]
    drift = np.cumsum(
        rng.standard_normal((num_frames, cfg.feature_dim)) * cfg.drift_step, axis=0)
    noise = rng.standard_normal((num_frames, cfg.feature_dim)) * cfg.noise_std
    features = prototypes[labels] + drift + noise
    return FrameSequence(video_id, features.astype(np.float32), cfg.fps,
                         labels.astype(np.int32))


def assign_splits(videos: list[FrameSequence]) -> dict[str, str]:
    """Round-robin A/B/C/D over videos ranked by length, longest first,
    which keeps average lengths similar across splits."""
    ranked = sorted(videos, key=lambda v: (-v.num_frames, v.video_id))
    return {v.video_id: SPLIT_NAMES[i % len(SPLIT_NAMES)]
            for i, v in enumerate(ranked)}


def generate_dataset(cfg: SynthConfig, n_videos: int, rng) -> Dataset:
    """Deterministic dataset of `n_videos` labeled videos.

    `rng` is a numpy Generator or an integer seed. Prototypes are drawn
    before any video, and videos are drawn sequentially, so the same seed
    with a larger n_videos reproduces the smaller dataset's videos as a
    prefix.

    Fewer videos than splits raise a ValueError (`check_video_count`), a
    float overflow a ValueError naming SCALE_KEYS, and a size that cannot
    be allocated a MemoryError naming SIZE_KEYS."""
    check_video_count(n_videos)
    rng = np.random.default_rng(rng)
    try:
        # numpy's overflow warning, raised as an error here, stops generation
        # at the first overflow. An `np.errstate(over="raise")` block does the
        # same but left the process's later numpy calls about 8% slower on
        # the `cli-chain` benchmark, which runs every command in one process.
        with allocating(_named(cfg, SIZE_KEYS)), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prototypes = generate_prototypes(cfg, rng)
            videos = [
                generate_procedure(cfg, rng, prototypes, f"video_{i:03d}")
                for i in range(n_videos)
            ]
    except RuntimeWarning as exc:
        raise ValueError(f"{_named(cfg, SCALE_KEYS)} give features beyond "
                         f"float32: {exc}") from exc
    return Dataset(videos, assign_splits(videos), cfg.num_phases, cfg.fps)

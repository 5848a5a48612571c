"""Synthetic sequence generator: structure, determinism, and separability."""

import numpy as np
import pytest

from tempcoh.data_io import SPLIT_NAMES
from tempcoh.synthetic import (
    SynthConfig,
    assign_splits,
    generate_dataset,
    generate_procedure,
    generate_prototypes,
)

SMALL = SynthConfig(min_duration=5, max_duration=12, feature_dim=6)


# ----------------------------------------------------------------- config

@pytest.mark.parametrize("kwargs", [
    {"num_phases": 1},
    {"feature_dim": 0},
    {"min_duration": 0},
    {"min_duration": 10, "max_duration": 5},
    {"noise_std": -1.0},
    {"prototype_scale": -0.5},
    {"fps": 0.0},
    {"skip_probability": 1.0},
    {"skip_probability": -0.1},
    # Non-finite scales and fps: generation then fails only on a size or a
    # float overflow, and names which.
    {"prototype_scale": float("inf")},
    {"drift_step": float("nan")},
    {"noise_std": float("inf")},
    {"fps": float("inf")},
    {"fps": float("nan")},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


@pytest.mark.parametrize("num_phases,max_duration", [
    (7, 2**62), (2, 2**62), (3, (2**63 - 1) // 3 + 1)])
def test_config_refuses_frame_counts_beyond_int64(num_phases, max_duration):
    # A video of every phase at max_duration frames would wrap past int64.
    with pytest.raises(ValueError, match=f"^synth.num_phases {num_phases} and "
                       f"synth.max_duration {max_duration} overflow int64"):
        SynthConfig(num_phases=num_phases, max_duration=max_duration)


def test_config_accepts_frame_counts_up_to_int64_max():
    assert SynthConfig(num_phases=2, max_duration=(2**63 - 1) // 2).num_phases == 2


# ----------------------------------------------------- determinism / prefix

def test_same_seed_bitwise_identical():
    a = generate_dataset(SMALL, 5, 42)
    b = generate_dataset(SMALL, 5, 42)
    assert a.splits == b.splits
    for va, vb in zip(a.videos, b.videos):
        assert va.video_id == vb.video_id
        assert va.features.tobytes() == vb.features.tobytes()
        assert np.array_equal(va.labels, vb.labels)


def test_larger_dataset_extends_smaller_as_prefix():
    small = generate_dataset(SMALL, 6, 7)
    large = generate_dataset(SMALL, 10, 7)
    for va, vb in zip(small.videos, large.videos[:6]):
        assert va.video_id == vb.video_id
        assert va.features.tobytes() == vb.features.tobytes()
        assert np.array_equal(va.labels, vb.labels)


def test_different_seeds_differ():
    a = generate_dataset(SMALL, 4, 1)
    b = generate_dataset(SMALL, 4, 2)
    assert a.videos[0].features.tobytes() != b.videos[0].features.tobytes()


# -------------------------------------------------------- per-video shape

def test_video_invariants_across_seeds():
    cfg = SMALL
    for seed in range(10):
        data = generate_dataset(cfg, 5, seed)
        for seq in data.videos:
            labels = seq.labels
            assert labels is not None
            assert seq.features.dtype == np.float32
            assert seq.fps == cfg.fps
            # Phases appear in global order, each exactly once as a block.
            diffs = np.diff(labels)
            assert (diffs >= 0).all()
            present, counts = np.unique(labels, return_counts=True)
            assert present.size >= 2
            assert present.max() < cfg.num_phases
            assert (counts >= cfg.min_duration).all()
            assert (counts <= cfg.max_duration).all()
            assert (2 * cfg.min_duration
                    <= seq.num_frames
                    <= cfg.num_phases * cfg.max_duration)


def test_noiseless_videos_are_piecewise_prototype_constant(rng):
    cfg = SynthConfig(min_duration=4, max_duration=8, feature_dim=5,
                      drift_step=0.0, noise_std=0.0)
    protos = generate_prototypes(cfg, rng)
    seq = generate_procedure(cfg, rng, protos, "clean")
    expected = protos[seq.labels].astype(np.float32)
    assert np.array_equal(seq.features, expected)


def test_prototype_shape_checked(rng):
    protos = np.zeros((3, SMALL.feature_dim))
    with pytest.raises(ValueError, match="prototypes shape"):
        generate_procedure(SMALL, rng, protos, "bad")


def test_temporally_close_frames_are_closer_than_distant_ones(rng):
    # With default drift + noise, neighbours should be much nearer on
    # average than frames hundreds of steps apart.
    cfg = SynthConfig()
    protos = generate_prototypes(cfg, rng)
    seq = generate_procedure(cfg, rng, protos, "long")
    x = seq.features.astype(np.float64)
    near = np.linalg.norm(x[:-1] - x[1:], axis=1).mean()
    gap = 600
    assert seq.num_frames > gap
    far = np.linalg.norm(x[:-gap] - x[gap:], axis=1).mean()
    assert near < far


def test_nearest_prototype_recovers_labels():
    # Noiseless: exact recovery. Default noise: well above chance.
    clean_cfg = SynthConfig(min_duration=5, max_duration=10, drift_step=0.0,
                            noise_std=0.0)
    rng = np.random.default_rng(3)
    protos = generate_prototypes(clean_cfg, rng)
    seq = generate_procedure(clean_cfg, rng, protos, "v")
    d = np.linalg.norm(seq.features[:, None, :] - protos[None, :, :], axis=2)
    assert (d.argmin(axis=1) == seq.labels).mean() == 1.0

    noisy_cfg = SynthConfig()
    rng = np.random.default_rng(3)
    protos = generate_prototypes(noisy_cfg, rng)
    seq = generate_procedure(noisy_cfg, rng, protos, "v")
    d = np.linalg.norm(seq.features[:, None, :] - protos[None, :, :], axis=2)
    accuracy = (d.argmin(axis=1) == seq.labels).mean()
    assert accuracy > 0.60


# ------------------------------------------------------------------ splits

def test_splits_round_robin_by_length_rank(rng):
    data = generate_dataset(SMALL, 9, 11)
    ranked = sorted(data.videos, key=lambda v: (-v.num_frames, v.video_id))
    for i, seq in enumerate(ranked):
        assert data.splits[seq.video_id] == SPLIT_NAMES[i % 4]


def test_eight_videos_two_per_split():
    data = generate_dataset(SMALL, 8, 5)
    for name in SPLIT_NAMES:
        assert len(data.split(name)) == 2


def test_split_sizes_balanced_for_any_count():
    for n in (4, 5, 6, 7, 11):
        data = generate_dataset(SMALL, n, 0)
        sizes = [len(data.split(name)) for name in SPLIT_NAMES]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


def test_split_mean_lengths_balanced_across_seeds():
    # Longest-first round robin keeps the average video length of each
    # split within 20% of the overall average once there are a few videos
    # per split.
    for seed in range(10):
        data = generate_dataset(SynthConfig(), 16, seed)
        overall = np.mean([v.num_frames for v in data.videos])
        for name in SPLIT_NAMES:
            mean = np.mean([v.num_frames for v in data.split(name)])
            assert abs(mean - overall) / overall < 0.20


def test_too_few_videos_rejected():
    with pytest.raises(ValueError, match="at least 4"):
        generate_dataset(SMALL, 3, 0)


def test_assign_splits_is_deterministic_given_videos():
    data = generate_dataset(SMALL, 7, 9)
    assert assign_splits(data.videos) == data.splits

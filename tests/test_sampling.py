"""Sampler invariants, distribution checks, and schedule construction."""

import numpy as np
import pytest
from scipy import stats

import tempcoh.sampling as sampling
from tempcoh.errors import NoValidDistantFrame
from tempcoh.sampling import (
    EpochSchedule,
    SamplerConfig,
    _draw,
    build_epoch_schedule,
    sample_first_order,
)


def frame_cfg(delta_f: int, gamma_f: int, tuples: int = 250) -> SamplerConfig:
    """Config whose derived frame offsets are exactly (delta_f, gamma_f)."""
    cfg = SamplerConfig(delta_seconds=float(delta_f), gamma_seconds=float(gamma_f),
                        fps=1.0, tuples_per_video=tuples)
    assert cfg.delta_frames == delta_f and cfg.gamma_frames == gamma_f
    return cfg


# ------------------------------------------------------------- configuration

def test_frame_offsets_derived_from_seconds_and_fps():
    cfg = SamplerConfig(delta_seconds=30.0, gamma_seconds=120.0, fps=5.0)
    assert cfg.delta_frames == 150
    assert cfg.gamma_frames == 600
    cfg = SamplerConfig(delta_seconds=29.8, gamma_seconds=120.0, fps=5.0)
    assert cfg.delta_frames == 149


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(delta_seconds=-1.0)
    with pytest.raises(ValueError):
        SamplerConfig(fps=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(tuples_per_video=0)
    with pytest.raises(ValueError):  # derived offsets must satisfy delta < gamma
        SamplerConfig(delta_seconds=120.0, gamma_seconds=120.0)
    for seconds in ({"gamma_seconds": 1e308}, {"delta_seconds": float("nan")}):
        with pytest.raises(ValueError, match="times fps must be finite"):
            SamplerConfig(**seconds)


# ------------------------------------------------------------- invariants

def draw_tuples(t_total: int, cfg: SamplerConfig, rng, order: str = "first"):
    """(tuples_per_video, arity) tuples drawn from one video of t_total
    frames through the epoch-schedule path."""
    return build_epoch_schedule([("v", t_total)], cfg, rng, order=order).indices


def test_first_order_invariants_over_many_draws(rng):
    t_total = 1000
    idx = draw_tuples(t_total, frame_cfg(150, 600, tuples=30_000), rng)
    assert idx.shape == (30_000, 3)
    t, near, far = idx.T
    assert ((idx >= 0) & (idx <= t_total - 1)).all()
    assert (np.abs(near - t) <= 150).all()
    assert (np.abs(far - t) >= 600).all()


def test_second_order_invariants_over_many_draws(rng):
    t_total = 1000
    idx = draw_tuples(t_total, frame_cfg(75, 600, tuples=30_000), rng,
                      order="second")
    assert idx.shape == (30_000, 4)
    t, near, near2, far = idx.T
    assert ((idx >= 0) & (idx <= t_total - 1)).all()
    assert (np.abs(near - t) <= 75).all()
    assert np.array_equal(near2 - near, near - t)  # third index is t + 2*delta
    assert (np.abs(far - t) >= 600).all()


def test_second_order_zero_offset_tuple_is_legal(rng):
    t, near, near2, _ = draw_tuples(50, frame_cfg(1, 5, tuples=200), rng,
                                    order="second").T
    zero = near == t
    assert zero.any()
    assert (near2[zero] == t[zero]).all()


# ------------------------------------------------------------ distributions

def test_anchor_uniform_chi_square(rng):
    # With T >= 2 * gamma_f every anchor has a valid distant partner, so t
    # is uniform over [0, T-1]; chi-square at significance 0.001.
    t_total = 300
    anchors = draw_tuples(t_total, frame_cfg(10, 100, tuples=100_000), rng)[:, 0]
    counts = np.bincount(anchors, minlength=t_total)
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_distant_offset_conditional_support_and_uniformity(rng):
    # T=10, gamma_f=4: conditioned on t=0 the distant offset can only be
    # {4,...,9}; each value's frequency is 1/6 within 0.01.
    cfg = frame_cfg(3, 4, tuples=250_000)
    gammas = np.empty(0, dtype=np.int64)
    while len(gammas) < 20_000:
        t, _, far = draw_tuples(10, cfg, rng).T
        gammas = np.concatenate((gammas, (far - t)[t == 0]))
    gammas = gammas[:20_000]
    values, counts = np.unique(gammas, return_counts=True)
    assert set(values.tolist()) == {4, 5, 6, 7, 8, 9}
    freqs = counts / len(gammas)
    assert np.all(np.abs(freqs - 1 / 6) < 0.01)


def test_near_offset_uniform_away_from_boundaries(rng):
    # For anchors at least delta_f from both ends the near offset is an
    # unconstrained uniform draw from [-delta_f, delta_f]; chi-square at
    # significance 0.001 over its 301 values, and zero and both signs occur.
    t_total = 1000
    delta_f = 150
    t, near, _ = draw_tuples(t_total, frame_cfg(delta_f, 600, tuples=100_000),
                             rng).T
    deltas = (near - t)[(delta_f <= t) & (t <= t_total - 1 - delta_f)]
    assert deltas.min() == -delta_f and deltas.max() == delta_f
    assert (deltas == 0).any()
    counts = np.bincount(deltas + delta_f, minlength=2 * delta_f + 1)
    assert stats.chisquare(counts).pvalue > 0.001


def test_distant_offset_magnitude_never_below_gamma(rng):
    cfg = frame_cfg(10, 100)
    for t_total in (201, 500):
        for _ in range(2000):
            tup = sample_first_order(t_total, cfg, rng)
            assert abs(tup.indices[2] - tup.indices[0]) >= 100


# ------------------------------------------------------------------ errors

def test_no_valid_distant_frame_raised_exactly_at_threshold(rng):
    cfg = SamplerConfig(delta_seconds=30.0, gamma_seconds=120.0, fps=5.0)
    assert cfg.gamma_frames == 600
    for t_total in (500, 600):  # T - 1 < 600
        with pytest.raises(NoValidDistantFrame):
            sample_first_order(t_total, cfg, rng)
        with pytest.raises(NoValidDistantFrame):
            draw_tuples(t_total, cfg, rng, order="second")
    for t_total in (601, 1000):  # T - 1 >= 600: must succeed
        sample_first_order(t_total, cfg, rng)
        draw_tuples(t_total, cfg, rng, order="second")


@pytest.mark.parametrize("second_order", [False, True], ids=["first", "second"])
def test_one_row_draw_equals_first_row_of_one_element_draw(second_order):
    # An integer `last` takes the scalar path of the kernel; it must draw the
    # same tuple and leave the generator in the same state as an array row.
    cfg = frame_cfg(3, 8)
    for seed in range(40):
        for last in (8, 9, 15, 16, 17, 40):
            scalar_rng = np.random.default_rng(seed)
            array_rng = np.random.default_rng(seed)
            row = _draw(last, cfg, scalar_rng, second_order)
            first = _draw(np.array([last]), cfg, array_rng, second_order)[0]
            assert row.shape == first.shape
            assert row.tolist() == first.tolist()
            assert scalar_rng.bit_generator.state == array_rng.bit_generator.state


def test_determinism_same_seed_same_stream():
    cfg = frame_cfg(20, 80)
    rng1 = np.random.default_rng(123)
    rng2 = np.random.default_rng(123)
    run1 = [sample_first_order(400, cfg, rng1) for _ in range(500)]
    run2 = [sample_first_order(400, cfg, rng2) for _ in range(500)]
    assert run1 == run2


# ---------------------------------------------------------------- schedules

def test_schedule_counts_full_scale(rng):
    cfg = SamplerConfig(tuples_per_video=250)
    videos = [(f"v{i:02d}", 1500) for i in range(60)]
    schedule = build_epoch_schedule(videos, cfg, rng)
    assert isinstance(schedule, EpochSchedule)
    assert len(schedule) == 15_000
    assert schedule.video.shape == (15_000,)
    assert schedule.indices.shape == (15_000, 3)
    per_video = np.bincount(schedule.video, minlength=len(videos))
    assert set(per_video.tolist()) == {250}


def test_schedule_single_entry(rng):
    cfg = frame_cfg(2, 10, tuples=1)
    videos = [("only", 30)]
    schedule = build_epoch_schedule(videos, cfg, rng)
    assert len(schedule) == 1 and videos[schedule.video[0]][0] == "only"


def test_schedule_is_shuffled_across_videos(rng):
    cfg = frame_cfg(2, 10, tuples=50)
    videos = [("a", 40), ("b", 40)]
    schedule = build_epoch_schedule(videos, cfg, rng)
    first_half = [videos[v][0] for v in schedule.video[:50]]
    assert set(first_half) == {"a", "b"}  # not grouped by video


def test_schedule_determinism():
    cfg = frame_cfg(5, 20, tuples=40)
    videos = [("a", 100), ("b", 200), ("c", 55)]
    s1 = build_epoch_schedule(videos, cfg, np.random.default_rng(9))
    s2 = build_epoch_schedule(videos, cfg, np.random.default_rng(9))
    assert np.array_equal(s1.video, s2.video)
    assert np.array_equal(s1.indices, s2.indices)


def test_schedule_second_order(rng):
    cfg = frame_cfg(2, 10, tuples=20)
    schedule = build_epoch_schedule([("a", 60)], cfg, rng, order="second")
    assert schedule.indices.shape == (20, 4)
    t, near, near2, _ = schedule.indices.T
    assert np.array_equal(near2 - near, near - t)  # (t, t+D, t+2D, t+G)


def test_schedule_rejects_unknown_order(rng):
    with pytest.raises(ValueError):
        build_epoch_schedule([("a", 60)], frame_cfg(2, 10), rng, order="third")


def test_schedule_error_names_offending_video(rng):
    cfg = frame_cfg(5, 100, tuples=3)
    videos = [("long_enough", 400), ("tiny", 50)]
    with pytest.raises(NoValidDistantFrame, match="tiny"):
        build_epoch_schedule(videos, cfg, rng)


def test_schedule_out_of_memory_names_tuples_per_video(rng, monkeypatch):
    # The draw is made to fail as a huge tuples_per_video makes it fail,
    # without allocating anything.
    message = "Unable to allocate 21.8 TiB for an array with shape (3000000000000,)"

    def cannot_allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(sampling, "_draw", cannot_allocate)
    with pytest.raises(MemoryError) as caught:
        build_epoch_schedule([("a", 60), ("b", 70)], frame_cfg(2, 10, tuples=7), rng)
    assert str(caught.value) == f"sampler.tuples_per_video 7 for 2 videos: {message}"


def test_schedule_past_numpy_size_limit_is_out_of_memory(rng):
    # numpy refuses this size ("array is too big") before allocating.
    cfg = frame_cfg(2, 10, tuples=2 * 10**18)
    with pytest.raises(MemoryError, match=r"^sampler\.tuples_per_video "
                       r"2000000000000000000 for 1 videos: array is too big"):
        build_epoch_schedule([("a", 60)], cfg, rng)


def test_schedule_past_int64_tuples_is_an_overflow(rng):
    # 3 * 9e18 tuples wrap past int64, which numpy would report as a
    # negative dimension.
    cfg = frame_cfg(2, 10, tuples=9 * 10**18)
    with pytest.raises(ValueError, match=r"^sampler\.tuples_per_video "
                       r"9000000000000000000 for 3 videos overflow int64"):
        build_epoch_schedule([("a", 60), ("b", 70), ("c", 80)], cfg, rng)


@pytest.mark.parametrize("order", ["first", "second"])
def test_schedule_rows_satisfy_tuple_invariants_at_every_length(rng, order):
    # Every video length from gamma_f + 1 to 3 * gamma_f, including the
    # lengths below 2 * gamma_f whose anchors form two separate ranges.
    delta_f, gamma_f = 4, 12
    cfg = frame_cfg(delta_f, gamma_f, tuples=300)
    lengths = list(range(gamma_f + 1, 3 * gamma_f + 1))
    schedule = build_epoch_schedule([(f"v{n}", n) for n in lengths], cfg, rng,
                                    order=order)
    assert schedule.indices.shape == (300 * len(lengths), 3 if order == "first" else 4)
    num_frames = np.asarray(lengths)[schedule.video]
    idx = schedule.indices
    t, near, far = idx[:, 0], idx[:, 1], idx[:, -1]
    assert ((idx >= 0) & (idx < num_frames[:, None])).all()
    assert (np.abs(near - t) <= delta_f).all()
    assert (np.abs(far - t) >= gamma_f).all()
    if order == "second":
        assert np.array_equal(idx[:, 2] - near, near - t)
    for n in lengths:
        if n >= 2 * gamma_f:
            continue
        anchors = set(t[num_frames == n].tolist())
        left = set(range(0, n - gamma_f))
        right = set(range(gamma_f, n))
        assert anchors <= left | right
        assert anchors & left and anchors & right


class CountingGenerator:
    """A numpy Generator that counts its calls and offers only the two
    methods the sampler may use."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self.calls += 1
        return self._rng.permutation(*args, **kwargs)


@pytest.mark.parametrize("order", ["first", "second"])
@pytest.mark.parametrize("num_videos,tuples", [(1, 1), (3, 40), (60, 250)])
def test_schedule_makes_four_generator_calls_at_any_size(order, num_videos, tuples):
    cfg = frame_cfg(5, 20, tuples=tuples)
    rng = CountingGenerator(4)
    videos = [(f"v{i}", 30 + 7 * i) for i in range(num_videos)]
    schedule = build_epoch_schedule(videos, cfg, rng, order=order)
    assert len(schedule) == num_videos * tuples
    assert rng.calls == 4

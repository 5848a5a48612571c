"""Loss values against hand-derived oracles, plus gradient and property checks."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import central_diff, rel_error
from tempcoh.losses import (
    LOSS_ARITY,
    LossConfig,
    batch_loss_and_gradients,
    combined_loss,
    contrastive_loss,
    loss_gradients,
    ranking_loss,
    second_order_contrastive_loss,
)

TOL = 1e-9

SCALAR_LOSS = {
    "contrastive": contrastive_loss,
    "ranking": ranking_loss,
    "contrastive2": second_order_contrastive_loss,
    "combined": combined_loss,
}


# ---------------------------------------------------------------- hand values

def test_contrastive_hand_examples():
    cfg = LossConfig(margin_contrastive=2.0)
    assert contrastive_loss((0, 0), (0, 1), (0, 4), cfg) == pytest.approx(1.0, abs=TOL)
    # Both terms vanish: identical near pair, distant pair exactly at margin.
    assert contrastive_loss((1, 1), (1, 1), (1, 3), cfg) == pytest.approx(0.0, abs=TOL)
    assert contrastive_loss((0, 0), (3, 4), (1, 0), cfg) == pytest.approx(6.0, abs=TOL)


def test_ranking_hand_examples():
    cfg = LossConfig(margin_ranking=2.0)
    assert ranking_loss((0, 0), (0, 1), (0, 4), cfg) == pytest.approx(0.0, abs=TOL)
    assert ranking_loss((0, 0), (3, 4), (1, 0), cfg) == pytest.approx(6.0, abs=TOL)


@pytest.mark.parametrize("margin", [2.0, 0.7, 0.0])
def test_ranking_equal_pairs_gives_margin(margin):
    cfg = LossConfig(margin_ranking=margin)
    v = (0.5, -1.5, 2.0)
    assert ranking_loss((0, 0, 0), v, v, cfg) == pytest.approx(margin, abs=TOL)


def test_second_order_hand_examples():
    cfg = LossConfig(margin_contrastive=2.0)
    got = second_order_contrastive_loss((0, 0), (1, 0), (2, 0), (5, 0), cfg)
    assert got == pytest.approx(0.0, abs=TOL)
    v = (1.0, 2.0)
    assert second_order_contrastive_loss(v, v, v, v, cfg) == pytest.approx(2.0, abs=TOL)
    got = second_order_contrastive_loss((0, 0), (1, 0), (3, 0), (2, 0), cfg)
    assert got == pytest.approx(3.0, abs=TOL)


def test_combined_hand_examples():
    cfg = LossConfig(margin_contrastive=2.0, second_order_weight=0.5)
    got = combined_loss((0, 0), (1, 0), (2, 0), (5, 0), cfg)
    assert got == pytest.approx(1.0, abs=TOL)
    v = (3.0, -1.0)
    assert combined_loss(v, v, v, v, cfg) == pytest.approx(3.0, abs=TOL)


def test_combined_with_zero_weight_equals_contrastive(rng):
    cfg = LossConfig(second_order_weight=0.0)
    for _ in range(20):
        a, b, c, g = (rng.normal(size=4) for _ in range(4))
        assert combined_loss(a, b, c, g, cfg) == contrastive_loss(a, b, g, cfg)


def test_second_order_equals_contrastive_on_differences_exactly(rng):
    cfg = LossConfig()
    for _ in range(200):
        a, b, c, g = (rng.normal(size=5) for _ in range(4))
        direct = second_order_contrastive_loss(a, b, c, g, cfg)
        via_diffs = contrastive_loss(a - b, b - c, b - g, cfg)
        assert direct == via_diffs  # bitwise, not approximate


def test_combined_is_sum_of_parts(rng):
    cfg = LossConfig(second_order_weight=0.5)
    for _ in range(50):
        a, b, c, g = (rng.normal(size=3) for _ in range(4))
        expected = (contrastive_loss(a, b, g, cfg)
                    + 0.5 * second_order_contrastive_loss(a, b, c, g, cfg))
        assert combined_loss(a, b, c, g, cfg) == pytest.approx(expected, abs=TOL)


# --------------------------------------------------------- argument checking

def test_loss_config_rejects_negative_values():
    with pytest.raises(ValueError):
        LossConfig(margin_contrastive=-0.1)
    with pytest.raises(ValueError):
        LossConfig(margin_ranking=-1.0)
    with pytest.raises(ValueError):
        LossConfig(second_order_weight=-0.5)


def test_wrong_input_count_rejected():
    v = np.zeros(2)
    with pytest.raises(ValueError):
        loss_gradients("contrastive", [v, v, v, v])
    with pytest.raises(ValueError):
        loss_gradients("combined", [v, v, v])
    with pytest.raises(ValueError):
        batch_loss_and_gradients("ranking", [v, v])


def test_unknown_kind_rejected():
    v = np.zeros(2)
    with pytest.raises(ValueError):
        loss_gradients("euclidean", [v, v, v])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        contrastive_loss((0, 0), (0, 1, 2), (0, 4))


@pytest.mark.parametrize("call,problem", [
    (lambda: contrastive_loss(np.zeros((1, 2)), (0, 1), (0, 4)),
     r"anchor must be a 1-d vector, got shape \(1, 2\)"),
    (lambda: batch_loss_and_gradients(
        "contrastive", [np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3))]),
     "branch shapes differ"),
    (lambda: batch_loss_and_gradients("contrastive", [0.0, 0.0, 0.0]),
     "embeddings must have at least one dimension"),
], ids=["2-d-scalar-loss-input", "batch-sizes-differ", "0-d-branches"])
def test_misshapen_inputs_rejected(call, problem):
    with pytest.raises(ValueError, match=problem):
        call()


# ------------------------------------------------------ subgradient choices

def test_contrastive_near_term_subgradient_zero_at_coincidence():
    a = np.array([1.0, 2.0])
    far = np.array([9.0, 9.0])
    grads = loss_gradients("contrastive", [a, a.copy(), far])
    assert np.array_equal(grads[1], np.zeros(2))


def test_ranking_flat_region_gradients_all_zero():
    # D(near) + margin < D(far): hinge strictly inactive.
    a = np.array([0.0, 0.0])
    near = np.array([0.0, 1.0])
    far = np.array([0.0, 9.0])
    for g in loss_gradients("ranking", [a, near, far]):
        assert np.array_equal(g, np.zeros(2))


def test_contrastive_hinge_boundary_gradient_zero():
    # D(anchor, distant) equals the margin exactly: hinge argument is 0,
    # so the distant branch receives the zero subgradient.
    cfg = LossConfig(margin_contrastive=2.0)
    a = np.array([0.0, 0.0])
    far = np.array([2.0, 0.0])
    grads = loss_gradients("contrastive", [a, np.array([0.0, 0.5]), far], cfg)
    assert np.array_equal(grads[2], np.zeros(2))


# ------------------------------------------------------------- batched form

def test_batch_rows_equal_scalar_calls_exactly(rng):
    cfg = LossConfig()
    for kind in LOSS_ARITY:
        arity = LOSS_ARITY[kind]
        branches = [rng.normal(size=(9, 4)) for _ in range(arity)]
        losses, grads = batch_loss_and_gradients(kind, branches, cfg)
        assert losses.shape == (9,)
        assert len(grads) == arity and all(g.shape == (9, 4) for g in grads)
        for row in range(9):
            single = [b[row] for b in branches]
            assert losses[row] == SCALAR_LOSS[kind](*single, cfg)
            row_grads = loss_gradients(kind, single, cfg)
            for pos in range(arity):
                assert np.array_equal(grads[pos][row], row_grads[pos])


def test_batch_without_gradients(rng):
    branches = [rng.normal(size=(3, 2)) for _ in range(3)]
    losses, grads = batch_loss_and_gradients("contrastive", branches,
                                             want_grads=False)
    assert grads is None and losses.shape == (3,)


# ---------------------------------------------------------------- properties

finite_vec = st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=d, max_size=d))


@given(st.tuples(finite_vec, finite_vec, finite_vec, finite_vec))
def test_losses_nonnegative(vecs):
    d = len(vecs[0])
    vs = [np.resize(np.asarray(v, dtype=float), d) for v in vecs]
    for kind in LOSS_ARITY:
        assert SCALAR_LOSS[kind](*vs[:LOSS_ARITY[kind]]) >= 0.0


@given(st.tuples(finite_vec, finite_vec, finite_vec, finite_vec),
       st.floats(-5, 5, allow_nan=False))
def test_translation_invariance(vecs, shift):
    d = len(vecs[0])
    vs = [np.resize(np.asarray(v, dtype=float), d) for v in vecs]
    for kind in LOSS_ARITY:
        arity = LOSS_ARITY[kind]
        base = SCALAR_LOSS[kind](*vs[:arity])
        moved = SCALAR_LOSS[kind](*[v + shift for v in vs[:arity]])
        assert moved == pytest.approx(base, abs=1e-9)


def test_contrastive_monotone_in_far_distance(rng):
    # Pushing the distant embedding radially away from the anchor never
    # increases the loss; pulling the near embedding away never decreases it.
    for _ in range(50):
        a = rng.normal(size=3)
        near = a + rng.normal(size=3)
        far = a + rng.normal(size=3) + 0.1
        scales = sorted(rng.uniform(0.1, 3.0, size=4))
        far_losses = [contrastive_loss(a, near, a + s * (far - a)) for s in scales]
        assert all(x >= y - 1e-12 for x, y in zip(far_losses, far_losses[1:]))
        near_losses = [contrastive_loss(a, a + s * (near - a), far) for s in scales]
        assert all(x <= y + 1e-12 for x, y in zip(near_losses, near_losses[1:]))


# ------------------------------------------------------------ grad checking

def _nondegenerate(kind: str, pts, cfg: LossConfig, eps: float = 0.05) -> bool:
    """Keep points away from the distance and hinge non-smoothness."""
    def contrastive_ok(a, b, g):
        dn = np.linalg.norm(a - b)
        df = np.linalg.norm(a - g)
        return dn > eps and df > eps and abs(cfg.margin_contrastive - df) > eps

    if kind == "contrastive":
        return contrastive_ok(*pts)
    if kind == "ranking":
        a, b, g = pts
        dn = np.linalg.norm(a - b)
        df = np.linalg.norm(a - g)
        return dn > eps and df > eps and abs(dn - df + cfg.margin_ranking) > eps
    a, b, c, g = pts
    second = contrastive_ok(a - b, b - c, b - g)
    if kind == "contrastive2":
        return second
    return second and contrastive_ok(a, b, g)


def draw_nondegenerate(rng, kind: str, cfg: LossConfig, dim: int):
    while True:
        pts = [rng.uniform(-3.0, 3.0, size=dim) for _ in range(LOSS_ARITY[kind])]
        if _nondegenerate(kind, pts, cfg):
            return pts


def fd_worst_error(kind: str, pts, cfg: LossConfig) -> float:
    dim = pts[0].size
    arity = len(pts)
    flat = np.concatenate(pts)

    def loss_of(x):
        return SCALAR_LOSS[kind](*(x[i * dim:(i + 1) * dim] for i in range(arity)), cfg)

    numeric = central_diff(loss_of, flat)
    analytic = np.concatenate(loss_gradients(kind, pts, cfg))
    return rel_error(analytic, numeric)


@pytest.mark.parametrize("kind", LOSS_ARITY)
def test_gradients_match_finite_differences(kind, rng):
    cfg = LossConfig()
    worst = max(
        fd_worst_error(kind, draw_nondegenerate(rng, kind, cfg, dim), cfg)
        for _ in range(100)
        for dim in [int(rng.integers(2, 6))]
    )
    assert worst < 1e-4


@pytest.mark.parametrize("kind", LOSS_ARITY)
def test_gradients_tight_at_well_conditioned_points(kind, rng):
    # Far from every kink the losses are smooth, so central differences
    # agree to much better than the generic bound.
    cfg = LossConfig()
    worst = max(
        fd_worst_error(kind, draw_nondegenerate(rng, kind, cfg, 3), cfg)
        for _ in range(20)
    )
    assert worst < 1e-6


# ------------------------------------------ stacked evaluator vs per-branch

# The per-branch loss functions the stacked pair-difference evaluator
# replaced, kept as the bitwise reference.

def _reference_dist(a, b):
    return np.linalg.norm(a - b, axis=-1)


def _reference_unit(diff, dist):
    safe = np.where(dist > 0.0, dist, 1.0)
    return np.where((dist > 0.0)[..., None], diff / safe[..., None], 0.0)


def _reference_contrastive(anchor, near, distant, margin, want_grads):
    d_near = _reference_dist(anchor, near)
    d_far = _reference_dist(anchor, distant)
    hinge = margin - d_far
    loss = d_near + np.maximum(0.0, hinge)
    if not want_grads:
        return loss, None
    u_near = _reference_unit(anchor - near, d_near)
    u_far = _reference_unit(anchor - distant, d_far)
    active = (hinge > 0.0)[..., None]
    g_anchor = u_near - np.where(active, u_far, 0.0)
    g_near = -u_near
    g_far = np.where(active, u_far, 0.0)
    return loss, [g_anchor, g_near, g_far]


def _reference_ranking(anchor, near, distant, margin, want_grads):
    d_near = _reference_dist(anchor, near)
    d_far = _reference_dist(anchor, distant)
    hinge = d_near - d_far + margin
    loss = np.maximum(0.0, hinge)
    if not want_grads:
        return loss, None
    active = (hinge > 0.0)[..., None]
    u_near = np.where(active, _reference_unit(anchor - near, d_near), 0.0)
    u_far = np.where(active, _reference_unit(anchor - distant, d_far), 0.0)
    return loss, [u_near - u_far, -u_near, u_far]


def _reference_second_order(anchor, near, near2, distant, margin, want_grads):
    diff_a = anchor - near
    diff_b = near - near2
    diff_g = near - distant
    loss, grads = _reference_contrastive(diff_a, diff_b, diff_g, margin, want_grads)
    if not want_grads:
        return loss, None
    g_a, g_b, g_g = grads
    return loss, [g_a, -g_a + g_b + g_g, -g_b, -g_g]


def _reference_evaluate(kind, branches, cfg, want_grads):
    branches = [np.asarray(b, dtype=np.float64) for b in branches]
    if kind == "contrastive":
        return _reference_contrastive(*branches, cfg.margin_contrastive, want_grads)
    if kind == "ranking":
        return _reference_ranking(*branches, cfg.margin_ranking, want_grads)
    if kind == "contrastive2":
        return _reference_second_order(*branches, cfg.margin_contrastive, want_grads)
    anchor, near, near2, distant = branches
    l1, g1 = _reference_contrastive(anchor, near, distant, cfg.margin_contrastive,
                                    want_grads)
    l2, g2 = _reference_second_order(anchor, near, near2, distant,
                                     cfg.margin_contrastive, want_grads)
    w = cfg.second_order_weight
    loss = l1 + w * l2
    if not want_grads:
        return loss, None
    return loss, [g1[0] + w * g2[0], g1[1] + w * g2[1], w * g2[2],
                  g1[2] + w * g2[3]]


# Tuples whose hinge argument is exactly 0 at the default margins of 2:
# D(a, d) = 2 (contrastive), D(a, n) - D(a, d) + 2 = 0 (ranking), and for
# the 4-tuples both D(a, d) and D(a - n, (n - n2) ... ) terms at 2.
_HINGE_AT_ZERO = {
    "contrastive": [0.0, 0.5, 2.0],
    "ranking": [0.0, 1.0, 3.0],
    "contrastive2": [0.0, 0.0, 0.5, 2.0],
    "combined": [0.0, 0.0, 0.5, 2.0],
}


def _oracle_branches(kind, rows, d, dtype, rng, special=("coincident", "hinge",
                                                         "non-finite")):
    """Random branches of shape (rows, d), or (d,) when rows is None. Their
    first rows are the `special` ones, in order: all branches at zero
    distance, a hinge of exactly 0, a NaN and an infinity."""
    arity = LOSS_ARITY[kind]
    x = rng.normal(size=(arity, rows or 1, d))
    for row, name in enumerate(special[:rows or 1]):
        if name == "coincident":
            x[:, row] = x[0, row]
        elif name == "hinge":
            x[:, row] = 0.0
            x[:, row, 0] = _HINGE_AT_ZERO[kind]
        elif name == "non-finite":
            x[1, row, 0] = np.nan
            x[-1, row, -1] = np.inf
    x = x.astype(dtype)
    return [b[0] for b in x] if rows is None else list(x)


# (config, d, special rows); 0.5 scales exactly, 0.3 shows a reordered
# weighted sum. One-row inputs take the special rows one at a time.
_ORACLE_CASES = [
    (LossConfig(), 1, ("coincident",)),
    (LossConfig(), 5, ("hinge",)),
    (LossConfig(), 32, ()),
    (LossConfig(second_order_weight=0.3), 5, ("hinge", "coincident", "non-finite")),
    (LossConfig(second_order_weight=0.3), 3, ()),
]


@pytest.mark.parametrize("want_grads", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, 1, 17, 64])
@pytest.mark.parametrize("kind", LOSS_ARITY)
def test_stacked_evaluator_equals_per_branch_reference_bitwise(kind, rows, dtype,
                                                               want_grads):
    rng = np.random.default_rng(rows or 0)
    for cfg, d, special in _ORACLE_CASES:
        branches = _oracle_branches(kind, rows, d, dtype, rng, special)
        with np.errstate(invalid="ignore"):
            losses, grads = batch_loss_and_gradients(kind, branches, cfg, want_grads)
            ref_losses, ref_grads = _reference_evaluate(kind, branches, cfg,
                                                        want_grads)
            stacked = batch_loss_and_gradients(kind, np.stack(branches), cfg,
                                               want_grads)
        assert np.shape(losses) == np.shape(ref_losses)
        assert np.asarray(losses).tobytes() == np.asarray(ref_losses).tobytes()
        assert stacked[0].tobytes() == np.asarray(losses).tobytes()
        if not want_grads:
            assert grads is None and stacked[1] is None
            continue
        assert grads.shape == (LOSS_ARITY[kind], *np.shape(branches[0]))
        for pos, ref in enumerate(ref_grads):
            assert grads[pos].tobytes() == ref.tobytes(), (d, special, pos)
        assert stacked[1].tobytes() == grads.tobytes()


@pytest.mark.parametrize("kind", LOSS_ARITY)
def test_oracle_rows_hit_zero_distance_and_zero_hinge(kind):
    """The special rows of the oracle test reach both subgradient cases."""
    branches = np.stack(_oracle_branches(kind, 17, 5, np.float64,
                                         np.random.default_rng(0)))
    assert np.isnan(branches[1, 2, 0]) and np.isinf(branches[-1, 2, -1])
    if kind in ("contrastive2", "combined"):
        a, n, n2, g = branches[:, :2]
        pairs = [(a - n) - (n - n2), (a - n) - (n - g)]
    else:
        a, n, g = branches[:, :2]
        pairs = [a - n, a - g]
    near, far = (np.linalg.norm(p, axis=-1) for p in pairs)
    assert near[0] == far[0] == 0.0
    hinge = near[1] - far[1] + 2.0 if kind == "ranking" else 2.0 - far[1]
    assert hinge == 0.0

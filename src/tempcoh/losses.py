"""Distance and temporal-coherence losses with analytic gradients.

All losses operate on embedding vectors and depend on their inputs only
through differences and Euclidean distances, so every loss is invariant to
translating all inputs by a common vector. Values and gradients are computed
in float64 regardless of input dtype.

Loss kinds:
  contrastive   pull (anchor, near) together, push (anchor, distant) beyond a margin
  ranking       require (anchor, near) closer than (anchor, distant) by a margin
  contrastive2  contrastive loss applied to first differences (steadiness)
  combined      contrastive + weight * contrastive2

Subgradient conventions (needed where the loss is not differentiable): the
gradient of a distance term is zero when the distance is zero, and the
gradient of a hinge is zero when its argument is exactly zero.

Every kind is evaluated on one stack. The branches are converted to float64
once, as an (arity, B, d) array, and each kind builds one stack of the pair
differences whose norms it reads:

  contrastive, ranking  [a-n, a-d]
  contrastive2          [da-db, da-dg], with da = a-n, db = n-n2, dg = n-d
  combined              [a-n, a-d, da-db, da-dg]

One norm and one unit-vector pass run over the whole stack, and the kind
then assembles its hinges and its (arity, B, d) gradients from them. Each
element goes through the same operations in the same order as evaluating
every term on its own arrays would, so the bits do not depend on the
stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOSS_ARITY = {"contrastive": 3, "ranking": 3, "contrastive2": 4, "combined": 4}


@dataclass(frozen=True)
class LossConfig:
    """Margins and second-order weight for the coherence losses."""

    margin_contrastive: float = 2.0
    margin_ranking: float = 2.0
    second_order_weight: float = 0.5

    def __post_init__(self):
        if self.margin_contrastive < 0:
            raise ValueError("margin_contrastive must be >= 0")
        if self.margin_ranking < 0:
            raise ValueError("margin_ranking must be >= 0")
        if self.second_order_weight < 0:
            raise ValueError("second_order_weight must be >= 0")


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _unit(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """diff / dist rowwise, zero rows where dist is not positive."""
    off = ~(dist > 0.0)
    unit = diff / np.where(off, 1.0, dist)[..., None]
    unit[off] = 0.0
    return unit


def _pair_differences(kind: str, x: np.ndarray) -> np.ndarray:
    """The (k, ..., d) stack of pair differences whose norms a loss reads.

    Contrastive and ranking: [a-n, a-d]. Second order, on the first
    differences da = a-n, db = n-n2, dg = n-d: [da-db, da-dg]. Combined:
    all four, with da being a-n."""
    if kind in ("contrastive", "ranking"):
        return x[0] - x[1:]
    deltas = x[1] - x[2:]  # [db, dg]
    if kind == "contrastive2":
        return (x[0] - x[1]) - deltas
    pairs = np.empty((4, *x.shape[1:]))
    np.subtract(x[0], x[1::2], pairs[:2])  # [a-n, a-d]
    np.subtract(pairs[0], deltas, pairs[2:])
    return pairs


def _hinged(dist, units, margin):
    """Contrastive terms D(a, n) + max(0, margin - D(a, d)) of the couples
    stacked as pair differences [a-n, a-d, a'-n', a'-d', ...].

    Returns the (P, ...) losses and, given the unit differences, the
    (P, 3, ..., d) gradients with respect to each couple's (a, n, d)."""
    hinge = margin - dist[1::2]
    loss = dist[0::2] + np.maximum(0.0, hinge)
    if units is None:
        return loss, None
    near = units[0::2]
    grads = np.empty((len(hinge), 3, *units.shape[1:]))
    far = grads[:, 2]
    far[...] = units[1::2]
    far[~(hinge > 0.0)] = 0.0
    np.subtract(near, far, grads[:, 0])
    np.negative(near, grads[:, 1])
    return loss, grads


def _second_order_grads(g: np.ndarray) -> np.ndarray:
    """Branch gradients (a, n, n2, d) of a contrastive term applied to the
    differences (a-n, n-n2, n-d), from that term's gradients g."""
    g_a, g_b, g_g = g
    out = np.empty((4, *g_a.shape))
    out[0] = g_a
    np.add(-g_a + g_b, g_g, out[1])
    np.negative(g[1:], out[2:])
    return out


def _evaluate(kind: str, x: np.ndarray, cfg: LossConfig, want_grads: bool):
    """Losses and (arity, ..., d) gradients for the float64 (arity, ..., d)
    stack of branches."""
    pairs = _pair_differences(kind, x)
    dist = np.linalg.norm(pairs, axis=-1)
    units = _unit(pairs, dist) if want_grads else None
    if kind == "ranking":
        hinge = dist[0] - dist[1] + cfg.margin_ranking
        loss = np.maximum(0.0, hinge)
        if not want_grads:
            return loss, None
        units[:, ~(hinge > 0.0)] = 0.0
        u_near, u_far = units
        return loss, np.stack([u_near - u_far, -u_near, u_far])
    losses, grads = _hinged(dist, units, cfg.margin_contrastive)
    if kind == "contrastive":
        return losses[0], None if grads is None else grads[0]
    if kind == "contrastive2":
        return losses[0], None if grads is None else _second_order_grads(grads[0])
    w = cfg.second_order_weight
    loss = losses[0] + w * losses[1]
    if not want_grads:
        return loss, None
    # [g1_a + w*g2_a, g1_n + w*g2_n, w*g2_n2, g1_d + w*g2_d], each sum
    # taken as w*g2 + g1: swapping an addition's operands is exact.
    out = _second_order_grads(grads[1])
    out *= w
    out[:2] += grads[0, :2]
    out[3] += grads[0, 2]
    return loss, out


def _branch_stack(kind: str, branches) -> np.ndarray:
    """Check the branches against the kind and stack them as one float64
    (arity, ..., d) array."""
    if kind not in LOSS_ARITY:
        raise ValueError(f"unknown loss kind {kind!r}")
    if len(branches) != LOSS_ARITY[kind]:
        raise ValueError(
            f"{kind} expects {LOSS_ARITY[kind]} inputs, got {len(branches)}"
        )
    if not isinstance(branches, np.ndarray):
        shapes = {np.shape(b) for b in branches}
        dims = {s[-1] for s in shapes if s}
        if len(dims) > 1:
            raise ValueError(f"embedding dimensions differ: {sorted(dims)}")
        if len(shapes) != 1:
            raise ValueError(f"branch shapes differ: {sorted(shapes)}")
    x = np.asarray(branches, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("embeddings must have at least one dimension")
    return x


def batch_loss_and_gradients(kind, branches, cfg=LossConfig(), want_grads=True):
    """Evaluate a loss on stacked embeddings.

    `branches` holds one array of shape (B, d) (or (d,) for a single
    example) per network branch in tuple order: a list of arrays, or one
    (arity, B, d) array. Returns per-example losses of shape (B,) and, when
    requested, one (arity, B, d) gradient array whose entry i is branch i's
    gradient. Everything is computed in float64.
    """
    return _evaluate(kind, _branch_stack(kind, branches), cfg, want_grads)


def _scalar_loss(kind: str, named, cfg: LossConfig) -> float:
    vectors = [_as_vector(v, name) for v, name in named]
    loss, _ = _evaluate(kind, _branch_stack(kind, vectors), cfg, want_grads=False)
    return float(loss)


def contrastive_loss(anchor, near, distant, cfg: LossConfig = LossConfig()) -> float:
    """D(anchor, near) + max(0, margin - D(anchor, distant))."""
    return _scalar_loss("contrastive", ((anchor, "anchor"), (near, "near"),
                                        (distant, "distant")), cfg)


def ranking_loss(anchor, near, distant, cfg: LossConfig = LossConfig()) -> float:
    """max(0, D(anchor, near) - D(anchor, distant) + margin)."""
    return _scalar_loss("ranking", ((anchor, "anchor"), (near, "near"),
                                    (distant, "distant")), cfg)


def second_order_contrastive_loss(anchor, near, near2, distant,
                                  cfg: LossConfig = LossConfig()) -> float:
    """Contrastive loss applied to the first differences of a 4-tuple."""
    return _scalar_loss("contrastive2", ((anchor, "anchor"), (near, "near"),
                                         (near2, "near2"), (distant, "distant")), cfg)


def combined_loss(anchor, near, near2, distant, cfg: LossConfig = LossConfig()) -> float:
    """First-order contrastive plus weighted second-order contrastive."""
    return _scalar_loss("combined", ((anchor, "anchor"), (near, "near"),
                                     (near2, "near2"), (distant, "distant")), cfg)


def loss_gradients(kind: str, inputs, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Analytic (sub)gradients of a loss with respect to each input embedding,
    as one (arity, d) array.

    Gradients flow through every branch; shared-parameter accumulation is the
    caller's concern.
    """
    vectors = [_as_vector(v, f"inputs[{i}]") for i, v in enumerate(inputs)]
    _, grads = _evaluate(kind, _branch_stack(kind, vectors), cfg, want_grads=True)
    return grads

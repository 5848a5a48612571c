"""Headline A/B experiment: pretraining arms versus a no-pretraining
baseline, trained and scored under one protocol.

Per seed, every arm shares the same fine-tuning RNG stream (head
initialization and video shuffling), so arms differ only in how the encoder
was obtained: freshly initialized (baseline) or initialized and pretrained.
RNG streams are derived as default_rng([seed, lane]) with lane 0 for the
baseline encoder, 1 for pretraining, 2 for fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import resolve_delta_seconds
from .data_io import Dataset
from .losses import LossConfig
from .metrics import AggregateReport
from .models import EncoderModel, PhaseModel
from .sampling import SamplerConfig
from .training import (FinetuneConfig, FinetuneResult, PretrainConfig,
                       PretrainResult, evaluate, finetune, pretrain)

BASELINE = "baseline"


def build_encoder(resolved: dict, feature_dim: int) -> EncoderModel:
    model_cfg = resolved["model"]
    return EncoderModel.create(feature_dim, model_cfg["hidden_sizes"],
                               model_cfg["embedding_dim"])


def build_phase_model(resolved: dict, encoder: EncoderModel,
                      num_phases: int) -> PhaseModel:
    return PhaseModel.create(encoder, resolved["model"]["lstm_hidden"], num_phases)


def make_pretrain_config(resolved: dict, method: str, fps: float) -> PretrainConfig:
    sampler = dict(resolved["sampler"],
                   delta_seconds=resolve_delta_seconds(resolved, method))
    return PretrainConfig(method=method, loss=LossConfig(**resolved["loss"]),
                          sampler=SamplerConfig(fps=fps, **sampler),
                          **resolved["pretrain"])


def make_finetune_config(resolved: dict) -> FinetuneConfig:
    return FinetuneConfig(**resolved["finetune"])


@dataclass
class ArmResult:
    """One trained and evaluated arm of the comparison."""

    seed: int
    method: str  # BASELINE or a pretraining method name
    encoder: EncoderModel  # state going into fine-tuning (pretrained or random)
    report: AggregateReport
    finetune_log: FinetuneResult
    pretrain_log: PretrainResult | None


def run_arm(dataset: Dataset, resolved: dict, labeled_sets: tuple[str, ...],
            seed: int, method: str) -> ArmResult:
    """Train one arm end to end and evaluate it on split D."""
    unlabeled = dataset.split("A", "B", "C")
    labeled = dataset.split(*labeled_sets)
    test = dataset.split("D")
    encoder = build_encoder(resolved, dataset.feature_dim)
    pretrain_log = None
    if method == BASELINE:
        encoder.init_uniform_fan(np.random.default_rng([seed, 0]))
    else:
        rng = np.random.default_rng([seed, 1])
        encoder.init_uniform_fan(rng)
        cfg = make_pretrain_config(resolved, method, dataset.fps)
        pretrain_log = pretrain(encoder, unlabeled, cfg, rng)
    snapshot = encoder.copy()
    model = build_phase_model(resolved, encoder, dataset.num_phases)
    rng = np.random.default_rng([seed, 2])
    model.init_head_uniform_fan(rng)
    finetune_log = finetune(model, labeled, make_finetune_config(resolved), rng)
    report = evaluate(model, test).report
    return ArmResult(seed, method, snapshot, report, finetune_log, pretrain_log)


def run_comparison(dataset: Dataset, resolved: dict,
                   labeled_sets: tuple[str, ...], methods: list[str],
                   seeds: list[int]) -> list[ArmResult]:
    """Baseline plus each pretraining method, across all seeds."""
    arms = []
    for seed in seeds:
        arms.append(run_arm(dataset, resolved, labeled_sets, seed, BASELINE))
        for method in methods:
            arms.append(run_arm(dataset, resolved, labeled_sets, seed, method))
    return arms

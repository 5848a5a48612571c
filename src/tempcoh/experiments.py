"""Headline A/B experiment: pretraining arms versus a no-pretraining
baseline, trained and scored under one protocol.

Per seed, every arm shares the same fine-tuning RNG stream (head
initialization and video shuffling), so arms differ only in how the encoder
was obtained: freshly initialized (baseline) or initialized and pretrained.
RNG streams are derived as default_rng([seed, lane]) with lane 0 for the
baseline encoder, 1 for pretraining, 2 for fine-tuning. The single-step
`pretrain` and `finetune` commands run the same two stages, so one seed
trains one model whichever entry point runs it.
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
# The split roles of the protocol: pretraining reads the videos of splits
# A+B+C without their labels, and every arm is scored on the test split D.
PRETRAIN_SPLITS = ("A", "B", "C")
TEST_SPLIT = "D"
# The label budgets: fine-tuning sees the labels of split A, A+B or A+B+C,
# never those of the test split.
LABEL_BUDGETS = ("A", "AB", "ABC")


def _check_label_budget(labeled_sets: tuple[str, ...]) -> None:
    if tuple(labeled_sets) not in map(tuple, LABEL_BUDGETS):
        raise ValueError(f"labeled sets {''.join(labeled_sets)!r} are not a "
                         f"label budget; expected one of {list(LABEL_BUDGETS)}")


def _out_of_memory(names: str, exc: MemoryError) -> MemoryError:
    """A MemoryError naming `names`, the values behind a failed allocation,
    then `exc`'s message if it has one."""
    return MemoryError(f"{names}{f': {exc}' if str(exc) else ''}")


def build_encoder(resolved: dict, feature_dim: int) -> EncoderModel:
    """A zero encoder for `feature_dim` inputs; a MemoryError names the
    model sizes that could not be allocated."""
    model_cfg = resolved["model"]
    try:
        return EncoderModel.create(feature_dim, model_cfg["hidden_sizes"],
                                   model_cfg["embedding_dim"])
    except MemoryError as exc:
        raise _out_of_memory(
            f"model.hidden_sizes {model_cfg['hidden_sizes']} and "
            f"model.embedding_dim {model_cfg['embedding_dim']} on "
            f"{feature_dim} input features", exc) from exc


def build_phase_model(resolved: dict, encoder: EncoderModel,
                      num_phases: int) -> PhaseModel:
    return PhaseModel.create(encoder, resolved["model"]["lstm_hidden"], num_phases)


def make_pretrain_config(resolved: dict, method: str, fps: float) -> PretrainConfig:
    sampler = dict(resolved["sampler"],
                   delta_seconds=resolve_delta_seconds(resolved, method))
    return PretrainConfig(method=method, loss=LossConfig(**resolved["loss"]),
                          sampler=SamplerConfig(fps=fps, **sampler),
                          **resolved["pretrain"])


@dataclass
class ArmResult:
    """One trained and evaluated arm of the comparison."""

    seed: int
    method: str  # BASELINE or a pretraining method name
    encoder: EncoderModel  # state going into fine-tuning (pretrained or random)
    report: AggregateReport
    finetune_log: FinetuneResult
    pretrain_log: PretrainResult | None


def pretrain_stage(dataset: Dataset, resolved: dict, seed: int,
                   method: str) -> tuple[EncoderModel, PretrainResult | None]:
    """The encoder that goes into fine-tuning: for BASELINE only initialized
    from lane 0, otherwise initialized from lane 1 and pretrained on splits
    A+B+C with that same stream."""
    encoder = build_encoder(resolved, dataset.feature_dim)
    if method == BASELINE:
        encoder.init_uniform_fan(np.random.default_rng([seed, 0]))
        return encoder, None
    rng = np.random.default_rng([seed, 1])
    encoder.init_uniform_fan(rng)
    cfg = make_pretrain_config(resolved, method, dataset.fps)
    return encoder, pretrain(encoder, dataset.split(*PRETRAIN_SPLITS), cfg, rng)


def finetune_stage(dataset: Dataset, resolved: dict, encoder: EncoderModel,
                   labeled_sets: tuple[str, ...],
                   seed: int) -> tuple[PhaseModel, FinetuneResult]:
    """A phase model on a copy of `encoder`, which stays as it was, its
    head initialized from lane 2 and trained on the labeled splits with
    that same stream; a ValueError for labeled sets outside LABEL_BUDGETS.
    A MemoryError from building the model names the dataset's num_phases."""
    _check_label_budget(labeled_sets)
    encoder = encoder.copy()
    try:
        model = build_phase_model(resolved, encoder, dataset.num_phases)
    except MemoryError as exc:
        raise _out_of_memory(
            f"{dataset.manifest_path or 'dataset'}: num_phases "
            f"{dataset.num_phases} with model.lstm_hidden "
            f"{resolved['model']['lstm_hidden']}", exc) from exc
    rng = np.random.default_rng([seed, 2])
    model.init_head_uniform_fan(rng)
    result = finetune(model, dataset.split(*labeled_sets),
                      FinetuneConfig(**resolved["finetune"]), rng)
    return model, result


def run_arm(dataset: Dataset, resolved: dict, labeled_sets: tuple[str, ...],
            seed: int, method: str) -> ArmResult:
    """Train one arm end to end and evaluate it on the test split."""
    _check_label_budget(labeled_sets)
    encoder, pretrain_log = pretrain_stage(dataset, resolved, seed, method)
    model, finetune_log = finetune_stage(dataset, resolved, encoder,
                                         labeled_sets, seed)
    report = evaluate(model, dataset.split(TEST_SPLIT)).report
    return ArmResult(seed, method, encoder, report, finetune_log, pretrain_log)

"""Headline A/B experiment: pretraining arms versus a no-pretraining
baseline, trained and scored under one protocol.

Per seed, every arm shares the same fine-tuning RNG stream (head
initialization and video shuffling), so arms differ only in how the encoder
was obtained: freshly initialized (baseline) or initialized and pretrained.
RNG streams are derived as default_rng([seed, lane]) with lane 0 for the
baseline encoder, 1 for pretraining, 2 for fine-tuning. The single-step
`pretrain` and `finetune` commands run the same two stages, so one seed
trains one model whichever entry point runs it. Fine-tuning reads a copy of
the encoder, so one pretrained encoder serves every label budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import build_stage, resolve_delta_seconds
from .data_io import Dataset, FrameSequence
from .errors import allocating
from .losses import LossConfig
from .metrics import AggregateReport
from .models import EncoderModel, ModelConfig, PhaseModel
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


def check_label_budget(labeled_sets: Sequence[str]) -> None:
    if tuple(labeled_sets) not in map(tuple, LABEL_BUDGETS):
        raise ValueError(f"labeled sets {''.join(labeled_sets)!r} are not a "
                         f"label budget; expected one of {list(LABEL_BUDGETS)}")


def build_encoder(resolved: dict, feature_dim: int) -> EncoderModel:
    """A zero encoder for `feature_dim` inputs; a MemoryError names the
    model sizes that could not be allocated."""
    cfg = build_stage("model", ModelConfig, **resolved["model"])
    with allocating(f"model.hidden_sizes {cfg.hidden_sizes} and "
                    f"model.embedding_dim {cfg.embedding_dim} on "
                    f"{feature_dim} input features"):
        return EncoderModel.create(feature_dim, cfg.hidden_sizes,
                                   cfg.embedding_dim)


def build_phase_model(resolved: dict, encoder: EncoderModel,
                      num_phases: int) -> PhaseModel:
    return PhaseModel.create(encoder, resolved["model"]["lstm_hidden"], num_phases)


def make_pretrain_config(resolved: dict, method: str, fps: float) -> PretrainConfig:
    """The pretraining stage's settings. The sampler is built here, where
    the dataset's `fps` is known, and its range errors begin `[sampler] `."""
    values = dict(resolved["sampler"],
                  delta_seconds=resolve_delta_seconds(resolved, method))
    sampler = build_stage("sampler", SamplerConfig, fps=fps, **values)
    return PretrainConfig(method=method, loss=LossConfig(**resolved["loss"]),
                          sampler=sampler, **resolved["pretrain"])


def pretrain_videos(dataset: Dataset,
                    cfg: PretrainConfig) -> list[FrameSequence]:
    """The videos of splits A+B+C, which pretraining samples; a
    DataFormatError naming the dataset's manifest when they hold none, or a
    NoValidDistantFrame naming it and the first video too short for a
    frame at the distant offset (`SamplerConfig.check_length`)."""
    videos = dataset.split(*PRETRAIN_SPLITS)
    for seq in videos:
        cfg.sampler.check_length(seq.num_frames, seq.video_id,
                                 f"{dataset.manifest_path or 'dataset'}: ")
    return videos


@dataclass
class ArmResult:
    """One trained and evaluated arm of the comparison."""

    encoder: EncoderModel  # state going into fine-tuning (pretrained or random)
    report: AggregateReport
    finetune_log: FinetuneResult
    pretrain_log: PretrainResult | None


def pretrain_stage(dataset: Dataset, resolved: dict, seed: int,
                   method: str) -> tuple[EncoderModel, PretrainResult | None]:
    """The encoder that goes into fine-tuning: for BASELINE only initialized
    from lane 0, otherwise initialized from lane 1 and pretrained on splits
    A+B+C with that same stream; `pretrain_videos`' refusals come before
    training."""
    encoder = build_encoder(resolved, dataset.feature_dim)
    if method == BASELINE:
        encoder.init_uniform_fan(np.random.default_rng([seed, 0]))
        return encoder, None
    rng = np.random.default_rng([seed, 1])
    encoder.init_uniform_fan(rng)
    cfg = make_pretrain_config(resolved, method, dataset.fps)
    return encoder, pretrain(encoder, pretrain_videos(dataset, cfg), cfg, rng)


def finetune_stage(dataset: Dataset, resolved: dict, encoder: EncoderModel,
                   labeled_sets: Sequence[str],
                   seed: int) -> tuple[PhaseModel, FinetuneResult]:
    """A phase model on a copy of `encoder`, which stays as it was, its
    head initialized from lane 2 and trained on the labeled splits with
    that same stream; a ValueError for labeled sets outside LABEL_BUDGETS,
    and a DataFormatError when they hold no videos or a video without
    labels. A MemoryError from
    building the model names the dataset's num_phases."""
    check_label_budget(labeled_sets)
    encoder = encoder.copy()
    with allocating(f"{dataset.manifest_path or 'dataset'}: num_phases "
                    f"{dataset.num_phases} with model.lstm_hidden "
                    f"{resolved['model']['lstm_hidden']}"):
        model = build_phase_model(resolved, encoder, dataset.num_phases)
    rng = np.random.default_rng([seed, 2])
    model.init_head_uniform_fan(rng)
    result = finetune(model, dataset.labeled_split(*labeled_sets),
                      FinetuneConfig(**resolved["finetune"]), rng)
    return model, result


def run_arms(dataset: Dataset, resolved: dict,
             budgets: Sequence[Sequence[str]], seeds: Sequence[int],
             methods: Sequence[str]) -> dict[tuple, ArmResult]:
    """The comparison grid: (budget, seed, method) -> that arm, evaluated on
    the test split, for each budget as given, seed and method (BASELINE
    among them or not). Every input is checked once before any training,
    in this order: each pretraining method's sampler at the dataset's fps
    (`make_pretrain_config`), then the videos it samples
    (`pretrain_videos`), then each budget (a ValueError outside
    LABEL_BUDGETS) and its labeled videos, then the test split (a
    DataFormatError for a selection of no videos or one holding a video
    without labels). Each (seed, method) encoder is pretrained once and
    each budget fine-tunes a copy of it, so each arm is bit for bit the
    arm of a run of its cell alone."""
    for cfg in [make_pretrain_config(resolved, m, dataset.fps)
                for m in methods if m != BASELINE]:
        pretrain_videos(dataset, cfg)
    for labeled_sets in budgets:
        check_label_budget(labeled_sets)
        dataset.labeled_split(*labeled_sets)
    test = dataset.labeled_split(TEST_SPLIT)
    arms = {}
    for seed in seeds:
        for method in methods:
            encoder, pretrain_log = pretrain_stage(dataset, resolved, seed,
                                                   method)
            for labeled_sets in budgets:
                model, finetune_log = finetune_stage(dataset, resolved, encoder,
                                                     labeled_sets, seed)
                arms[(labeled_sets, seed, method)] = ArmResult(
                    encoder, evaluate(model, test).report, finetune_log,
                    pretrain_log)
    return arms


def run_arm(dataset: Dataset, resolved: dict, labeled_sets: tuple[str, ...],
            seed: int, method: str) -> ArmResult:
    """Train one arm end to end and evaluate it on the test split: the
    one-cell grid of `run_arms`."""
    return run_arms(dataset, resolved, [labeled_sets], [seed],
                    [method])[(labeled_sets, seed, method)]

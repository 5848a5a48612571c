"""Per-video phase segmentation metrics and their mean/std aggregation.

Accuracy, macro recall, macro precision and F1 are computed per video as
percentages; aggregation reports mean and sample standard deviation over the
videos in which a metric is defined. F1 is the harmonic mean of a video's
macro precision and macro recall, computed per video BEFORE averaging, so
the aggregate F1 can fall below the harmonic mean of the aggregate
precision/recall when per-video scores are dispersed.

Undefined cases are excluded rather than zeroed: a phase absent from a
video's ground truth does not enter that video's macro recall, and a phase
never predicted does not enter its macro precision. A phase's F1 is defined
only where both its precision and recall are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The headline scores of a video and of a report, in the order reports list
# them: the field names of VideoMetrics and AggregateReport.
HEADLINE = ("accuracy", "macro_recall", "macro_precision", "f1")


def confusion_matrix(gt, pred, num_phases: int) -> np.ndarray:
    """Counts[i, j] = number of frames with ground truth i predicted as j."""
    gt = np.asarray(gt, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gt.shape != pred.shape or gt.ndim != 1:
        raise ValueError(f"gt and pred must be equal-length 1-d sequences, "
                         f"got {gt.shape} and {pred.shape}")
    if gt.size and (gt.min() < 0 or gt.max() >= num_phases):
        raise ValueError("ground-truth label out of range")
    if pred.size and (pred.min() < 0 or pred.max() >= num_phases):
        raise ValueError("predicted label out of range")
    counts = np.zeros((num_phases, num_phases), dtype=np.int64)
    np.add.at(counts, (gt, pred), 1)
    return counts


@dataclass
class VideoMetrics:
    """One video's scores, all as percentages in [0, 100]."""

    accuracy: float
    macro_recall: float
    macro_precision: float
    f1: float
    per_phase_f1: dict[int, float | None] = field(default_factory=dict)


def _harmonic(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def video_metrics(gt, pred, num_phases: int) -> VideoMetrics:
    """Compute one video's accuracy, macro recall/precision, F1, per-phase F1."""
    counts = confusion_matrix(gt, pred, num_phases)
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute metrics for an empty video")
    tp = np.diag(counts).astype(np.float64)
    gt_count = counts.sum(axis=1).astype(np.float64)  # TP + FN
    pred_count = counts.sum(axis=0).astype(np.float64)  # TP + FP

    accuracy = 100.0 * tp.sum() / total
    recalls = {k: tp[k] / gt_count[k] for k in range(num_phases) if gt_count[k] > 0}
    precisions = {k: tp[k] / pred_count[k] for k in range(num_phases) if pred_count[k] > 0}
    macro_recall = 100.0 * float(np.mean(list(recalls.values())))
    macro_precision = 100.0 * float(np.mean(list(precisions.values())))

    per_phase: dict[int, float | None] = {}
    for k in range(num_phases):
        if k in recalls and k in precisions:
            per_phase[k] = 100.0 * _harmonic(precisions[k], recalls[k])
        else:
            per_phase[k] = None

    return VideoMetrics(
        accuracy=accuracy,
        macro_recall=macro_recall,
        macro_precision=macro_precision,
        f1=_harmonic(macro_precision, macro_recall),
        per_phase_f1=per_phase,
    )


@dataclass
class MetricSummary:
    """Mean and sample std over the videos where a metric was defined."""

    mean: float | None
    std: float | None
    count: int

    @classmethod
    def of(cls, values: list[float]) -> "MetricSummary":
        if not values:
            return cls(mean=None, std=None, count=0)
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return cls(mean=float(arr.mean()), std=std, count=int(arr.size))


@dataclass
class AggregateReport:
    """Mean +/- std of each metric over a set of videos."""

    accuracy: MetricSummary
    macro_recall: MetricSummary
    macro_precision: MetricSummary
    f1: MetricSummary
    per_phase_f1: dict[int, MetricSummary]
    num_videos: int


def aggregate(videos: list[VideoMetrics]) -> AggregateReport:
    """Aggregate per-video metrics; per-phase entries keep their own counts."""
    if not videos:
        raise ValueError("cannot aggregate an empty list of videos")
    phases = sorted({k for v in videos for k in v.per_phase_f1})
    per_phase = {
        k: MetricSummary.of(
            [v.per_phase_f1[k] for v in videos
             if v.per_phase_f1.get(k) is not None]
        )
        for k in phases
    }
    headline = {m: MetricSummary.of([getattr(v, m) for v in videos])
                for m in HEADLINE}
    return AggregateReport(**headline, per_phase_f1=per_phase,
                           num_videos=len(videos))

"""Where the benchmark wraps tempcoh, and the work each wrapped call does.

`StageClock` is on in every run. It times pretraining per epoch,
fine-tuning per epoch and evaluation per video, scaled to nominal host
speed in untraced runs (`hostspeed.py`), and captures the evaluated model
for the output check. Layer spans (`install_layers`) are on only in
traced iterations. Each function is wrapped at the binding its caller looks
up, e.g. `tempcoh.experiments.pretrain` for `run_arm` and
`tempcoh.cli.pretrain` for the CLI runner. MAC counts are computed from
array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np

from tempcoh import (cli, config, experiments, retrieval, synthetic, training)
from tempcoh.models import EncoderModel, PhaseModel

from hostspeed import Reference

STAGE_OWNERS = (experiments, cli)  # run_arm and the CLI runners


class StageClock:
    """Throughput samples (work per wall second) of the three training
    stages. Epoch and video boundaries come from calls the stages make at
    each: `build_epoch_schedule` once per pretraining epoch, and
    `PhaseModel.zero_state` once per video visit.

    With a host-speed `reference`, it is timed at the start and end of each
    stage call and at each training epoch boundary, and the time spent in
    it is left out of the intervals. `samples` are scaled to nominal host
    speed with the mean of the timings at an interval's two ends (an
    evaluated video's with the stage's mean); `raw_samples` are not."""

    def __init__(self, reference: Reference | None = None):
        self._patches: list[tuple[object, str, object]] = []
        # (end of the previous interval, reference s or None, start of the
        # next) per boundary of the running stage; None outside a stage.
        self._bounds: list[tuple[float, float | None, float]] | None = None
        self._visits = 0
        self._every = 1    # marker calls per boundary in the running stage
        self._timed = False  # whether inner boundaries time the reference
        self.reference = reference
        self.samples = {"pretrain": [], "finetune": [], "evaluate": []}
        self.raw_samples = {"pretrain": [], "finetune": [], "evaluate": []}
        self.captured: dict[str, object] = {}

    def install(self) -> None:
        # (stage, marker calls per boundary, time the reference there)
        stages = (("pretrain", lambda args: 1, True),
                  ("finetune", lambda args: len(args[1]), True),
                  ("evaluate", lambda args: 1, False))
        for attr, every, timed in stages:
            for owner in STAGE_OWNERS:
                self._patch(owner, attr, self._stage(attr, getattr(owner, attr),
                                                     every, timed))
        self._patch(training, "build_epoch_schedule",
                    self._marker(training.build_epoch_schedule))
        self._patch(PhaseModel, "zero_state", self._marker(PhaseModel.zero_state))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _boundary(self, timed: bool) -> None:
        end = time.perf_counter()
        reference = None
        if timed and self.reference is not None:
            reference = self.reference.measure()
        self._bounds.append((end, reference, time.perf_counter()))

    def _marker(self, fn):
        # The first call of a stage opens its first interval, which the
        # stage's start also does, so it is not a boundary.
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self._bounds is not None:
                visit, self._visits = self._visits, self._visits + 1
                if visit and visit % self._every == 0:
                    self._boundary(self._timed)
            return fn(*args, **kwargs)
        return marked

    def _stage(self, stage: str, fn, every, timed):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            self._bounds, self._visits = [], 0
            self._every, self._timed = every(args), timed
            self._boundary(True)
            try:
                result = fn(*args, **kwargs)
                self._boundary(True)
                bounds = self._bounds
            finally:
                self._bounds = None
            self._add(stage, self._work(stage, args, result), bounds)
            return result
        return clocked

    def _work(self, stage: str, args, result) -> list[float]:
        """Work done in each interval: tuples per pretraining epoch, frames
        per fine-tuning epoch or per evaluated video."""
        if stage == "pretrain":
            return [result.tuples_per_epoch] * len(result.epoch_losses)
        if stage == "finetune":
            return [sum(v.num_frames for v in args[1])] * result.epochs_run
        self.captured["evaluate"] = (args[0], result)
        return [v.num_frames for v in args[1]]

    def _add(self, stage: str, work: list[float], bounds) -> None:
        """One sample per interval between consecutive boundaries."""
        timed = [ref for _, ref, _ in bounds if ref is not None]
        mean = statistics.mean(timed) if timed else None
        for amount, (_, ref_a, start), (end, ref_b, _) in zip(work, bounds,
                                                             bounds[1:]):
            rate = amount / (end - start)
            self.raw_samples[stage].append(rate)
            if mean is None:
                self.samples[stage].append(rate)
                continue
            ends = [ref for ref in (ref_a, ref_b) if ref is not None]
            ref = statistics.mean(ends) if ends else mean
            self.samples[stage].append(rate * Reference.speed(ref))


# --------------------------------------------------------------- work counts


def _schedule_done(tracer, args, result):
    tracer.count("sampling.tuples", len(result))


def _epochs_done(tracer, args, result):
    tracer.count("training.finetune.epochs_run", result.epochs_run)


def _encoder_macs(encoder: EncoderModel) -> int:
    return sum(w.size for w in encoder.weights)


def _encoder_forward_done(tracer, args, result):
    encoder, x = args[0], np.asarray(args[1])
    rows = 1 if x.ndim == 1 else x.shape[0]
    tracer.count("models.encoder.rows", rows)
    tracer.count("models.encoder.macs", rows * _encoder_macs(encoder))


def _encoder_backward_done(tracer, args, result):
    encoder, grad = args[0], args[2]
    per_row = sum(w.size for i, w in enumerate(encoder.weights)
                  if encoder.trainable[i])  # weight gradients
    per_row += sum(w.size for w in encoder.weights[1:])  # input gradients
    tracer.count("models.encoder.macs", grad.shape[0] * per_row)


def _lstm_forward_done(tracer, args, result):
    model, frames = args[0], args[1]
    n = len(frames)
    tracer.count("models.lstm.frames", n)
    tracer.count("models.lstm.macs", n * (model.lstm_w_input.size
                                          + model.lstm_w_hidden.size
                                          + model.clf_weight.size))


def _lstm_backward_done(tracer, args, result):
    model, grad_logits = args[0], args[2]
    # classifier weight and hidden gradients, recurrent step, input-weight
    # gradient and embedding gradient, hidden-weight gradient
    per_frame = (2 * model.clf_weight.size + 2 * model.lstm_w_hidden.size
                 + 2 * model.lstm_w_input.size)
    tracer.count("models.lstm.macs", grad_logits.shape[0] * per_frame)


def _adam_done(tracer, args, result):
    grads = args[1]
    tracer.count("models.adam.elements", sum(g.size for g in grads.values()))
    if tracer.inside("training.finetune"):
        tracer.count("training.finetune.adam_steps")


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _dataset_bytes(directory) -> int:
    """Bytes of the files `load_dataset` reads from a dataset directory."""
    directory = Path(directory)
    manifest_path = directory / "dataset.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = [manifest_path, directory / manifest["splits_file"]]
    for entry in manifest["videos"]:
        files.append(directory / entry["features"])
        if "labels" in entry:
            files.append(directory / entry["labels"])
    return sum(_file_bytes(p) for p in files)


def _bytes_counter(counter: str, measure):
    def done(tracer, args, result):
        tracer.count(counter, measure(args[0]))
    return done


# ------------------------------------------------------------------ bindings

CLI_COMMANDS = ("synth", "pretrain", "finetune", "eval", "retrieve", "replay")
DATA_IO = {
    "load_dataset": ("data_io.bytes_read", _dataset_bytes),
    "save_dataset": ("data_io.bytes_written", _dataset_bytes),
    "load_encoder": ("data_io.bytes_read", _file_bytes),
    "save_encoder": ("data_io.bytes_written", _file_bytes),
    "load_phase_model": ("data_io.bytes_read", _file_bytes),
    "save_phase_model": ("data_io.bytes_written", _file_bytes),
    "load_checkpoint": ("data_io.bytes_read", _file_bytes),
}


def install_layers(tracer) -> None:
    """Wrap every layer function; install after the stage clock."""
    for owner in STAGE_OWNERS:
        tracer.wrap(owner, "pretrain", "training.pretrain")
        tracer.wrap(owner, "finetune", "training.finetune", _epochs_done)
        tracer.wrap(owner, "evaluate", "training.evaluate")
    tracer.wrap(experiments, "run_arm", "experiments.run_arm")
    for owner in (synthetic, cli):
        tracer.wrap(owner, "generate_dataset", "synthetic.generate_dataset")
    for owner in (config, cli):
        tracer.wrap(owner, "resolve_config", "config.resolve_config")
    tracer.wrap(training, "build_epoch_schedule",
                "sampling.build_epoch_schedule", _schedule_done)
    tracer.wrap(training, "batch_loss_and_gradients",
                "losses.batch_loss_and_gradients")
    tracer.wrap(training, "adam_step", "models.adam_step", _adam_done)
    tracer.wrap(training, "softmax_cross_entropy_batch",
                "models.softmax_cross_entropy_batch")
    tracer.wrap(training, "video_metrics", "metrics.video_metrics")
    tracer.wrap(training, "aggregate", "metrics.aggregate")
    tracer.wrap(EncoderModel, "forward", "models.encoder.forward",
                _encoder_forward_done)
    tracer.wrap(EncoderModel, "forward_cached", "models.encoder.forward_cached",
                _encoder_forward_done)
    tracer.wrap(EncoderModel, "backward", "models.encoder.backward",
                _encoder_backward_done)
    tracer.wrap(PhaseModel, "forward_chunk_cached",
                "models.lstm.forward_chunk_cached", _lstm_forward_done)
    tracer.wrap(PhaseModel, "backward_chunk", "models.lstm.backward_chunk",
                _lstm_backward_done)
    for owner in (retrieval, cli):
        tracer.wrap(owner, "retrieval_report", "retrieval.retrieval_report")
    tracer.wrap(retrieval, "embed_corpus", "retrieval.embed_corpus")
    tracer.wrap(retrieval, "nearest_frame", "retrieval.nearest_frame")
    for attr, (counter, measure) in DATA_IO.items():
        tracer.wrap(cli, attr, f"data_io.{attr}",
                    _bytes_counter(counter, measure))
    tracer.wrap(cli, "main", "cli.main")
    for command in CLI_COMMANDS:
        tracer.wrap(cli, f"cmd_{command}", f"cli.main.{command}")


# ------------------------------------------------------------ layer metrics

# Functions run by every workload: calls and self time of each.
TIMED = (
    "config.resolve_config", "synthetic.generate_dataset",
    "sampling.build_epoch_schedule", "training.pretrain", "training.finetune",
    "training.evaluate", "models.encoder.forward",
    "models.encoder.forward_cached", "models.encoder.backward",
    "losses.batch_loss_and_gradients", "models.adam_step",
    "models.lstm.forward_chunk_cached", "models.lstm.backward_chunk",
    "models.softmax_cross_entropy_batch", "metrics.video_metrics",
    "metrics.aggregate", "retrieval.retrieval_report", "retrieval.embed_corpus",
    "retrieval.nearest_frame",
)
# Functions with at least 1000 calls per arm-pair iteration: p50 and p99.
PERCENTILES = (
    "models.encoder.forward_cached", "models.encoder.backward",
    "losses.batch_loss_and_gradients", "models.adam_step",
    "models.softmax_cross_entropy_batch", "retrieval.nearest_frame",
)
# Functions that only some workloads run: calls only. Their self times are
# in the detail record; as metrics they would read a constant 0 s there.
COUNTED = (
    "experiments.run_arm",
    *(f"data_io.{attr}" for attr in DATA_IO),
    "cli.main", *(f"cli.main.{command}" for command in CLI_COMMANDS),
)
# Work counts -> (unit, better). Tuples, rows, frames and epochs are work
# done, fixed by the workload; MACs are computed from array shapes.
COUNTERS = {
    "sampling.tuples": ("count", "higher"),
    "models.encoder.rows": ("count", "higher"),
    "models.encoder.macs": ("MAC-computed", "lower"),
    "models.adam.elements": ("count", "lower"),
    "models.lstm.frames": ("count", "higher"),
    "models.lstm.macs": ("MAC-computed", "lower"),
    "training.finetune.epochs_run": ("count", "higher"),
    "training.finetune.adam_steps": ("count", "lower"),
    "data_io.bytes_read": ("bytes", "lower"),
    "data_io.bytes_written": ("bytes", "lower"),
}
# name -> (unit, better) for every per-layer metric, in report order.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _name in TIMED:
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
for _name in PERCENTILES:
    LAYER_METRICS[f"{_name}.p50_ms"] = ("ms", "lower")
    LAYER_METRICS[f"{_name}.p99_ms"] = ("ms", "lower")
for _name in COUNTED:
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
LAYER_METRICS.update(COUNTERS)
LAYER_METRICS.update({
    "models.encoder.gmacs_per_s": ("GMAC/s", "higher"),
    "models.lstm.gmacs_per_s": ("GMAC/s", "higher"),
    "models.lstm.ms_per_frame": ("ms", "lower"),
    "sampling.rng_calls_per_tuple": ("calls/tuple", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
})


def _self(spans, name) -> float:
    return spans[name].self_s if name in spans else 0.0


def bucket_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics from one bucket of spans and counters."""
    spans, counters = tracer.spans, tracer.counters
    out: dict[str, float] = {}
    for name in (*TIMED, *COUNTED):
        out[f"{name}.calls"] = spans[name].calls if name in spans else 0
    for name in TIMED:
        out[f"{name}.self_s"] = _self(spans, name)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    encoder_s = sum(_self(spans, f"models.encoder.{f}")
                    for f in ("forward", "forward_cached", "backward"))
    lstm_s = (_self(spans, "models.lstm.forward_chunk_cached")
              + _self(spans, "models.lstm.backward_chunk"))
    out["models.encoder.gmacs_per_s"] = (
        counters.get("models.encoder.macs", 0) / encoder_s / 1e9
        if encoder_s else 0.0)
    out["models.lstm.gmacs_per_s"] = (
        counters.get("models.lstm.macs", 0) / lstm_s / 1e9 if lstm_s else 0.0)
    frames = counters.get("models.lstm.frames", 0)
    out["models.lstm.ms_per_frame"] = lstm_s / frames * 1e3 if frames else 0.0
    return out


def percentile_metrics(durations: dict[str, list[float]]) -> dict[str, float]:
    out = {}
    for name in PERCENTILES:
        values = durations.get(name) or [0.0]
        p50, p99 = np.percentile(values, [50, 99])
        out[f"{name}.p50_ms"] = float(p50) * 1e3
        out[f"{name}.p99_ms"] = float(p99) * 1e3
    return out


def median_metrics(buckets: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(b[name] for b in buckets)
            for name in buckets[0]}


class CountingRng:
    """Proxy over a numpy Generator counting the draws the sampler makes;
    `build_epoch_schedule` only calls `integers` and `permutation`."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        self.calls += 1
        return self._rng.permutation(*args, **kwargs)


def rng_calls_per_tuple(lengths, sampler_cfg, order: str, seed) -> float:
    """Generator calls per emitted tuple for one epoch schedule."""
    rng = CountingRng(np.random.default_rng(seed))
    schedule = training.build_epoch_schedule(lengths, sampler_cfg, rng,
                                             order=order)
    return rng.calls / len(schedule)

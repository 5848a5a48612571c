"""The benchmark still runs against the package.

`perfbench` wraps tempcoh functions by name (`tempcoh.cli.pretrain`,
`tempcoh.experiments.make_pretrain_config`, ...), so renaming one breaks
every benchmark run. One short `cli-chain` run per mode checks that each
binding it patches still exists and that the outputs pass its own checks;
a set-up probe of each other workload checks the bindings its set-up
reads (`experiments.build_encoder`, `PhaseModel.init_uniform_fan`, ...).
The traced run also checks that the training layers and the CLI commands
are still called through the bindings the benchmark wraps: a refactor
that bypasses one would read 0 calls there while every output stays
right. It asserts no timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_LAYERS = (
    "losses.batch_loss_and_gradients", "models.adam_step",
    "sampling.build_epoch_schedule", "models.encoder.forward_cached",
    "models.encoder.backward", "models.lstm.forward_chunk_cached",
    "models.lstm.backward_chunk",
    # `cli.main` finds each command's function when it runs, so the
    # benchmark's wrapper on `cli.cmd_<command>` sees every call.
    *(f"cli.main.{command}" for command in (
        "synth", "pretrain", "finetune", "eval", "retrieve", "replay")),
)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_chain_runs_clean(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-chain",
         "--seed", "0", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == "0":
        # One sample per epoch: an iteration pretrains 2 epochs and
        # fine-tunes 5, each in its command and again in its replay. The
        # stage clock finds epoch ends from `build_epoch_schedule` and
        # `PhaseModel.zero_state` calls, so a refactor that bypassed either
        # would merge epochs into fewer samples.
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        stats = detail["metric_stats"]
        assert stats["pretrain_tuples_per_s"]["n"] == 4 * detail["iterations"]
        assert stats["finetune_frames_per_s"]["n"] == 10 * detail["iterations"]
    if trace == "1":
        metrics = result["metrics"]
        for layer in TRACED_LAYERS:
            assert metrics[f"{layer}.calls"]["value"] > 0, layer


@pytest.mark.parametrize("workload", ["arm-pair", "paper-shape"])
def test_workload_setup_runs(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--setup-probe", "--workload",
         workload, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout.strip().splitlines()[-1])

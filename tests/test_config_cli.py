"""Configuration precedence and the command-line interface end to end.

The CLI tests run `main(argv)` in process on a tiny shared dataset; every
command writes a manifest that `replay` must reproduce byte for byte.
"""

import argparse
import copy
import dataclasses
import json
import math
import re
import shlex
import shutil
import struct
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempcoh.cli as cli
import tempcoh.data_io as data_io
import tempcoh.experiments as experiments
import tempcoh.synthetic as synthetic
from tempcoh.cli import main
from tempcoh.config import (
    DEFAULTS,
    SCHEMA,
    STAGES,
    parse_config_file,
    parse_set_flag,
    resolve_config,
    resolve_delta_seconds,
)
from tempcoh.data_io import (load_checkpoint, load_dataset, load_encoder,
                             load_phase_model, save_checkpoint, save_encoder,
                             save_phase_model)
from tempcoh.errors import TempcohError, UsageError, allocating
from tempcoh.losses import LossConfig
from tempcoh.models import EncoderModel, ModelConfig, PhaseModel
from tempcoh.sampling import SamplerConfig
from tempcoh.synthetic import SynthConfig
from tempcoh.training import FinetuneConfig, PretrainConfig
from test_acceptance import FINETUNE_EPOCH_CAP, HARD_SYNTH, PRETRAIN_EPOCHS

REPO = Path(__file__).resolve().parents[1]

# ------------------------------------------------------------------ config


def test_defaults_pass_through():
    resolved = resolve_config()
    assert resolved == DEFAULTS
    assert resolved is not DEFAULTS
    assert resolved["model"]["embedding_dim"] == 32
    assert resolved["finetune"]["stop_train_accuracy"] == 0.999


def test_paper_preset_overrides_scale_knobs():
    resolved = resolve_config(preset="paper")
    assert resolved["model"]["hidden_sizes"] == []
    assert resolved["model"]["embedding_dim"] == 4096
    assert resolved["model"]["lstm_hidden"] == 512
    assert resolved["pretrain"]["lr"] == 1e-4
    assert resolved["finetune"]["lr"] == 1e-4
    # Everything else follows the shared defaults.
    assert resolved["loss"] == DEFAULTS["loss"]
    assert resolved["sampler"] == DEFAULTS["sampler"]


def test_unknown_preset_rejected():
    with pytest.raises(UsageError, match="unknown preset"):
        resolve_config(preset="huge")


def test_precedence_flag_beats_file_beats_preset(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "# comment line\n"
        "[model]\n"
        "embedding_dim = 48  ; inline comment\n"
        "hidden_sizes = 16,8\n"
        "[pretrain]\n"
        "lr = 0.005\n")
    resolved = resolve_config(preset="paper", config_file=cfg,
                              set_flags=["model.embedding_dim=64"])
    assert resolved["model"]["embedding_dim"] == 64        # flag wins
    assert resolved["model"]["hidden_sizes"] == [16, 8]    # file beats preset
    assert resolved["pretrain"]["lr"] == 0.005             # file beats preset
    assert resolved["model"]["lstm_hidden"] == 512         # preset beats default


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(UsageError, match="not found"):
        parse_config_file(missing)
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[weights]\nx = 1\n")
    with pytest.raises(UsageError, match="unknown config section"):
        parse_config_file(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[model]\nwidth = 3\n")
    with pytest.raises(UsageError, match="unknown key"):
        parse_config_file(bad_key)
    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[pretrain]\nepochs = many\n")
    with pytest.raises(UsageError, match="bad value"):
        parse_config_file(bad_value)
    not_ini = tmp_path / "d.ini"
    not_ini.write_text("epochs = 3\n")  # key before any [section]
    with pytest.raises(UsageError, match="config file"):
        parse_config_file(not_ini)
    # A file that is not UTF-8 and a directory are refused by name too.
    binary = tmp_path / "enc.ckpt"
    binary.write_bytes(b"[pretrain]\nepochs = 3\n\xff\xfe\n")
    with pytest.raises(UsageError,
                       match=f"^{re.escape(f'config file {binary}: ')}'utf-8'"):
        parse_config_file(binary)
    with pytest.raises(UsageError,
                       match=f"^{re.escape(f'config file {tmp_path}: ')}"):
        parse_config_file(tmp_path)


@pytest.mark.parametrize("text,message", [
    ("[DEFAULT]\nepochs = 3\n[pretrain]\nlr = 0.01\n",
     "unknown config section [DEFAULT]"),
    ("[DEFAULT]\nepochs = 3\n", "unknown config section [DEFAULT]"),
    ("[pretrain]\nlr = 1e-3%\n", "bad value '1e-3%' for pretrain.lr"),
    ("[pretrain]\nlr = %(x)s\n", "bad value '%(x)s' for pretrain.lr"),
    ("[loss]\nmargin_ranking = -inf\n",
     "bad value '-inf' for loss.margin_ranking: not a finite number"),
], ids=["default-beside-a-section", "default-alone", "percent",
        "interpolation", "infinite"])
def test_config_file_has_no_default_section_interpolation_or_infinity(
        tmp_path, capsys, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--videos", "4",
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_set_flag_parsing():
    assert parse_set_flag("model.hidden_sizes=32,16") == (
        ("model", "hidden_sizes"), [32, 16])
    assert parse_set_flag("model.hidden_sizes=") == (
        ("model", "hidden_sizes"), [])
    assert parse_set_flag("sampler.delta_seconds=none") == (
        ("sampler", "delta_seconds"), None)
    for bad in ("model.embedding_dim", "embedding_dim=3",
                "model.width=3", "pretrain.epochs=x"):
        with pytest.raises(UsageError):
            parse_set_flag(bad)


def test_delta_default_depends_on_method():
    resolved = resolve_config()
    assert resolved["sampler"]["delta_seconds"] is None
    assert resolve_delta_seconds(resolved, "contrastive") == 30.0
    assert resolve_delta_seconds(resolved, "ranking") == 30.0
    assert resolve_delta_seconds(resolved, "contrastive2") == 15.0
    explicit = resolve_config(set_flags=["sampler.delta_seconds=7.5"])
    for method in ("contrastive", "ranking", "contrastive2"):
        assert resolve_delta_seconds(explicit, method) == 7.5
    with pytest.raises(ValueError, match="^unknown pretraining method "
                       "'triplet'; expected one of "):
        resolve_delta_seconds(resolved, "triplet")


def test_stage_dataclass_defaults_are_the_config_defaults():
    for section, cls in (("synth", SynthConfig), ("loss", LossConfig),
                         ("model", ModelConfig), ("finetune", FinetuneConfig)):
        assert cls(**DEFAULTS[section]) == cls(), section
    # Fields that are not keys: the method is a command argument, the
    # frame rate comes from the dataset, and the nested configs are
    # sections of their own. `delta_seconds` is a key, but its default
    # (None) is resolved per method.
    for section, cls, skip in (
            ("pretrain", PretrainConfig, {"method", "loss", "sampler"}),
            ("sampler", SamplerConfig, {"fps", "delta_seconds"})):
        default = cls()
        expected = {f.name: getattr(default, f.name)
                    for f in dataclasses.fields(cls) if f.name not in skip}
        actual = {k: v for k, v in DEFAULTS[section].items() if k not in skip}
        assert actual == expected, section
        assert all(type(actual[k]) is type(v) for k, v in expected.items())


def test_settable_keys_are_pinned():
    keys = {f"{section}.{key}" for section, section_keys in DEFAULTS.items()
            for key in section_keys}
    assert keys == {
        "synth.num_phases", "synth.feature_dim", "synth.min_duration",
        "synth.max_duration", "synth.prototype_scale", "synth.drift_step",
        "synth.noise_std", "synth.fps", "synth.skip_probability",
        "sampler.delta_seconds", "sampler.gamma_seconds",
        "sampler.tuples_per_video",
        "loss.margin_contrastive", "loss.margin_ranking",
        "loss.second_order_weight",
        "model.hidden_sizes", "model.embedding_dim", "model.lstm_hidden",
        "pretrain.epochs", "pretrain.batch_size", "pretrain.lr",
        "finetune.batch_frames", "finetune.accumulate_batches",
        "finetune.stop_train_accuracy", "finetune.max_epochs", "finetune.lr",
    }


# -------------------------------------------------------------- CLI fixture

# Slow frame rate keeps the derived frame offsets (and so the required video
# length) small enough for a tiny end-to-end dataset.
TINY = ["--set", "synth.fps=0.2", "--set", "synth.min_duration=25",
        "--set", "synth.max_duration=45", "--set", "synth.feature_dim=6",
        "--set", "synth.num_phases=4"]


def test_direction_config_is_the_criterion_6_regime():
    expected = {("synth", key): value for key, value in HARD_SYNTH.items()}
    expected[("pretrain", "epochs")] = PRETRAIN_EPOCHS
    expected[("finetune", "max_epochs")] = FINETUNE_EPOCH_CAP
    assert parse_config_file(REPO / "configs" / "direction.ini") == expected


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--videos", "8",
                 "--seed", "1", *TINY]) == 0
    assert main(["pretrain", "--data", str(data), "--method", "contrastive2",
                 "--out", str(root / "enc.ckpt"), "--seed", "3",
                 "--set", "pretrain.epochs=1"]) == 0
    assert main(["finetune", "--data", str(data), "--labeled-sets", "A",
                 "--out", str(root / "model.ckpt"), "--seed", "5",
                 "--set", "finetune.max_epochs=10"]) == 0
    return root


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


@pytest.mark.parametrize("command,key,raw", [
    ("synth", "synth.fps", "nan"), ("synth", "synth.fps", "inf"),
    ("pretrain", "sampler.gamma_seconds", "inf"),
    ("pretrain", "sampler.delta_seconds", "-inf"),
], ids=["synth-nan", "synth-inf", "gamma-inf", "delta-minus-inf"])
def test_non_finite_number_exit_1_naming_the_key(work, tmp_path, capsys,
                                                 command, key, raw):
    out = tmp_path / "out"
    argv = {"synth": ["--videos", "4"],
            "pretrain": ["--data", str(work / "data"), "--method", "ranking"],
            }[command]
    assert main([command, *argv, "--out", str(out), "--set", f"{key}={raw}"]) == 1
    assert capsys.readouterr().err == (f"error: --set '{key}={raw}': bad value "
                                       f"'{raw}' for {key}: not a finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("key,raw", [
    ("sampler.tuples_per_video", str(10**30)),
    ("pretrain.batch_size", str(2**63)),
    ("model.hidden_sizes", f"8,{-2**63 - 1}"),
], ids=["tuples-10**30", "batch-2**63", "hidden-below-int64"])
@pytest.mark.parametrize("source", ["set", "file"])
def test_integer_outside_int64_exit_1_naming_the_key(work, tmp_path, capsys,
                                                     source, key, raw):
    out = tmp_path / "enc.ckpt"
    section, name = key.split(".")
    if source == "set":
        flag = ["--set", f"{key}={raw}"]
        where = f"--set '{key}={raw}'"
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{name} = {raw}\n")
        flag = ["--config", str(cfg)]
        where = str(cfg)
    assert main(["pretrain", "--data", str(work / "data"), "--method",
                 "ranking", "--out", str(out), *flag]) == 1
    assert capsys.readouterr().err == (f"error: {where}: bad value '{raw}' "
                                       f"for {key}: outside the int64 range\n")
    assert not out.exists()


def test_int64_bounds_are_accepted():
    for raw in (str(2**63 - 1), str(-2**63)):
        assert parse_set_flag(f"sampler.tuples_per_video={raw}")[1] == int(raw)


# ------------------------------------------------------------------- synth

def test_synth_outputs_and_manifest(work):
    data = work / "data"
    manifest = read_manifest(data / "run_manifest.json")
    assert manifest["format"] == "tempcoh-run"
    assert manifest["command"] == "synth"
    assert manifest["run"] == {"seed": 1, "videos": 8}
    assert manifest["resolved_config"]["synth"]["fps"] == 0.2
    assert manifest["replay_argv"][:2] == ["tempcoh", "replay"]
    assert len(manifest["artifact_version"]) == 12
    int(manifest["artifact_version"], 16)
    assert manifest["duration_seconds"] >= 0
    outputs = [Path(p) for p in manifest["outputs"]]
    assert len(outputs) == 2 + 2 * 8
    for path in outputs:
        assert path.exists()
    dataset = load_dataset(data)
    assert len(dataset.videos) == 8
    for name in "ABCD":
        assert len(dataset.split(name)) == 2


def test_synth_rerun_is_byte_identical(work, tmp_path):
    other = tmp_path / "again"
    assert main(["synth", "--out", str(other), "--videos", "8",
                 "--seed", "1", *TINY]) == 0
    original = read_manifest(work / "data" / "run_manifest.json")
    repeat = read_manifest(other / "run_manifest.json")
    assert repeat["artifact_version"] == original["artifact_version"]
    for orig_path in original["outputs"]:
        rel = Path(orig_path).name
        assert (other / rel).read_bytes() == Path(orig_path).read_bytes()


def test_synth_needs_four_videos(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--videos", "3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 5.09 TiB for an array with shape "
                "(7, 100000000000) and data type float64"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger "
               "than the maximum possible size."),
], ids=["out-of-memory", "array-too-big"])
def test_synth_allocation_failure_names_the_size_keys(tmp_path, capsys,
                                                      monkeypatch, error):
    # Generation is made to fail as a huge synth.feature_dim or
    # synth.max_duration makes it fail, without allocating anything.
    def cannot_allocate(*args):
        raise error

    monkeypatch.setattr(synthetic, "generate_prototypes", cannot_allocate)
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--videos", "4",
                 "--set", "synth.feature_dim=100000000000"]) == 2
    assert capsys.readouterr().err == (
        f"error: out of memory: synth.num_phases 7, synth.feature_dim "
        f"100000000000 and synth.max_duration 300: {error}\n")
    assert not out.exists()


def test_synth_frame_count_overflow_is_refused_naming_its_keys(tmp_path,
                                                               capsys):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--videos", "4",
                 "--set", "synth.max_duration=4611686018427387904"]) == 1
    assert capsys.readouterr().err == (
        "error: [synth] synth.num_phases 7 and synth.max_duration "
        "4611686018427387904 overflow int64: num_phases * max_duration "
        "frames is 2**63 or more\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["prototype_scale", "drift_step", "noise_std"])
def test_synth_float32_overflow_is_one_error_naming_the_scale_keys(
        tmp_path, capsys, key):
    out = tmp_path / "data"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["synth", "--out", str(out), "--videos", "4",
                     "--set", f"synth.{key}=1e308"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    scales = {"prototype_scale": 2.0, "drift_step": 0.02, "noise_std": 0.5,
              key: 1e308}
    assert (f"synth.prototype_scale {scales['prototype_scale']!r}, "
            f"synth.drift_step {scales['drift_step']!r} and "
            f"synth.noise_std {scales['noise_std']!r}") in err
    assert not out.exists()


# ---------------------------------------------------------------- pretrain

def test_pretrain_writes_checkpoint_and_loss_history(work):
    manifest = read_manifest(work / "enc.ckpt.manifest.json")
    assert manifest["command"] == "pretrain"
    assert manifest["run"]["method"] == "contrastive2"
    losses = (work / "enc.ckpt.losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,mean_loss"
    assert len(losses) == 2
    epoch, value = losses[1].split(",")
    assert epoch == "0" and math.isfinite(float(value))
    encoder, meta = load_encoder(work / "enc.ckpt")
    assert meta["method"] == "contrastive2"
    assert encoder.layer_sizes == [6, 64, 32]


@pytest.mark.parametrize("method,expected", [
    ("contrastive2", 15.0), ("ranking", 30.0), ("contrastive", 30.0)])
def test_delta_default_lands_in_manifest(work, tmp_path, method, expected):
    out = tmp_path / f"{method}.ckpt"
    assert main(["pretrain", "--data", str(work / "data"), "--method", method,
                 "--out", str(out), "--set", "pretrain.epochs=0"]) == 0
    manifest = read_manifest(str(out) + ".manifest.json")
    assert manifest["resolved_config"]["sampler"]["delta_seconds"] == expected


def test_explicit_delta_overrides_method_default(work, tmp_path):
    out = tmp_path / "d.ckpt"
    assert main(["pretrain", "--data", str(work / "data"),
                 "--method", "contrastive2", "--out", str(out),
                 "--set", "pretrain.epochs=0",
                 "--set", "sampler.delta_seconds=7.5"]) == 0
    manifest = read_manifest(str(out) + ".manifest.json")
    assert manifest["resolved_config"]["sampler"]["delta_seconds"] == 7.5


def test_pretrain_zero_epochs_checkpoint_is_the_raw_init(work, tmp_path):
    out = tmp_path / "init.ckpt"
    assert main(["pretrain", "--data", str(work / "data"),
                 "--method", "contrastive", "--out", str(out),
                 "--seed", "7", "--set", "pretrain.epochs=0"]) == 0
    loaded, _ = load_encoder(out)
    # Pretraining initializes from lane 1 of the seed, as `compare` does.
    expected = EncoderModel.create(6, [64], 32).init_uniform_fan(
        np.random.default_rng([7, 1]))
    for name, arr in expected.parameters().items():
        assert np.array_equal(loaded.parameters()[name], arr)


def test_pretrain_missing_dataset_exit_2(tmp_path, capsys):
    code = main(["pretrain", "--data", str(tmp_path / "nothing"),
                 "--method", "ranking", "--out", str(tmp_path / "e.ckpt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["contrastive", "ranking"])
def test_pretrain_loss_sum_overflow_exit_2_naming_method_and_epoch(
        work, tmp_path, capsys, method):
    # Each tuple loss is finite, but their sum is not: no loss row may read
    # inf, so the run writes nothing.
    out = tmp_path / "e.ckpt"
    code = main(["pretrain", "--data", str(work / "data"), "--method", method,
                 "--out", str(out), "--set", f"loss.margin_{method}=1e307",
                 "--set", "pretrain.epochs=2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: non-finite {method} mean loss at epoch 0: the tuple losses "
        f"sum past the float64 range\n")
    assert list(tmp_path.iterdir()) == []


def test_pretrain_unknown_method_exit_1(work, tmp_path, capsys):
    code = main(["pretrain", "--data", str(work / "data"),
                 "--method", "triplet", "--out", str(tmp_path / "e.ckpt")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: method: unknown pretraining method 'triplet'; expected one "
        "of ['contrastive', 'contrastive2', 'ranking']\n")
    assert not (tmp_path / "e.ckpt").exists()


# ---------------------------------------------------------------- finetune

def test_finetune_records_run_outcome(work):
    manifest = read_manifest(work / "model.ckpt.manifest.json")
    assert manifest["command"] == "finetune"
    assert manifest["run"]["labeled_sets"] == "A"
    assert manifest["run"]["epochs_run"] >= 1
    assert isinstance(manifest["run"]["stopped_early"], bool)
    log = (work / "model.ckpt.log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_accuracy"
    assert len(log) == manifest["run"]["epochs_run"] + 1
    model, meta = load_phase_model(work / "model.ckpt")
    assert meta["labeled_sets"] == "A"
    assert meta["init"] is None
    assert model.num_phases == 4


def test_finetune_from_pretrained_encoder(work, tmp_path):
    out = tmp_path / "warm.ckpt"
    # Zero training epochs isolates the initialization path: the saved
    # model's encoder must be the loaded checkpoint, bit for bit. (With
    # training enabled the encoder moves, since fine-tuning trains it too.)
    assert main(["finetune", "--data", str(work / "data"),
                 "--labeled-sets", "AB", "--init", str(work / "enc.ckpt"),
                 "--out", str(out), "--set", "finetune.max_epochs=0"]) == 0
    model, meta = load_phase_model(out)
    assert meta["init"] == str(work / "enc.ckpt")
    assert meta["labeled_sets"] == "AB"
    encoder, _ = load_encoder(work / "enc.ckpt")
    for name, arr in encoder.parameters().items():
        assert np.array_equal(model.encoder.parameters()[name], arr)

    trained = tmp_path / "warm2.ckpt"
    assert main(["finetune", "--data", str(work / "data"),
                 "--labeled-sets", "AB", "--init", str(work / "enc.ckpt"),
                 "--out", str(trained), "--set", "finetune.max_epochs=2"]) == 0
    moved, _ = load_phase_model(trained)
    assert any(
        not np.array_equal(moved.encoder.parameters()[name], arr)
        for name, arr in encoder.parameters().items())


def test_finetune_rejects_phase_model_as_init(work, tmp_path, capsys):
    code = main(["finetune", "--data", str(work / "data"),
                 "--labeled-sets", "A", "--init", str(work / "model.ckpt"),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_finetune_bad_labeled_sets_exit_1(work, tmp_path, capsys):
    code = main(["finetune", "--data", str(work / "data"),
                 "--labeled-sets", "Q", "--out", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: labeled sets 'Q' are not a label budget; expected one of "
        "['A', 'AB', 'ABC']\n")
    assert not (tmp_path / "x.ckpt").exists()


# -------------------------------------------------------------------- eval

def test_eval_report_shape_and_determinism(work, tmp_path):
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    for out in (first, second):
        assert main(["eval", "--data", str(work / "data"),
                     "--model", str(work / "model.ckpt"), "--split", "D",
                     "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert Path(str(first) + ".txt").read_bytes() == Path(
        str(second) + ".txt").read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == ("video_id,accuracy,macro_recall,macro_precision,f1,"
                        "P1,P2,P3,P4")
    assert len(lines) == 1 + 2 + 3  # header, two D videos, mean/std/count
    assert lines[-3].startswith("mean,")
    assert lines[-2].startswith("std,")
    count_cells = lines[-1].split(",")
    assert count_cells[0] == "count"
    assert count_cells[1] == "2"
    for row in lines[1:3]:
        cells = row.split(",")
        accuracy = float(cells[1])
        assert 0.0 <= accuracy <= 100.0
    text = Path(str(first) + ".txt").read_text()
    assert "evaluation over 2 video(s)" in text
    manifest = read_manifest(str(first) + ".manifest.json")
    assert manifest["run"]["split"] == "D"


def test_eval_rejects_encoder_checkpoint(work, tmp_path, capsys):
    code = main(["eval", "--data", str(work / "data"),
                 "--model", str(work / "enc.ckpt"),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_bad_split_exit_1(work, tmp_path, capsys):
    code = main(["eval", "--data", str(work / "data"),
                 "--model", str(work / "model.ckpt"), "--split", "E",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: split: unknown split 'E', expected one of "
        "('A', 'B', 'C', 'D')\n")
    assert not (tmp_path / "r.csv").exists()


# ----------------------------------------------------------------- compare

def test_compare_summarizes_baseline_and_methods(work, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(work / "data"), "--seeds", "2",
                 "--methods", "contrastive2", "--labeled-sets", "A",
                 "--out", str(out), "--seed", "11",
                 "--set", "pretrain.epochs=1",
                 "--set", "finetune.max_epochs=2"]) == 0
    per_seed = (out / "per_seed.csv").read_text().splitlines()
    assert per_seed[0] == ("budget,seed,method,accuracy,macro_recall,"
                           "macro_precision,f1,epochs_run,stopped_early")
    assert len(per_seed) == 1 + 2 * 2  # (baseline + 1 method) x 2 seeds
    f1 = {}
    for row in per_seed[1:]:
        cells = row.split(",")
        assert cells[0] == "A"
        # Two epochs at most; a run that stopped early ran fewer.
        assert (cells[7], cells[8]) in {("2", "False"), ("1", "True"),
                                        ("2", "True")}
        f1[(cells[2], int(cells[1]))] = float(cells[6])
    assert set(m for m, _ in f1) == {"baseline", "contrastive2"}
    assert set(s for _, s in f1) == {11, 12}

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ("budget,method,accuracy_mean,accuracy_std,"
                          "macro_recall_mean,macro_recall_std,"
                          "macro_precision_mean,macro_precision_std,"
                          "f1_mean,f1_std,f1_improvement")
    assert len(summary) == 1 + 2  # baseline row + one method row
    rows = {line.split(",")[1]: line.split(",") for line in summary[1:]}
    assert {row[0] for row in rows.values()} == {"A"}
    assert float(rows["baseline"][-1]) == 0.0
    expected = np.mean([f1[("contrastive2", s)] - f1[("baseline", s)]
                        for s in (11, 12)])
    assert float(rows["contrastive2"][-1]) == expected
    mean_f1 = np.mean([f1[("contrastive2", s)] for s in (11, 12)])
    assert float(rows["contrastive2"][8]) == mean_f1
    text = (out / "summary.txt").read_text().splitlines()
    assert text[0] == "2 seed(s), test split D"
    assert text[1].split() == ["budget", "method", "accuracy", "macro_recall",
                               "macro_precision", "f1", "Δf1"]
    assert [line.split()[:2] for line in text[2:]] == [
        ["A", "baseline"], ["A", "contrastive2"]]
    run = read_manifest(out / "run_manifest.json")["run"]
    assert run["delta_seconds_by_method"] == {"contrastive2": 15.0}


@pytest.mark.parametrize("flag,code,message", [
    ("pretrain.lr=0", 1, "[pretrain] lr must be positive"),
    # The sampler's offsets depend on the dataset's frame rate, so they are
    # checked after the dataset loads: a data error.
    ("sampler.gamma_seconds=1", 2,
     "[sampler] derived frame offsets must satisfy delta < gamma"),
    ("finetune.lr=0", 1, "[finetune] lr must be positive"),
], ids=["pretrain-lr", "sampler-offsets", "finetune-lr"])
def test_compare_checks_every_stage_before_the_first_arm(work, tmp_path, capsys,
                                                         monkeypatch, flag,
                                                         code, message):
    def no_arm(*args):
        raise AssertionError("an arm trained before the settings were checked")

    # `compare` trains its whole grid through `experiments.run_arms`, which
    # checks every input once and then starts each arm at these two stages.
    for stage in ("pretrain_stage", "finetune_stage"):
        monkeypatch.setattr(experiments, stage, no_arm)
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", "contrastive2", "--out", str(out),
                 "--set", flag]) == code
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_compare_usage_errors(work, tmp_path, capsys):
    assert main(["compare", "--data", str(work / "data"), "--seeds", "0",
                 "--methods", "ranking", "--out", str(tmp_path / "x")]) == 1
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", "espresso", "--out", str(tmp_path / "x")]) == 1
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", ",", "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", "contrastive2,contrastive2",
                 "--out", str(tmp_path / "x")]) == 1
    assert "methods name 'contrastive2' twice" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,args", [
    ("synth", ["--videos", "4"]),
    ("compare", ["--seeds", "1", "--methods", "contrastive2"]),
    ("pretrain", ["--method", "contrastive2"]),
    ("finetune", ["--labeled-sets", "A"]),
    ("eval", ["--model", "model.ckpt"]),
    ("retrieve", ["--model", "model.ckpt", "--queries", "random:2"]),
], ids=["synth", "compare", "pretrain", "finetune", "eval", "retrieve"])
def test_an_out_of_the_wrong_kind_is_refused_before_the_run(work, tmp_path,
                                                           capsys, monkeypatch,
                                                           command, args):
    def no_run(*args):
        raise AssertionError("the run started before --out was checked")

    _, *rest = cli._RUNNERS[command]
    suffix = rest[-1]
    if command != "synth":
        args = ["--data", str(work / "data"), *args]
    out = tmp_path / "out"
    # A run whose runner does nothing leaves a manifest to replay.
    monkeypatch.setitem(cli._RUNNERS, command, (lambda *a: [], *rest))
    assert main([command, *args, "--out", str(out)]) == 0
    manifest = tmp_path / "run.json"
    Path(str(out) + suffix).rename(manifest)
    # synth and compare write a directory, the others a file.
    if suffix.startswith("/"):
        out.rmdir()
        out.write_text("kept")
    else:
        out.mkdir()
    monkeypatch.setitem(cli._RUNNERS, command, (no_run, *rest))
    capsys.readouterr()
    for argv in ([command, *args, "--out", str(out)], ["replay", str(manifest)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert (out.read_text() == "kept" if suffix.startswith("/")
            else not any(out.iterdir()))


# A short sweep: 2 seeds at base seed 11, one pretraining epoch and at most
# two fine-tuning epochs per arm.
SWEEP = ["--seeds", "2", "--seed", "11", "--set", "pretrain.epochs=1",
         "--set", "finetune.max_epochs=2"]
COMPARE_OUTPUTS = ("per_seed.csv", "summary.csv", "summary.txt")


@pytest.fixture(scope="module")
def sweep(work, tmp_path_factory):
    """The output directories of a `compare` sweep over budgets A and AB
    (`sweep`) and of a plain run of each budget (`A`, `AB`)."""
    root = tmp_path_factory.mktemp("sweep")
    for name, budgets in (("sweep", "A,AB"), ("A", "A"), ("AB", "AB")):
        assert main(["compare", "--data", str(work / "data"), *SWEEP,
                     "--methods", "contrastive2", "--labeled-sets", budgets,
                     "--out", str(root / name)]) == 0
    return root


def test_compare_sweep_rows_are_the_rows_of_each_budget_alone(sweep, work,
                                                              tmp_path):
    for name in ("per_seed.csv", "summary.csv"):
        header, *rows = (sweep / "sweep" / name).read_text().splitlines()
        alone = {b: (sweep / b / name).read_text().splitlines()
                 for b in ("A", "AB")}
        assert alone["A"][0] == alone["AB"][0] == header
        # Ordered by budget, then seed, then method.
        assert rows == alone["A"][1:] + alone["AB"][1:]
    per_seed = [row.split(",") for row in
                (sweep / "sweep" / "per_seed.csv").read_text().splitlines()[1:]]
    assert [row[:3] for row in per_seed] == [
        [b, s, m] for b in ("A", "AB") for s in ("11", "12")
        for m in ("baseline", "contrastive2")]
    # The table's cells are those of the two plain runs, under one title.
    tables = {b: (sweep / b / "summary.txt").read_text().splitlines()
              for b in ("sweep", "A", "AB")}
    assert [line.split() for line in tables["sweep"]] == [
        line.split() for line in tables["A"] + tables["AB"][2:]]
    manifest = read_manifest(sweep / "sweep" / "run_manifest.json")
    assert manifest["run"]["labeled_sets"] == "A,AB"
    # A baseline row records the fine-tuning outcome that `finetune`
    # records for the same seed and budget.
    out = tmp_path / "model.ckpt"
    assert main(["finetune", "--data", str(work / "data"), "--seed", "12",
                 "--labeled-sets", "AB", "--set", "finetune.max_epochs=2",
                 "--out", str(out)]) == 0
    run = read_manifest(str(out) + ".manifest.json")["run"]
    row = next(r for r in per_seed if r[:3] == ["AB", "12", "baseline"])
    assert row[7:] == [str(run["epochs_run"]), str(run["stopped_early"])]


@pytest.mark.parametrize("budgets", ["A", "A,AB,ABC"])
def test_compare_pretrains_once_per_seed_and_method(work, tmp_path,
                                                    monkeypatch, budgets):
    calls = []
    real_pretrain = experiments.pretrain

    def counting(encoder, videos, cfg, rng):
        calls.append(cfg.method)
        return real_pretrain(encoder, videos, cfg, rng)

    monkeypatch.setattr(experiments, "pretrain", counting)
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(work / "data"), *SWEEP,
                 "--methods", "contrastive,contrastive2",
                 "--labeled-sets", budgets, "--out", str(out)]) == 0
    assert calls == ["contrastive", "contrastive2"] * 2
    rows = (out / "per_seed.csv").read_text().splitlines()[1:]
    assert len(rows) == len(budgets.split(",")) * 2 * 3


def test_compare_sweep_replays_byte_identically(sweep):
    out = sweep / "sweep"
    before = {name: (out / name).read_bytes() for name in COMPARE_OUTPUTS}
    version = read_manifest(out / "run_manifest.json")["artifact_version"]
    for name in COMPARE_OUTPUTS:
        (out / name).unlink()
    assert main(["replay", str(out / "run_manifest.json")]) == 0
    assert {name: (out / name).read_bytes()
            for name in COMPARE_OUTPUTS} == before
    assert read_manifest(out / "run_manifest.json")["artifact_version"] == \
        version


@pytest.mark.parametrize("budgets,message", [
    ("A,D", "labeled sets 'D' are not a label budget; expected one of "
            "['A', 'AB', 'ABC']"),
    ("A,A", "labeled_sets name 'A' twice"),
    ("A,", "labeled sets '' are not a label budget; expected one of "
           "['A', 'AB', 'ABC']"),
], ids=["test-split", "repeated", "empty"])
def test_compare_refuses_a_bad_budget_list_exit_1(work, tmp_path, capsys,
                                                  monkeypatch, budgets,
                                                  message):
    def no_dataset(*args):
        raise AssertionError("the dataset was read before the budgets were "
                             "checked")

    monkeypatch.setattr(cli, "load_dataset", no_dataset)
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", "contrastive", "--labeled-sets", budgets,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------- retrieve

def test_retrieve_explicit_queries(work, tmp_path):
    out = tmp_path / "hits.csv"
    assert main(["retrieve", "--data", str(work / "data"),
                 "--model", str(work / "enc.ckpt"),
                 "--queries", "video_000:3,video_001:0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("query_id,video_id,frame_index,distance,"
                        "query_phase,retrieved_phase")
    assert len(lines) == 1 + 2 * 2  # two queries x two corpus videos in D
    for row in lines[1:]:
        cells = row.split(",")
        assert float(cells[3]) >= 0.0
        int(cells[4])  # labeled dataset: query phase always known
    text = Path(str(out) + ".txt").read_text()
    assert "queries: 2" in text
    assert "corpus videos: 2" in text
    agreement = text.splitlines()[2].split(": ")[1]
    assert 0.0 <= float(agreement) <= 1.0


def test_retrieve_accepts_phase_model_checkpoint(work, tmp_path):
    out = tmp_path / "hits.csv"
    assert main(["retrieve", "--data", str(work / "data"),
                 "--model", str(work / "model.ckpt"),
                 "--queries", "random:5", "--query-split", "AB",
                 "--seed", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5 * 2


@pytest.mark.parametrize("checkpoint", ["enc.ckpt", "model.ckpt"])
def test_retrieve_reads_its_checkpoint_once(work, tmp_path, monkeypatch,
                                            checkpoint):
    reads = []
    real_load_checkpoint = data_io.load_checkpoint

    def counting(path):
        reads.append(Path(path))
        return real_load_checkpoint(path)

    for module in (data_io, cli):
        monkeypatch.setattr(module, "load_checkpoint", counting)
    assert main(["retrieve", "--data", str(work / "data"),
                 "--model", str(work / checkpoint), "--queries", "video_000:0",
                 "--out", str(tmp_path / "hits.csv")]) == 0
    assert reads == [(work / checkpoint).resolve()]


def test_retrieve_refuses_a_checkpoint_of_unknown_kind(work, tmp_path, capsys):
    encoder, metadata = load_encoder(work / "enc.ckpt")
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(ckpt, "optimizer", encoder.parameters(), metadata)
    out = tmp_path / "hits.csv"
    assert main(["retrieve", "--data", str(work / "data"), "--model", str(ckpt),
                 "--queries", "video_000:0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: checkpoint kind 'optimizer', expected 'encoder' or "
        f"'phase_model'\n")
    assert not out.exists()


def test_retrieve_rerun_is_byte_identical(work, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["retrieve", "--data", str(work / "data"),
                     "--model", str(work / "enc.ckpt"),
                     "--queries", "random:6", "--seed", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _no_checkpoint(*args):
    raise AssertionError("the checkpoint was read for a query that is refused")


def test_retrieve_query_errors(work, tmp_path, capsys):
    base = ["retrieve", "--data", str(work / "data"),
            "--model", str(work / "enc.ckpt"), "--out", str(tmp_path / "x.csv")]
    assert main([*base, "--queries", "random:0"]) == 1
    assert main([*base, "--queries", "random:joe"]) == 1
    assert main([*base, "--queries", "video_000"]) == 1
    assert main([*base, "--queries", "video_000:one"]) == 1
    capsys.readouterr()
    # A negative frame is refused with the syntax. An id the dataset does
    # not hold, or a frame past the end of its video, names its
    # dataset.json, and on replay the manifest too. None of them reads the
    # checkpoint.
    dataset_json = work / "data" / "dataset.json"
    frames = load_dataset(work / "data").by_id("video_000").num_frames
    refused = {
        "video_000:-1": "queries: frame index -1 of 'video_000' must be >= 0",
        "ghost:0": f"{dataset_json}: unknown video id 'ghost'",
        "video_000:99999": f"{dataset_json}: query frame 99999 out of range "
                           f"for video 'video_000' with {frames} frames",
        f"video_000:{frames}": f"{dataset_json}: query frame {frames} out of "
                               f"range for video 'video_000' with {frames} "
                               f"frames",
    }
    for queries, message in refused.items():
        with mock.patch.object(cli, "load_model", _no_checkpoint):
            code = main([*base, "--queries", queries])
        assert code == (1 if queries.endswith(":-1") else 2), queries
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
    assert main([*base, "--queries", f"video_000:0,video_000:{frames - 1}"]) == 0
    manifest = read_manifest(tmp_path / "x.csv.manifest.json")
    path = tmp_path / "edited.json"
    before = (tmp_path / "x.csv").read_bytes()
    capsys.readouterr()
    refused["nosuch:3"] = f"{dataset_json}: unknown video id 'nosuch'"
    for queries, message in refused.items():
        manifest["run"]["queries"] = queries
        path.write_text(json.dumps(manifest))
        with mock.patch.object(cli, "load_model", _no_checkpoint):
            assert main(["replay", str(path)]) == 2, queries
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert (tmp_path / "x.csv").read_bytes() == before


# ------------------------------------------------------------------- flags

@pytest.mark.parametrize("command,flag", [
    ("eval", ["--config", "run.ini"]), ("eval", ["--preset", "paper"]),
    ("eval", ["--set", "model.embedding_dim=8"]), ("eval", ["--seed", "1"]),
    ("retrieve", ["--config", "run.ini"]), ("retrieve", ["--preset", "paper"]),
    ("retrieve", ["--set", "model.embedding_dim=8"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_commands_refuse_flags_they_do_not_read(work, tmp_path, capsys,
                                                 command, flag):
    out = tmp_path / "out.csv"
    queries = ["--queries", "video_000:0"] if command == "retrieve" else []
    assert main([command, "--data", str(work / "data"),
                 "--model", str(work / "model.ckpt"), *queries,
                 "--out", str(out), *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pretrain", "finetune", "compare",
                                     "retrieve"])
def test_negative_seed_exit_1_naming_the_flag(work, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "synth": ["--videos", "4"],
        "pretrain": ["--data", str(work / "data"), "--method", "ranking"],
        "finetune": ["--data", str(work / "data"), "--labeled-sets", "A"],
        "compare": ["--data", str(work / "data"), "--seeds", "1",
                    "--methods", "ranking"],
        "retrieve": ["--data", str(work / "data"), "--model",
                     str(work / "enc.ckpt"), "--queries", "random:2"],
    }[command]
    assert main([command, *argv, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert not out.exists()


# ------------------------------------------- checkpoint of another width

@pytest.mark.parametrize("command", ["finetune", "eval", "retrieve"])
def test_checkpoint_of_another_width_exits_2_naming_it(work, tmp_path, capsys,
                                                        command):
    # The dataset has 6 features per frame; this encoder takes 5.
    encoder = EncoderModel.create(5, [4], 3)
    ckpt = tmp_path / "narrow.ckpt"
    if command == "eval":
        save_phase_model(ckpt, PhaseModel.create(encoder, 2, 4))
    else:
        save_encoder(ckpt, encoder)
    argv = {
        "finetune": ["--labeled-sets", "A", "--init", str(ckpt)],
        "eval": ["--model", str(ckpt)],
        "retrieve": ["--model", str(ckpt), "--queries", "video_000:0"],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--data", str(work / "data"), *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: encoder expects 5 input features but the dataset has 6" in err
    assert not out.exists()


# --------------------------------------------------- inputs that hold nothing

@pytest.fixture(scope="module")
def sparse_data(work, tmp_path_factory):
    """A copy of the shared dataset whose splits A and D hold no videos."""
    data = tmp_path_factory.mktemp("sparse") / "data"
    shutil.copytree(work / "data", data)
    splits = data / "splits.txt"
    splits.write_text(splits.read_text().replace(",A\n", ",B\n")
                      .replace(",D\n", ",C\n"))
    assert set(load_dataset(data).splits.values()) == {"B", "C"}
    return data


@pytest.fixture(scope="module")
def d_only_data(work, tmp_path_factory):
    """A copy of the shared dataset whose every video is in split D."""
    data = tmp_path_factory.mktemp("test-only") / "data"
    shutil.copytree(work / "data", data)
    splits = data / "splits.txt"
    splits.write_text(re.sub(",[ABC]\n", ",D\n", splits.read_text()))
    assert set(load_dataset(data).splits.values()) == {"D"}
    return data


@pytest.fixture(scope="module")
def unlabeled_data(work, tmp_path_factory):
    """(directory, {split: id}) of a copy of the shared dataset whose first
    video in split B and first in split D have no labels."""
    data = tmp_path_factory.mktemp("unlabeled") / "data"
    shutil.copytree(work / "data", data)
    dataset = load_dataset(data)
    unlabeled = {name: dataset.split(name)[0].video_id for name in "BD"}
    manifest = json.loads((data / "dataset.json").read_text())
    for entry in manifest["videos"]:
        if entry["video_id"] in unlabeled.values():
            (data / entry.pop("labels")).unlink()
    (data / "dataset.json").write_text(json.dumps(manifest))
    return data, unlabeled


@pytest.mark.parametrize("command,message", [
    ("finetune", "split 'A' holds no videos"),
    ("eval", "split 'D' holds no videos"),
    ("retrieve", "split 'D' holds no videos"),
    ("retrieve-random", "split 'AD' holds no videos"),
    ("compare-A", "split 'A' holds no videos"),
    ("compare-AB", "split 'D' holds no videos"),
    ("compare-A,AB", "split 'A' holds no videos"),
    ("pretrain", "split 'ABC' holds no videos"),
    ("finetune-AB-unlabeled", "video {B!r} in split 'AB' has no labels"),
    ("eval-unlabeled", "video {D!r} in split 'D' has no labels"),
    ("compare-A-unlabeled", "video {D!r} in split 'D' has no labels"),
    ("compare-AB-unlabeled", "video {B!r} in split 'AB' has no labels"),
    # Budget A holds only labeled videos: the sweep's second budget is
    # checked before the first budget's arm trains.
    ("compare-A,AB-unlabeled", "video {B!r} in split 'AB' has no labels"),
])
def test_splits_holding_no_videos_exit_2_naming_them(work, sparse_data,
                                                     d_only_data, unlabeled_data,
                                                     tmp_path, capsys,
                                                     monkeypatch, command,
                                                     message):
    def no_arm(*args):
        raise AssertionError("an arm trained on a split it cannot use")

    for stage in ("pretrain_stage", "finetune_stage"):
        monkeypatch.setattr(experiments, stage, no_arm)
    argv = {
        "finetune": ["finetune", "--labeled-sets", "A"],
        "finetune-AB": ["finetune", "--labeled-sets", "AB"],
        "eval": ["eval", "--model", str(work / "model.ckpt")],
        "retrieve": ["retrieve", "--model", str(work / "enc.ckpt"),
                     "--queries", "video_000:0"],
        "retrieve-random": ["retrieve", "--model", str(work / "enc.ckpt"),
                            "--queries", "random:2", "--split", "B",
                            "--query-split", "AD"],
        "compare-A": ["compare", "--seeds", "1", "--methods", "contrastive",
                      "--labeled-sets", "A"],
        "compare-AB": ["compare", "--seeds", "1", "--methods", "contrastive",
                       "--labeled-sets", "AB"],
        "compare-A,AB": ["compare", "--seeds", "1", "--methods", "contrastive",
                         "--labeled-sets", "A,AB"],
        "pretrain": ["pretrain", "--method", "contrastive"],
    }[command.removesuffix("-unlabeled")]
    # Splits A, B and C hold no videos of `d_only_data`, and splits A and D
    # none of `sparse_data`; a video in each of splits B and D of
    # `unlabeled_data` has no labels.
    if command.endswith("-unlabeled"):
        data, unlabeled = unlabeled_data
        message = message.format(**unlabeled)
    else:
        data = d_only_data if command == "pretrain" else sparse_data
    out = tmp_path / "out"
    assert main([*argv, "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {data / 'dataset.json'}: "
                                       f"{message}\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def short_data(tmp_path_factory):
    """A dataset of videos far shorter than the default distant offset."""
    data = tmp_path_factory.mktemp("short") / "data"
    assert main(["synth", "--out", str(data), "--videos", "4",
                 "--set", "synth.min_duration=1",
                 "--set", "synth.max_duration=2"]) == 0
    return data


@pytest.mark.parametrize("command", [
    ["pretrain", "--method", "contrastive"],
    ["compare", "--seeds", "1", "--methods", "contrastive"],
], ids=lambda argv: argv[0])
def test_videos_too_short_for_gamma_exit_2_before_training(
        short_data, tmp_path, capsys, monkeypatch, command):
    # The sampler would refuse them too, but only once pretraining starts:
    # for `compare`, after the baseline arm has trained and been scored.
    def no_training(*args, **kwargs):
        raise AssertionError("trained on videos too short for the sampler")

    for stage in ("pretrain", "finetune"):
        monkeypatch.setattr(experiments, stage, no_training)
    dataset = load_dataset(short_data)
    video = dataset.split("A", "B", "C")[0]
    assert (dataset.fps, DEFAULTS["sampler"]["gamma_seconds"]) == (5.0, 120.0)
    out = tmp_path / "out"
    assert main([*command, "--data", str(short_data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {short_data / 'dataset.json'}: video {video.video_id!r} has "
        f"{video.num_frames} frames, fewer than the 601 that "
        f"sampler.gamma_seconds 120.0 needs (600 frames at 5.0 fps)\n")
    assert not out.exists()


def test_eval_model_of_other_num_phases_exits_2_naming_it(work, tmp_path,
                                                          capsys):
    encoder, _ = load_encoder(work / "enc.ckpt")
    ckpt = tmp_path / "five.ckpt"
    save_phase_model(ckpt, PhaseModel.create(encoder, 2, 5))
    out = tmp_path / "report.csv"
    assert main(["eval", "--data", str(work / "data"), "--model", str(ckpt),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {ckpt}: model has 5 phases but "
                                       f"the dataset has 4\n")
    assert not out.exists()


# ------------------------------------------------------------------ replay

def test_replay_reproduces_eval_byte_identically(work, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["eval", "--data", str(work / "data"),
                 "--model", str(work / "model.ckpt"), "--out", str(out)]) == 0
    manifest_path = Path(str(out) + ".manifest.json")
    before_manifest = read_manifest(manifest_path)
    before = {p: Path(p).read_bytes() for p in before_manifest["outputs"]}

    assert main(["replay", str(manifest_path)]) == 0
    after_manifest = read_manifest(manifest_path)
    assert after_manifest["artifact_version"] == before_manifest["artifact_version"]
    assert after_manifest["resolved_config"] == before_manifest["resolved_config"]
    for path, content in before.items():
        assert Path(path).read_bytes() == content


@pytest.mark.parametrize("command,run", [
    ("eval", {"split": "D"}),
    ("retrieve", {"seed": 6, "queries": "random:4", "split": "D",
                  "query_split": "ABC"}),
])
def test_eval_and_retrieve_manifests_replay_as_earlier_runs_wrote_them(
        work, tmp_path, command, run):
    out = tmp_path / "r.csv"
    extra = (["--queries", "random:4", "--seed", "6"] if command == "retrieve"
             else [])
    assert main([command, "--data", str(work / "data"),
                 "--model", str(work / "model.ckpt"), *extra,
                 "--out", str(out)]) == 0
    manifest_path = Path(str(out) + ".manifest.json")
    manifest = read_manifest(manifest_path)
    assert manifest["run"] == run
    assert manifest["resolved_config"] == resolve_config()
    # Earlier eval manifests also recorded an unused `run.seed`.
    manifest["run"].setdefault("seed", 0)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
    for path in before:
        Path(path).unlink()

    assert main(["replay", str(manifest_path)]) == 0
    assert {p: Path(p).read_bytes() for p in before} == before
    after = read_manifest(manifest_path)
    assert after["artifact_version"] == manifest["artifact_version"]
    assert after["run"] == manifest["run"]


def test_replay_reproduces_synth_byte_identically(work):
    manifest_path = work / "data" / "run_manifest.json"
    before_manifest = read_manifest(manifest_path)
    before = {p: Path(p).read_bytes() for p in before_manifest["outputs"]}
    assert main(["replay", str(manifest_path)]) == 0
    assert read_manifest(manifest_path)["artifact_version"] == \
        before_manifest["artifact_version"]
    for path, content in before.items():
        assert Path(path).read_bytes() == content


def test_replay_rejects_foreign_files(tmp_path, capsys):
    not_json = tmp_path / "a.json"
    not_json.write_text("{broken")
    assert main(["replay", str(not_json)]) == 2
    wrong_format = tmp_path / "b.json"
    wrong_format.write_text(json.dumps({"format": "something-else"}))
    assert main(["replay", str(wrong_format)]) == 2
    bad_command = tmp_path / "c.json"
    bad_command.write_text(json.dumps({"format": "tempcoh-run",
                                       "command": "teleport"}))
    assert main(["replay", str(bad_command)]) == 2
    capsys.readouterr()
    # A command that is a JSON list or object is no command name either.
    for command in (["synth"], {"synth": 1}):
        bad_command.write_text(json.dumps({"format": "tempcoh-run",
                                           "command": command}))
        assert main(["replay", str(bad_command)]) == 2
        assert (f"{bad_command}: unknown command {command!r}"
                in capsys.readouterr().err)
    missing = tmp_path / "d.json"
    assert main(["replay", str(missing)]) == 2
    capsys.readouterr()
    not_utf8 = tmp_path / "e.json"
    not_utf8.write_bytes(b"\xff{}")
    assert main(["replay", str(not_utf8)]) == 2
    assert str(not_utf8) in capsys.readouterr().err


def test_replay_names_the_manifest_holding_an_over_long_integer(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"format": "tempcoh-run", "seed": ' + "9" * 5000 + "}")
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: invalid JSON" in err


DEEP_JSON = "[" * 200_000


def _deeply_nested_metadata(source, path):
    """A copy of checkpoint `source` whose metadata is DEEP_JSON."""
    _, _, metadata = load_checkpoint(source)
    raw = source.read_bytes()
    text = json.dumps(metadata, sort_keys=True).encode()
    assert raw.endswith(text)
    path.write_bytes(raw[:-len(text) - 4] + struct.pack("<I", len(DEEP_JSON))
                     + DEEP_JSON.encode())


@pytest.mark.parametrize("reader", ["dataset", "checkpoint", "run-manifest"])
def test_deeply_nested_json_exits_2_naming_the_file(work, tmp_path, capsys,
                                                   reader):
    out = tmp_path / "out"
    if reader == "dataset":
        path = tmp_path / "data" / "dataset.json"
        path.parent.mkdir()
        path.write_text(DEEP_JSON)
        argv = ["pretrain", "--data", str(path.parent), "--method",
                "contrastive", "--out", str(out)]
    elif reader == "checkpoint":
        path = tmp_path / "deep.ckpt"
        _deeply_nested_metadata(work / "enc.ckpt", path)
        argv = ["finetune", "--data", str(work / "data"), "--labeled-sets", "A",
                "--init", str(path), "--out", str(out)]
    else:
        path = tmp_path / "deep.manifest.json"
        path.write_text(DEEP_JSON)
        argv = ["replay", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "JSON" in err
    assert not out.exists()


SYNTH_MANIFEST = "data/run_manifest.json"
FINETUNE_MANIFEST = "model.ckpt.manifest.json"


def replay_malformed(work, tmp_path, capsys, edit,
                     source=SYNTH_MANIFEST) -> str:
    """Replay an edited copy of a manifest under `work` (by default the
    synth manifest); return its error text."""
    manifest = read_manifest(work / source)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(manifest)))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    return err


def test_replay_rejects_manifest_without_resolved_config(work, tmp_path, capsys):
    def drop(manifest):
        del manifest["resolved_config"]
        return manifest

    err = replay_malformed(work, tmp_path, capsys, drop)
    assert f"{tmp_path / 'edited.json'}: resolved_config is missing" in err


def test_replay_rejects_manifest_that_is_not_an_object(work, tmp_path, capsys):
    err = replay_malformed(work, tmp_path, capsys, lambda m: [m])
    assert "not a run manifest" in err


@pytest.mark.parametrize("edit,message", [
    (lambda c: c["synth"].update(bogus=1),
     "unknown key 'bogus' in section [synth]"),
    (lambda c: c.update(weights={"x": 1}), "unknown config section [weights]"),
    (lambda c: c["loss"].pop("margin_ranking"),
     "resolved_config.loss.margin_ranking is missing"),
    (lambda c: c.update(model=[1]),
     "resolved_config.model must be an object, got [1]"),
], ids=["unknown-key", "unknown-section", "missing-key", "section-not-object"])
def test_replay_rejects_config_unlike_the_schema(work, tmp_path, capsys,
                                                 edit, message):
    def edit_config(manifest):
        edit(manifest["resolved_config"])
        return manifest

    assert message in replay_malformed(work, tmp_path, capsys, edit_config)


@pytest.mark.parametrize("field,key", [("run", "seed"), ("run", "videos"),
                                       ("paths", "out")])
def test_replay_rejects_manifest_without_a_runner_key(work, tmp_path, capsys,
                                                      field, key):
    def drop(manifest):
        del manifest[field][key]
        return manifest

    err = replay_malformed(work, tmp_path, capsys, drop)
    assert f"{tmp_path / 'edited.json'}: {field}.{key} is missing" in err


@pytest.mark.parametrize("section,key,value,type_name", [
    ("synth", "num_phases", "x", "an integer within int64"),
    ("synth", "num_phases", True, "an integer within int64"),
    ("synth", "noise_std", "0.5", "a finite float"),
    ("sampler", "delta_seconds", "15", "a finite float or null"),
    ("model", "hidden_sizes", [64.0], "a list of integers within int64"),
], ids=["str-for-int", "bool-for-int", "str-for-float", "str-for-optional-float",
        "float-in-int-list"])
def test_replay_rejects_config_value_of_the_wrong_type(work, tmp_path, capsys,
                                                       section, key, value,
                                                       type_name):
    def retype(manifest):
        manifest["resolved_config"][section][key] = value
        return manifest

    err = replay_malformed(work, tmp_path, capsys, retype)
    assert (f"resolved_config.{section}.{key} must be {type_name}, "
            f"got {value!r}") in err


@pytest.mark.parametrize("section,key,value,what", [
    ("synth", "fps", float("nan"), "a finite float"),
    ("synth", "noise_std", float("inf"), "a finite float"),
    ("sampler", "delta_seconds", float("-inf"), "a finite float or null"),
], ids=["nan", "inf", "optional-minus-inf"])
def test_replay_rejects_non_finite_config_value(work, tmp_path, capsys,
                                                section, key, value, what):
    def edit(manifest):
        manifest["resolved_config"][section][key] = value
        return manifest

    out = work / "data"
    before = {p: p.read_bytes() for p in out.iterdir()}
    err = replay_malformed(work, tmp_path, capsys, edit)
    assert (f"resolved_config.{section}.{key} must be {what}, "
            f"got {value!r}") in err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("section,key,value,what", [
    ("sampler", "gamma_seconds", 10**400, "a finite float"),
    ("sampler", "delta_seconds", -10**400, "a finite float or null"),
    ("sampler", "tuples_per_video", 10**30, "an integer within int64"),
    ("model", "hidden_sizes", [8, 2**63], "a list of integers within int64"),
], ids=["float-key-10**400", "optional-float-key", "int-key-10**30",
        "int-list-2**63"])
def test_replay_names_the_manifest_for_a_number_numpy_cannot_hold(
        work, tmp_path, capsys, section, key, value, what):
    def edit(manifest):
        manifest["resolved_config"][section][key] = value
        return manifest

    err = replay_malformed(work, tmp_path, capsys, edit,
                           source="enc.ckpt.manifest.json")
    # A value's repr is cut to 80 characters.
    got = repr(value) if len(repr(value)) <= 80 else repr(value)[:80] + "..."
    assert f"resolved_config.{section}.{key} must be {what}, got {got}\n" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("source,field,key,value,type_name", [
    (SYNTH_MANIFEST, "run", "seed", "x", "an integer"),
    (SYNTH_MANIFEST, "run", "seed", True, "an integer"),
    (SYNTH_MANIFEST, "run", "seed", 1.5, "an integer"),
    (SYNTH_MANIFEST, "run", "videos", "x", "an integer"),
    (SYNTH_MANIFEST, "paths", "out", 7, "a string"),
    (FINETUNE_MANIFEST, "paths", "init", 5, "a string or null"),
    (FINETUNE_MANIFEST, "paths", "init", ["x"], "a string or null"),
    # The manifest's own version; `field` None is the top level.
    (FINETUNE_MANIFEST, None, "version", 99, "1"),
    (FINETUNE_MANIFEST, None, "version", "1", "1"),
    (FINETUNE_MANIFEST, None, "version", True, "1"),
], ids=["str-seed", "bool-seed", "float-seed", "str-videos", "int-out",
        "int-init", "list-init", "version-99", "str-version", "bool-version"])
def test_replay_rejects_run_value_of_the_wrong_type(work, tmp_path, capsys,
                                                    source, field, key, value,
                                                    type_name):
    def retype(manifest):
        (manifest[field] if field else manifest)[key] = value
        return manifest

    before = (work / "model.ckpt").read_bytes()
    err = replay_malformed(work, tmp_path, capsys, retype, source)
    where = f"{field}.{key}" if field else key
    assert f"{where} must be {type_name}, got {value!r}" in err
    assert (work / "model.ckpt").read_bytes() == before
    # The refused manifest is not rewritten either.
    assert read_manifest(tmp_path / "edited.json") == retype(
        read_manifest(work / source))


def _edited_document(work, tmp_path, document, keys, value):
    """(file, read) for a copy of `document` under `work` with the value at
    JSON path `keys` set to `value` or deleted; `read` reads the file
    through its reader."""
    if document == "dataset.json":
        data = tmp_path / "data"
        shutil.copytree(work / "data", data)
        path = data / document
        doc = json.loads(path.read_text())
    elif document.endswith(".ckpt"):
        path = tmp_path / document
        kind, params, doc = load_checkpoint(work / document)
    else:
        path = tmp_path / "edited.json"
        doc = read_manifest(work / document)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    if document == "dataset.json":
        path.write_text(json.dumps(doc))
        return path, lambda: load_dataset(data)
    if document.endswith(".ckpt"):
        save_checkpoint(path, kind, params, doc)
        return path, lambda: data_io.load_model(path, (kind,))
    path.write_text(json.dumps(doc))
    return path, lambda: cli.cmd_replay(argparse.Namespace(manifest=str(path)))


# The value at a JSON path of each document, one of the three JSON readers
# reads, and the message form of a refusal: `<file>: <json path> is missing`
# or `<file>: <json path> must be <what>, got <value>`.
MESSAGE_FORM = [
    ("dataset.json", ["feature_dim"], "4", "an integer >= 1"),
    ("dataset.json", ["videos", 0, "num_frames"], 6.0, "an integer"),
    ("enc.ckpt", ["layer_sizes"], "x", "a list of at least two integers >= 1"),
    ("model.ckpt", ["hidden_size"], 0, "an integer >= 1"),
    (SYNTH_MANIFEST, ["version"], 2, "1"),
    (SYNTH_MANIFEST, ["run", "seed"], "x", "an integer"),
    (SYNTH_MANIFEST, ["paths", "out"], 7, "a string"),
    (SYNTH_MANIFEST, ["resolved_config", "model", "lstm_hidden"], 1.5,
     "an integer within int64"),
]


@pytest.mark.parametrize("document,keys,value,what", MESSAGE_FORM,
                         ids=["dataset", "video-entry", "encoder-metadata",
                              "phase-model-metadata", "manifest-version",
                              "run", "paths", "resolved-config"])
@pytest.mark.parametrize("edit", ["missing", "mistyped"])
def test_json_readers_refuse_in_one_message_form(work, tmp_path, document,
                                                 keys, value, what, edit):
    path, read = _edited_document(work, tmp_path, document, keys,
                                  DELETE if edit == "missing" else value)
    json_path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in keys).lstrip(".")
    if document.endswith(".ckpt"):
        json_path = f"metadata.{json_path}"
    with pytest.raises(TempcohError) as err:
        read()
    assert str(err.value) == (f"{path}: {json_path} is missing" if edit == "missing"
                              else f"{path}: {json_path} must be {what}, "
                                   f"got {value!r}")


@pytest.mark.parametrize("key,value,message", [
    ("num_phases", 1, "[synth] num_phases must be >= 2"),
    ("skip_probability", 1.0, "[synth] skip_probability must be in [0, 1)"),
    # `synth` would redraw each video's phases about 1.7e7 times.
    ("skip_probability", 0.9999, "[synth] synth.skip_probability 0.9999 and "
     "synth.num_phases 4 keep at least two of a video's phases with "
     "probability below 1e-06"),
], ids=["num-phases", "skip-probability", "skip-probability-near-1"])
def test_replay_names_the_manifest_for_out_of_range_config(work, tmp_path, capsys,
                                                           key, value, message):
    def edit(manifest):
        manifest["resolved_config"]["synth"][key] = value
        return manifest

    out = work / "data"
    before = {p: p.read_bytes() for p in out.iterdir()}
    err = replay_malformed(work, tmp_path, capsys, edit)
    assert f"{tmp_path / 'edited.json'}: {message}" in err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


# One value out of its stage's range for each key of the sections whose
# stages need no dataset.
OUT_OF_RANGE = [
    ("synth", "num_phases", 1), ("synth", "feature_dim", 0),
    ("synth", "min_duration", 0), ("synth", "max_duration", 0),
    ("synth", "prototype_scale", -1.0), ("synth", "drift_step", -1.0),
    ("synth", "noise_std", -1.0), ("synth", "fps", 0.0),
    ("synth", "skip_probability", 1.0),
    ("loss", "margin_contrastive", -1.0), ("loss", "margin_ranking", -1.0),
    ("loss", "second_order_weight", -1.0),
    ("model", "hidden_sizes", [64, 0]), ("model", "embedding_dim", 0),
    ("model", "lstm_hidden", 0),
    ("pretrain", "epochs", -1), ("pretrain", "batch_size", 0),
    ("pretrain", "lr", 0.0),
    ("finetune", "batch_frames", 0), ("finetune", "accumulate_batches", 0),
    ("finetune", "stop_train_accuracy", 2.0), ("finetune", "max_epochs", -1),
    ("finetune", "lr", -1.0),
]
OUT_OF_RANGE_IDS = [f"{section}.{key}" for section, key, _ in OUT_OF_RANGE]
# Values in range alone that another key of their stage puts out of range:
# at 7 phases (the default) or 4 (the shared dataset's), a video keeps at
# least two with probability 2.1e-7 or 6.0e-8.
JOINTLY_OUT_OF_RANGE = [("synth", "skip_probability", 0.9999)]
JOINTLY_OUT_OF_RANGE_IDS = ["synth.skip_probability-near-1"]


def test_out_of_range_table_covers_every_stage_key():
    assert sorted(OUT_OF_RANGE_IDS) == sorted(
        f"{section}.{key}" for section in STAGES for key in SCHEMA[section])


@pytest.mark.parametrize("section,key,value",
                         OUT_OF_RANGE + JOINTLY_OUT_OF_RANGE,
                         ids=OUT_OF_RANGE_IDS + JOINTLY_OUT_OF_RANGE_IDS)
def test_out_of_range_value_exits_1_before_the_runner(tmp_path, capsys,
                                                      section, key, value):
    # `synth` reads only its own section, yet refuses every section's ranges.
    raw = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    assert main(["synth", "--out", str(tmp_path / "data"), "--videos", "4",
                 "--set", f"{section}.{key}={raw}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] ") and key in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("section,key,value",
                         OUT_OF_RANGE + JOINTLY_OUT_OF_RANGE,
                         ids=OUT_OF_RANGE_IDS + JOINTLY_OUT_OF_RANGE_IDS)
def test_out_of_range_value_fails_the_replay_naming_the_manifest(
        work, tmp_path, capsys, section, key, value):
    def edit(manifest):
        manifest["resolved_config"][section][key] = value
        return manifest

    out = work / "data"
    before = {p: p.read_bytes() for p in out.iterdir()}
    err = replay_malformed(work, tmp_path, capsys, edit)
    assert f"{tmp_path / 'edited.json'}: [{section}] " in err and key in err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


def test_replay_names_the_manifest_for_too_few_synth_videos(work, tmp_path,
                                                          capsys):
    def edit(manifest):
        manifest["run"]["videos"] = 3
        return manifest

    out = work / "data"
    before = {p: p.read_bytes() for p in out.iterdir()}
    err = replay_malformed(work, tmp_path, capsys, edit)
    assert (f"{tmp_path / 'edited.json'}: videos: need at least 4 videos "
            f"for an A/B/C/D split, got 3") in err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture(scope="module")
def compare_manifest(work, tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp") / "cmp"
    assert main(["compare", "--data", str(work / "data"), "--seeds", "1",
                 "--methods", "contrastive", "--out", str(out),
                 "--set", "pretrain.epochs=1",
                 "--set", "finetune.max_epochs=1"]) == 0
    return out / "run_manifest.json"


@pytest.mark.parametrize("key,value,message", [
    ("seeds", 0, "seeds must be at least 1, got 0"),
    ("methods", [], "methods must name at least one method"),
    ("methods", ["nope"], "methods: unknown pretraining method 'nope'"),
    ("labeled_sets", "D", "labeled sets 'D' are not a label budget"),
    ("labeled_sets", "ABCD", "labeled sets 'ABCD' are not a label budget"),
    ("methods", ["contrastive", "contrastive"],
     "methods name 'contrastive' twice"),
    ("seed", -1, "seed must be at least 0, got -1"),
    # The budget is checked before `compare` selects the labeled videos.
    ("labeled_sets", "", "labeled sets '' are not a label budget"),
    # Each budget of a sweep is checked, and none may repeat.
    ("labeled_sets", "A,D", "labeled sets 'D' are not a label budget"),
    ("labeled_sets", "A,A", "labeled_sets name 'A' twice"),
    ("labeled_sets", "A,", "labeled sets '' are not a label budget"),
], ids=["zero-seeds", "no-methods", "unknown-method", "test-split-labels",
        "all-split-labels", "repeated-method", "negative-seed", "no-labels",
        "sweep-test-split-labels", "sweep-repeated-budget",
        "sweep-empty-budget"])
def test_replay_names_the_manifest_for_out_of_range_compare_run(
        compare_manifest, tmp_path, capsys, key, value, message):
    manifest = read_manifest(compare_manifest)
    manifest["run"][key] = value
    out = Path(manifest["paths"]["out"])
    before = {p: p.read_bytes() for p in out.iterdir()}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("value", ["D", "ABCD"])
def test_replay_names_the_manifest_for_finetune_labels_outside_the_budgets(
        work, tmp_path, capsys, value):
    # D is the test split: fine-tuning on its labels would score a model on
    # the videos it was trained on.
    manifest = read_manifest(work / FINETUNE_MANIFEST)
    manifest["run"]["labeled_sets"] = value
    before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert (f"{path}: labeled sets {value!r} are not a label budget"
            in capsys.readouterr().err)
    assert {p: Path(p).read_bytes() for p in manifest["outputs"]} == before


@pytest.mark.parametrize("method", ["nope", "baseline"])
def test_replay_names_the_manifest_for_unknown_pretrain_method(work, tmp_path,
                                                               capsys, method):
    # `baseline` is compare's name for the no-pretraining arm, not a method.
    manifest = read_manifest(work / "enc.ckpt.manifest.json")
    manifest["run"]["method"] = method
    manifest["resolved_config"]["sampler"]["delta_seconds"] = None
    before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    assert main(["replay", str(path)]) == 2
    assert (f"{path}: method: unknown pretraining method {method!r}"
            in capsys.readouterr().err)
    assert {p: Path(p).read_bytes() for p in manifest["outputs"]} == before


def _no_dataset(*args):
    raise AssertionError("the dataset was read before the queries were checked")


@pytest.mark.parametrize("queries,query_split,message", [
    ("random:2", "AZ", "query_split: unknown split 'Z', expected one of "
                       "('A', 'B', 'C', 'D')"),
    # An empty query_split selects no videos, whether or not the queries
    # are drawn from it.
    ("random:3", "", "query_split must name at least one split"),
    ("video_001:3", "", "query_split must name at least one split"),
    ("bogus", "ABC", "queries: expected VIDEO_ID:FRAME, got 'bogus'"),
    ("random:0", "ABC", "queries random:N needs N >= 1"),
    ("random:x", "ABC", "queries 'random:x': expected random:N"),
    ("video_001:x", "ABC", "queries: bad frame index 'x'"),
    ("video_001:-1", "ABC", "queries: frame index -1 of 'video_001' must be >= 0"),
], ids=["unknown-split", "random-empty-split", "explicit-empty-split",
        "no-frame", "random-0", "random-not-a-number", "frame-not-a-number",
        "frame-negative"])
def test_replay_names_the_manifest_for_bad_queries_or_query_split(
        work, tmp_path, capsys, queries, query_split, message):
    # Both are refused before the dataset is read: exit 1 from the flags,
    # exit 2 naming the manifest on replay.
    out = tmp_path / "hits.csv"
    base = ["retrieve", "--data", str(work / "data"),
            "--model", str(work / "enc.ckpt"), "--out", str(out)]
    with mock.patch.object(cli, "load_dataset", _no_dataset):
        assert main([*base, "--queries", queries,
                     "--query-split", query_split]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert main([*base, "--queries", "random:2"]) == 0
    manifest = read_manifest(str(out) + ".manifest.json")
    manifest["run"].update(queries=queries, query_split=query_split)
    before = out.read_bytes()
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    with mock.patch.object(cli, "load_dataset", _no_dataset):
        assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert out.read_bytes() == before


@pytest.mark.parametrize("split", ["Z", "", "AB"])
@pytest.mark.parametrize("command", ["eval", "retrieve"])
def test_replay_names_the_manifest_for_a_split_that_is_not_a_split_letter(
        replay_sources, tmp_path, capsys, command, split):
    # `--split` takes only a split letter; a replayed `split` is refused by
    # the pre-run check, before the dataset or the checkpoint is read.
    manifest = copy.deepcopy(replay_sources[command])
    manifest["run"]["split"] = split
    before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    with mock.patch.object(cli, "load_dataset", _no_dataset):
        assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: split: unknown split {split!r}, expected one of "
        f"('A', 'B', 'C', 'D')\n")
    assert {p: Path(p).read_bytes() for p in manifest["outputs"]} == before
    assert path.read_text() == json.dumps(manifest)


# The replay fuzzer: real manifests of every command with one to three
# random values set or deleted. `_execute` is stubbed, so a manifest that
# passes every check runs nothing; whatever it holds, `cmd_replay` refuses it
# with a TempcohError or hands it on, and writes nothing.

@pytest.fixture(scope="module")
def replay_sources(work, compare_manifest, tmp_path_factory):
    """command -> a manifest that command wrote."""
    root = tmp_path_factory.mktemp("sources")
    data = ["--data", str(work / "data")]
    assert main(["eval", *data, "--model", str(work / "model.ckpt"),
                 "--out", str(root / "report.csv")]) == 0
    assert main(["retrieve", *data, "--model", str(work / "enc.ckpt"),
                 "--queries", "random:2", "--out", str(root / "hits.csv")]) == 0
    paths = {"synth": work / SYNTH_MANIFEST,
             "pretrain": work / "enc.ckpt.manifest.json",
             "finetune": work / FINETUNE_MANIFEST,
             "eval": root / "report.csv.manifest.json",
             "compare": compare_manifest,
             "retrieve": root / "hits.csv.manifest.json"}
    return {command: read_manifest(path) for command, path in paths.items()}


DELETE = object()
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


def _json_paths(node, prefix=()):
    """The key path of `node` and of every value inside it."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, (*prefix, key))


def _fuzzed(draw, manifest):
    for _ in range(draw(st.integers(1, 3), label="edits")):
        path = draw(st.sampled_from(list(_json_paths(manifest))), label="path")
        value = draw(st.just(DELETE) | FUZZ_VALUES, label="value")
        if not path:
            manifest = manifest if value is DELETE else value
            continue
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return manifest


def _tree(roots) -> dict:
    return {p: p.stat().st_mtime_ns for root in roots for p in root.rglob("*")}


def test_fuzz_replay_manifest(replay_sources, tmp_path_factory):
    path = tmp_path_factory.mktemp("replay-fuzz") / "fuzzed.manifest.json"
    # Every command writes its outputs under the parent of its `out` path.
    roots = {Path(m["paths"]["out"]).parent for m in replay_sources.values()}
    before = _tree(roots)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def replay_one(data):
        command = data.draw(st.sampled_from(sorted(replay_sources)),
                            label="command")
        manifest = _fuzzed(data.draw, copy.deepcopy(replay_sources[command]))
        path.write_text(json.dumps(manifest))
        executed = []
        with mock.patch.object(cli, "_execute",
                               lambda *args: executed.append(args) or 0):
            try:
                assert cli.cmd_replay(argparse.Namespace(manifest=str(path))) == 0
            except TempcohError as exc:
                assert str(path) in str(exc)
            else:
                assert executed

    replay_one()
    assert _tree(roots) == before


# ------------------------------------------------------------- entry point

def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


# `main` builds its parser once per process; each call parses afresh and
# runs the command function bound in `tempcoh.cli` at that moment.

def test_a_call_leaves_no_trace_in_the_next(work, tmp_path, capsys):
    data = str(work / "data")
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    assert main(["pretrain", "--data", data, "--method", "ranking",
                 "--out", str(first), "--set", "pretrain.epochs=0",
                 "--set", "pretrain.batch_size=7"]) == 0
    never = tmp_path / "never.ckpt"
    assert main(["pretrain", "--data", data, "--method", "ranking",
                 "--out", str(never), "--set", "pretrain.lr=0.5",
                 "--no-such-flag"]) == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert not never.exists()
    assert main(["pretrain", "--data", data, "--method", "ranking",
                 "--out", str(second), "--set", "pretrain.epochs=0"]) == 0
    expected = resolve_config(set_flags=["pretrain.epochs=0"])
    expected["sampler"]["delta_seconds"] = resolve_delta_seconds(expected, "ranking")
    manifest = read_manifest(str(second) + ".manifest.json")
    assert manifest["resolved_config"] == expected
    assert read_manifest(str(first) + ".manifest.json")["resolved_config"][
        "pretrain"]["batch_size"] == 7


def test_main_runs_the_command_function_bound_at_call_time(work, tmp_path,
                                                           monkeypatch):
    argv = ["eval", "--data", str(work / "data"), "--model",
            str(work / "model.ckpt"), "--out", str(tmp_path / "report.csv")]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [args.command for args in seen] == ["eval"]


# numpy refuses sizes like these itself, before allocating anything.
HUGE = "9000000000000000000"


@pytest.mark.parametrize("message,detail", [
    ("Unable to allocate 16.0 GiB for an array with shape (2147483647, 2)",
     ": Unable to allocate 16.0 GiB for an array with shape (2147483647, 2)"),
    ("", ""),
    (None, ": Maximum allowed dimension exceeded"),
], ids=["numpy", "bare", "past-numpy-limit"])
@pytest.mark.parametrize("command", ["finetune", "compare"])
def test_model_build_out_of_memory_exit_2_naming_num_phases(
        work, tmp_path, capsys, monkeypatch, command, message, detail):
    # The build is made to fail as a num_phases near 2**31 in dataset.json
    # would make it fail, without allocating anything; with no message, a
    # model.lstm_hidden past numpy's limit makes it fail.
    def cannot_allocate(*args):
        raise MemoryError(message)

    lstm_hidden = "64"
    if message is None:
        lstm_hidden = HUGE
    else:
        monkeypatch.setattr(experiments, "build_phase_model", cannot_allocate)
    out = tmp_path / "out"
    argv = {"finetune": ["--labeled-sets", "A", "--init",
                         str(work / "enc.ckpt")],
            "compare": ["--seeds", "1", "--methods", "ranking"],
            }[command]
    assert main([command, "--data", str(work / "data"), *argv,
                 "--out", str(out), "--set", f"model.lstm_hidden={lstm_hidden}"]) == 2
    assert capsys.readouterr().err == (
        f"error: out of memory: {work / 'data' / 'dataset.json'}: num_phases "
        f"4 with model.lstm_hidden {lstm_hidden}{detail}\n")
    assert not out.exists()


ALLOCATION_FAILED = ("Unable to allocate 5.82 TiB for an array with shape "
                     "(100000000000, 16) and data type float32")
TOO_BIG = ("array is too big; `arr.size * arr.dtype.itemsize` is larger than "
           "the maximum possible size.")


@pytest.mark.parametrize("key,value,sizes,message", [
    ("hidden_sizes", "100000000000",
     "[100000000000] and model.embedding_dim 32", ALLOCATION_FAILED),
    ("embedding_dim", "100000000000",
     "[64] and model.embedding_dim 100000000000", ALLOCATION_FAILED),
    ("hidden_sizes", HUGE, f"[{HUGE}] and model.embedding_dim 32", TOO_BIG),
    ("embedding_dim", HUGE, f"[64] and model.embedding_dim {HUGE}", TOO_BIG),
], ids=["hidden_sizes", "embedding_dim", "hidden_sizes-past-numpy-limit",
        "embedding_dim-past-numpy-limit"])
def test_pretrain_encoder_out_of_memory_names_the_model_keys(
        work, tmp_path, capsys, monkeypatch, key, value, sizes, message):
    # The build is made to fail as these sizes make it fail, without
    # allocating anything; numpy itself refuses the sizes past its limit.
    def cannot_allocate(*args):
        raise MemoryError(message)

    if message is ALLOCATION_FAILED:
        monkeypatch.setattr(EncoderModel, "create", cannot_allocate)
    out = tmp_path / "enc.ckpt"
    assert main(["pretrain", "--data", str(work / "data"), "--method",
                 "ranking", "--out", str(out), "--set", f"model.{key}={value}"]) == 2
    assert capsys.readouterr().err == (
        f"error: out of memory: model.hidden_sizes {sizes} on 6 input "
        f"features: {message}\n")
    assert not out.exists()


def test_only_failed_allocations_are_reported_as_out_of_memory():
    with pytest.raises(MemoryError, match=r"^model\.lstm_hidden 9: "
                       r"Maximum allowed dimension exceeded$"):
        with allocating("model.lstm_hidden 9"):
            raise ValueError("Maximum allowed dimension exceeded")
    # A range error is not an allocation that failed.
    with pytest.raises(ValueError, match=r"^hidden_size must be >= 1$"):
        with allocating("model.lstm_hidden 0"):
            raise ValueError("hidden_size must be >= 1")


@pytest.mark.parametrize("tuples,message", [
    ("9000000000000000000", "error: sampler.tuples_per_video "
     "9000000000000000000 for 6 videos overflow int64: 2**63 tuples or "
     "more\n"),
    ("1000000000000000000", "error: out of memory: sampler.tuples_per_video "
     "1000000000000000000 for 6 videos: array is too big; `arr.size * "
     "arr.dtype.itemsize` is larger than the maximum possible size.\n"),
], ids=["overflow", "array-too-big"])
def test_pretrain_schedule_too_large_names_tuples_per_video(
        work, tmp_path, capsys, tuples, message):
    # Both sizes are refused before anything is allocated.
    out = tmp_path / "enc.ckpt"
    assert main(["pretrain", "--data", str(work / "data"), "--method",
                 "ranking", "--out", str(out),
                 "--set", f"sampler.tuples_per_video={tuples}"]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def _readme_command_lines() -> list[str]:
    """Every `tempcoh ...` command line of the README's sh blocks, with
    backslash continuations joined and shell variables replaced by a word."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"\$\{?\w+\}?", "VAR", line.strip())
            if line.startswith("tempcoh "):
                lines.append(line)
    return lines


def test_readme_commands_parse():
    lines = _readme_command_lines()
    commands = {line.split()[1] for line in lines}
    assert commands >= {"synth", "pretrain", "finetune", "eval", "compare",
                        "retrieve"}
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        config = getattr(args, "config", None)
        assert config is None or (REPO / config).is_file(), line


def test_readme_configuration_matches_the_schema(tmp_path):
    """The README's defaults table gives every key once, with its built-in
    default, and its `ini` example is a config file that parses."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    text = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    seen = []
    # Rows like `pretrain.epochs` / `batch_size` / `lr` | 25 / 64 / 1e-3.
    for keys, defaults in re.findall(r"^\| (`[^|]*`) \| ([^|]*) \|", text,
                                     re.M):
        first, *rest = (name.strip("` ") for name in keys.split(" / "))
        section, first_key = first.split(".")
        names = [first_key, *rest]
        values = defaults.strip().split(" / ")
        values *= len(names) if len(values) == 1 else 1
        assert len(values) == len(names), keys
        for key, value in zip(names, values):
            dotted = f"{section}.{key}"
            assert key in SCHEMA.get(section, {}), dotted
            expected = DEFAULTS[section][key]
            if value == "per method":
                assert expected is None, dotted
            else:
                assert SCHEMA[section][key][0](value) == expected, dotted
            seen.append(dotted)
    assert sorted(seen) == sorted(f"{section}.{key}" for section, keys
                                  in SCHEMA.items() for key in keys)
    [example] = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    path = tmp_path / "example.ini"
    path.write_text(example)
    assert parse_config_file(path)


def test_bad_set_flag_exit_1(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--videos", "4",
                 "--set", "synth.bogus=1"])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_file_flows_into_manifest(work, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[pretrain]\nepochs = 0\nbatch_size = 32\n")
    out = tmp_path / "cfg.ckpt"
    assert main(["pretrain", "--data", str(work / "data"),
                 "--method", "ranking", "--out", str(out),
                 "--config", str(cfg)]) == 0
    manifest = read_manifest(str(out) + ".manifest.json")
    assert manifest["resolved_config"]["pretrain"]["epochs"] == 0
    assert manifest["resolved_config"]["pretrain"]["batch_size"] == 32

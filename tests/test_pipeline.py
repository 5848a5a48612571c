"""One training pipeline, pinned to the bit.

`compare` (through `experiments.run_arms`, whose one-cell grid is
`run_arm`) and the single-step CLI commands run the same stage functions on
the same random streams, so a CLI chain trains, bit for bit, the model of
the `compare` arm with its seed.

The regression guard hashes the outputs of a short `run_arm` pair and of
the criterion-8 CLI chain and compares them with the digests in
`pinned_digests.json`. A change that moves a bit must update those digests
and say why. The products run on BLAS kernels that OpenBLAS picks per CPU
at run time, so the digests are keyed to the numpy version, the machine,
the BLAS build and the kernel core it reports; elsewhere the guard skips.
Outputs do not depend on the BLAS thread count, which a subprocess run at one
and at two threads checks.
"""

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempcoh import experiments
from tempcoh.cli import main
from tempcoh.config import resolve_config
from tempcoh.data_io import (load_checkpoint, load_dataset, load_encoder,
                             load_phase_model)
from tempcoh.experiments import BASELINE, run_arm
from tempcoh.synthetic import SynthConfig, generate_dataset

# The criterion-8 TINY settings: a slow frame rate keeps the frame offsets,
# and so the videos, short.
TINY = ["--set", "synth.fps=0.2", "--set", "synth.min_duration=25",
        "--set", "synth.max_duration=45", "--set", "synth.feature_dim=6",
        "--set", "synth.num_phases=4"]
EPOCHS = ["--set", "pretrain.epochs=2", "--set", "finetune.max_epochs=5"]
PINNED = Path(__file__).with_name("pinned_digests.json")


def _resolved() -> dict:
    return resolve_config("desk", None, (TINY + EPOCHS)[1::2])


def _params_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _eval_f1(report_csv: Path) -> float:
    rows = [line.split(",") for line in report_csv.read_text().splitlines()]
    mean = next(r for r in rows if r[0] == "mean")
    return float(mean[rows[0].index("f1")])


# ------------------------------------------------------------ one pipeline

@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("pipeline") / "data"
    assert main(["synth", "--out", str(data), "--videos", "8", "--seed", "1",
                 *TINY]) == 0
    return data


@pytest.mark.parametrize("labeled_sets", [("D",), ("A", "B", "C", "D"), ("AB",)],
                         ids=["D", "ABCD", "one-name-AB"])
def test_run_arm_refuses_other_labeled_sets_before_training(tiny_data,
                                                            monkeypatch,
                                                            labeled_sets):
    # Split D is the test split; ("AB",) names no split at all.
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the label budget")

    for stage in ("pretrain", "finetune", "evaluate"):
        monkeypatch.setattr(experiments, stage, no_training)
    with pytest.raises(ValueError, match="are not a label budget"):
        run_arm(load_dataset(tiny_data), _resolved(), labeled_sets, 0,
                "contrastive2")


def test_finetune_stage_leaves_its_encoder_alone(tiny_data):
    dataset = load_dataset(tiny_data)
    encoder, _ = experiments.pretrain_stage(dataset, _resolved(), 0,
                                            "contrastive2")
    before = {name: arr.tobytes() for name, arr in encoder.parameters().items()}
    model, result = experiments.finetune_stage(dataset, _resolved(), encoder,
                                               ("A",), 0)
    assert result.epochs_run >= 1
    assert {name: arr.tobytes()
            for name, arr in encoder.parameters().items()} == before
    # Fine-tuning trained a copy of the encoder.
    assert model.encoder is not encoder
    assert not _params_equal(model.encoder.parameters(), encoder.parameters())


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("method", [BASELINE, "contrastive2"])
def test_cli_chain_trains_the_compare_arm(tiny_data, tmp_path, monkeypatch,
                                          seed, method):
    evaluated = []
    real_evaluate = experiments.evaluate

    def capture(model, videos):
        evaluated.append(model)
        return real_evaluate(model, videos)

    monkeypatch.setattr(experiments, "evaluate", capture)
    arm = run_arm(load_dataset(tiny_data), _resolved(), ("A",), seed, method)

    common = ["--data", str(tiny_data), "--seed", str(seed), *TINY, *EPOCHS]
    model, report = tmp_path / "model.ckpt", tmp_path / "report.csv"
    if method == BASELINE:
        # The baseline encoder is the phase model's before any training.
        init = tmp_path / "init.ckpt"
        assert main(["finetune", "--labeled-sets", "A", "--out", str(init),
                     *common, "--set", "finetune.max_epochs=0"]) == 0
        encoder = load_phase_model(init)[0].encoder
        init_flags = []
    else:
        enc = tmp_path / "enc.ckpt"
        assert main(["pretrain", "--method", method, "--out", str(enc),
                     *common]) == 0
        encoder = load_encoder(enc)[0]
        init_flags = ["--init", str(enc)]
    assert main(["finetune", "--labeled-sets", "A", "--out", str(model),
                 *init_flags, *common]) == 0
    assert main(["eval", "--data", str(tiny_data), "--model", str(model),
                 "--out", str(report)]) == 0

    assert _params_equal(encoder.parameters(), arm.encoder.parameters())
    trained = load_phase_model(model)[0]
    assert _params_equal(trained.parameters(), evaluated[0].parameters())
    log = Path(f"{model}.log.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in log] == \
        arm.finetune_log.epoch_accuracies
    assert _eval_f1(report) == arm.report.f1.mean


# --------------------------------------------------------- bit-level guard

def _update(digest, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, bytes):
            digest.update(value)
        else:
            digest.update(repr(value).encode())
        digest.update(b"\0")


def _update_params(digest, params: dict) -> None:
    for name in sorted(params):
        _update(digest, name, params[name])


def run_arm_digest() -> str:
    """A baseline and a contrastive2 arm at seed 0 on TINY data."""
    resolved = _resolved()
    dataset = generate_dataset(SynthConfig(**resolved["synth"]), 8, 1)
    digest = hashlib.sha256()
    for method in (BASELINE, "contrastive2"):
        arm = run_arm(dataset, resolved, ("A",), 0, method)
        report = arm.report
        _update(digest, method)
        _update_params(digest, arm.encoder.parameters())
        _update(digest, report.accuracy, report.macro_recall,
                report.macro_precision, report.f1,
                sorted(report.per_phase_f1.items()),
                arm.finetune_log.epoch_accuracies,
                arm.pretrain_log.epoch_losses if arm.pretrain_log else None)
    return digest.hexdigest()


def cli_chain_digest(work: Path) -> str:
    """The criterion-8 chain: synth, pretrain, finetune --init, eval.
    Checkpoints hash as their parameters, since a phase-model checkpoint
    records the absolute path of its initial encoder."""
    data, enc = work / "data", work / "enc.ckpt"
    model, report = work / "model.ckpt", work / "report.csv"
    steps = [
        (["synth", "--out", str(data), "--videos", "8", "--seed", "1", *TINY],
         data / "run_manifest.json"),
        (["pretrain", "--data", str(data), "--method", "contrastive2",
          "--out", str(enc), "--seed", "3", "--set", "pretrain.epochs=2"],
         Path(f"{enc}.manifest.json")),
        (["finetune", "--data", str(data), "--labeled-sets", "A",
          "--init", str(enc), "--out", str(model), "--seed", "5",
          "--set", "finetune.max_epochs=5"], Path(f"{model}.manifest.json")),
        (["eval", "--data", str(data), "--model", str(model),
          "--out", str(report)], Path(f"{report}.manifest.json")),
    ]
    digest = hashlib.sha256()
    for argv, manifest in steps:
        assert main(argv) == 0
        outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for path in sorted(outputs):
            _update(digest, str(Path(path).relative_to(work)))
            if path.endswith(".ckpt"):
                kind, params, _ = load_checkpoint(path)
                _update(digest, kind)
                _update_params(digest, params)
            else:
                _update(digest, Path(path).read_bytes())
    return digest.hexdigest()


def _blas_core() -> str | None:
    """The kernel core OpenBLAS chose for this CPU, or None if unreadable."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename64_", "openblas_get_corename"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            core = getter()
            return core.decode() if core else None
    return None


def _pinned(name: str) -> str:
    core = _blas_core()
    if core is None:
        pytest.skip("cannot read the BLAS kernel core; bits may differ by core")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    key = (f"numpy {np.__version__} {platform.machine()} "
           f"{blas.get('name')} {blas.get('version')} {core}")
    pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(key)
    if pinned is None:
        pytest.skip(f"no digests pinned for {key!r} in {PINNED.name}; "
                    f"bits may legitimately differ there")
    return pinned[name]


def test_run_arm_outputs_match_pinned_digest():
    expected = _pinned("run_arm")
    assert run_arm_digest() == expected


def test_cli_chain_outputs_match_pinned_digest(tmp_path):
    expected = _pinned("cli_chain")
    assert cli_chain_digest(tmp_path) == expected


def test_run_arm_digest_is_the_same_at_one_and_two_blas_threads():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_pipeline import run_arm_digest; print(run_arm_digest())")
    src = str(Path(experiments.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]

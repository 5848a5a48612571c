"""The benchmark's workloads: inputs made from the seed, one iteration each,
and the check of every operation's output.

An operation (op) is one arm, one retrieval report, one CLI command or one
replay, together with its output check. Each op returns a sha256 digest of
its outputs; `OpLog` compares it with the first iteration's digest for the
same op, so a traced iteration that computes anything differently from an
untraced one counts as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from tempcoh import cli, config, data_io, experiments, retrieval, synthetic
from tempcoh.experiments import BASELINE

from layers import rng_calls_per_tuple

# Criterion-6 dataset constants (tests/test_acceptance.py, HARD_SYNTH).
HARD_SYNTH = {
    "num_phases": 7,
    "min_duration": 20,
    "max_duration": 30,
    "fps": 0.25,
    "noise_std": 1.0,
    "prototype_scale": 0.5,
    "drift_step": 0.0,
}
# Criterion-8 dataset overrides (tests/test_acceptance.py, TINY).
TINY = ["--set", "synth.fps=0.2", "--set", "synth.min_duration=25",
        "--set", "synth.max_duration=45", "--set", "synth.feature_dim=6",
        "--set", "synth.num_phases=4"]


class CheckFailed(Exception):
    """An output failed the benchmark's correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class OpLog:
    """Counts attempted and failed ops and keeps each op's first digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def run(self, name: str, op):
        """Run `op() -> (digest, value)`; return the value, or None if the
        op raised or its digest differs from the first iteration's."""
        self.attempted += 1
        try:
            digest, value = op()
        except Exception as exc:  # any failure of one op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return self.fail(name, f"{type(exc).__name__}: {exc}")
        expected = self.digests.setdefault(name, digest)
        if digest != expected:
            return self.fail(name, f"output sha256 {digest[:16]} differs from "
                                   f"the first iteration's {expected[:16]}")
        return value

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {reason}")
        print(f"perfbench: op {name} failed: {reason}", file=sys.stderr)

    def output_sha256(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.digests):
            digest.update(f"{name}={self.digests[name]}\n".encode())
        return digest.hexdigest()


def _update(digest, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            digest.update(f"{arr.dtype}{arr.shape}".encode())
            digest.update(arr.tobytes())
        else:
            digest.update(repr(value).encode())
        digest.update(b"\0")


def _update_params(digest, params: dict[str, np.ndarray]) -> None:
    for name in sorted(params):
        _update(digest, name, params[name])


def _finite_params(params: dict[str, np.ndarray]) -> bool:
    return all(np.isfinite(p).all() for p in params.values())


def _test_split_queries(test):
    """About four probe frames per test video, capped at 60 (criterion 7)."""
    return [(v, f) for v in test
            for f in range(0, v.num_frames, max(1, v.num_frames // 4))][:60]


class ArmWorkload:
    """Arms through `experiments.run_arm`, then retrieval with each arm's
    encoder: test-split queries against split D."""

    def __init__(self, resolved: dict, n_videos: int, methods, seed: int):
        self.seed = seed
        self.methods = tuple(methods)
        self.resolved = resolved
        self.data = synthetic.generate_dataset(
            synthetic.SynthConfig(**resolved["synth"]), n_videos, seed)
        self.test = self.data.split("D")
        self.queries = _test_split_queries(self.test)
        # Model build at the workload's shapes: allocation, initialisation.
        encoder = experiments.build_encoder(resolved, self.data.feature_dim)
        experiments.build_phase_model(resolved, encoder, self.data.num_phases) \
            .init_uniform_fan(np.random.default_rng([seed, 3]))
        self.quality: dict = {}

    def iterate(self, ops: OpLog, clock) -> None:
        for method in self.methods:
            arm = ops.run(f"arm:{method}", lambda: self._arm(method, clock))
            name = f"retrieval:{method}"
            if arm is None:
                ops.attempted += 1
                ops.fail(name, "its arm failed")
            else:
                ops.run(name, lambda: self._retrieval(method, arm))
        f1 = self.quality.get("test_f1", {})
        if BASELINE in f1:
            self.quality["f1_margin"] = {
                m: f1[m] - f1[BASELINE] for m in f1 if m != BASELINE}

    def _arm(self, method: str, clock):
        arm = experiments.run_arm(self.data, self.resolved, ("A",), self.seed,
                                  method)
        model, evaluation = clock.captured.pop("evaluate")
        f1 = arm.report.f1.mean
        check(arm.report.num_videos == len(self.test), "report video count")
        check(f1 is not None and 0.0 <= f1 <= 100.0, f"test F1 {f1}")
        check(arm.finetune_log.epochs_run >= 1, "no fine-tuning epoch ran")
        if arm.pretrain_log is not None:
            check(all(math.isfinite(x) for x in arm.pretrain_log.epoch_losses),
                  "non-finite pretraining loss")
        check(_finite_params(model.parameters()), "non-finite parameters")
        digest = hashlib.sha256()
        _update(digest, method)
        _update_params(digest, arm.encoder.parameters())
        _update_params(digest, model.parameters())
        for seq in self.test:
            pred = evaluation.predictions[seq.video_id]
            check(pred.shape == (seq.num_frames,), "prediction length")
            check(bool(((pred >= 0) & (pred < self.data.num_phases)).all()),
                  "predicted phase out of range")
            _update(digest, seq.video_id, pred)
        report = arm.report
        _update(digest, report.accuracy, report.macro_recall,
                report.macro_precision, report.f1,
                sorted(report.per_phase_f1.items()))
        _update(digest, arm.finetune_log.epoch_accuracies,
                arm.pretrain_log.epoch_losses if arm.pretrain_log else None)
        self.quality.setdefault("test_f1", {})[method] = f1
        return digest.hexdigest(), arm

    def _retrieval(self, method: str, arm):
        results = retrieval.retrieval_report(arm.encoder, self.queries,
                                             self.test)
        agreement = retrieval.phase_agreement(results)
        check(len(results) == len(self.queries), "one result per query")
        check(agreement is not None and 0.0 <= agreement <= 1.0,
              f"phase agreement {agreement}")
        digest = hashlib.sha256()
        for res in results:
            dists = [m.distance for m in res.matches]
            check(len(dists) == len(self.test), "one match per corpus video")
            check(all(math.isfinite(d) and d >= 0.0 for d in dists),
                  "bad distance")
            check(dists == sorted(dists), "matches not sorted by distance")
            # A query frame is in the corpus, so its own video matches at
            # exactly 0 (batched and single-frame embeddings agree bitwise).
            own = [m for m in res.matches if m.video_id == res.query_video]
            check(own[0].distance == 0.0, "query frame not found at distance 0")
            _update(digest, res.query_video, res.query_frame,
                    [(m.video_id, m.frame_index, m.distance, m.retrieved_phase)
                     for m in res.matches])
        _update(digest, agreement)
        self.quality.setdefault("phase_agreement", {})[method] = agreement
        return digest.hexdigest(), None

    def sampler_probe(self) -> float:
        method = self.methods[-1]
        cfg = experiments.make_pretrain_config(self.resolved, method,
                                               self.data.fps)
        unlabeled = self.data.split("A", "B", "C")
        return rng_calls_per_tuple([(v.video_id, v.num_frames) for v in unlabeled],
                                   cfg.sampler, cfg.tuple_order, [self.seed, 1])

    def close(self) -> None:
        pass


def arm_pair(seed: int, root: Path) -> ArmWorkload:
    """Criterion-6 settings: 53 HARD_SYNTH videos, pretrain 12 epochs,
    fine-tune cap 25 on split A, test on split D."""
    resolved = config.resolve_config()
    resolved["synth"].update(HARD_SYNTH)
    resolved["pretrain"]["epochs"] = 12
    resolved["finetune"]["max_epochs"] = 25
    return ArmWorkload(resolved, 53, (BASELINE, "contrastive2"), seed)


def paper_shape(seed: int, root: Path) -> ArmWorkload:
    """`paper` preset shapes (no hidden layer, 4096-d embedding, 512-unit
    LSTM) on 12 HARD_SYNTH videos, one epoch of each training stage."""
    resolved = config.resolve_config("paper")
    resolved["synth"].update(HARD_SYNTH)
    resolved["sampler"]["tuples_per_video"] = 64
    resolved["pretrain"]["epochs"] = 1
    resolved["finetune"]["max_epochs"] = 1
    return ArmWorkload(resolved, 12, ("contrastive2",), seed)


class CliChain:
    """The criterion-8 TINY chain through `tempcoh.cli.main` into a fresh
    directory, then a replay of every manifest."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="cli-chain-", dir=scratch))
        self.quality: dict = {}
        self._before: dict[Path, dict[str, bytes]] = {}

    def iterate(self, ops: OpLog, clock) -> None:
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            self._chain(work, ops)
        finally:
            shutil.rmtree(work)

    def _chain(self, work: Path, ops: OpLog) -> None:
        data, enc = work / "data", work / "enc.ckpt"
        model, report = work / "model.ckpt", work / "report.csv"
        hits = work / "retrieval.csv"
        seed = str(self.seed)
        commands = [
            ("synth", ["synth", "--out", str(data), "--videos", "8",
                       "--seed", seed, *TINY], data / "run_manifest.json"),
            ("pretrain", ["pretrain", "--data", str(data), "--method",
                          "contrastive2", "--out", str(enc), "--seed", seed,
                          "--set", "pretrain.epochs=2"],
             Path(f"{enc}.manifest.json")),
            ("finetune", ["finetune", "--data", str(data), "--labeled-sets", "A",
                          "--init", str(enc), "--out", str(model), "--seed", seed,
                          "--set", "finetune.max_epochs=5"],
             Path(f"{model}.manifest.json")),
            ("eval", ["eval", "--data", str(data), "--model", str(model),
                      "--out", str(report)], Path(f"{report}.manifest.json")),
            ("retrieve", ["retrieve", "--data", str(data), "--model", str(enc),
                          "--queries", "random:20", "--out", str(hits),
                          "--seed", seed], Path(f"{hits}.manifest.json")),
        ]
        for name, argv, manifest in commands:
            ops.run(f"cli:{name}", lambda: self._command(argv, manifest, work))
        for name, _, manifest in commands:
            ops.run(f"replay:{name}", lambda: self._replay(manifest, work))

    @staticmethod
    def _main(argv) -> None:
        """Run one CLI command in-process, its output captured."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        check(code == 0, f"tempcoh {argv[0]} exited {code}: "
                         f"{err.getvalue().strip()}")

    def _outputs(self, manifest: Path) -> dict[str, bytes]:
        paths = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        check(bool(paths), f"{manifest.name} lists no outputs")
        return {p: Path(p).read_bytes() for p in paths}

    def _digest(self, outputs: dict[str, bytes], work: Path) -> str:
        # Checkpoints hash as their parameters: a phase-model checkpoint
        # records the absolute path of its initial encoder.
        digest = hashlib.sha256()
        for path in sorted(outputs):
            _update(digest, str(Path(path).relative_to(work)))
            if path.endswith(".ckpt"):
                kind, params, _ = data_io.load_checkpoint(path)
                _update(digest, kind)
                _update_params(digest, params)
            else:
                _update(digest, outputs[path])
        return digest.hexdigest()

    def _command(self, argv, manifest: Path, work: Path):
        self._main(argv)
        outputs = self._outputs(manifest)
        self._check_outputs(argv[0], outputs)
        self._before[manifest] = outputs
        return self._digest(outputs, work), None

    def _replay(self, manifest: Path, work: Path):
        before = self._before.pop(manifest)
        self._main(["replay", str(manifest)])
        after = self._outputs(manifest)
        check(after == before, f"replay of {manifest.name} changed bytes")
        return self._digest(after, work), None

    def _check_outputs(self, command: str, outputs: dict[str, bytes]) -> None:
        if command == "eval":
            csv = next(v for p, v in outputs.items() if p.endswith(".csv"))
            rows = [line.split(",") for line in csv.decode().splitlines()]
            header, mean = rows[0], next(r for r in rows if r[0] == "mean")
            f1 = float(mean[header.index("f1")])
            check(0.0 <= f1 <= 100.0, f"eval F1 {f1}")
            self.quality["test_f1"] = f1
        elif command == "retrieve":
            txt = next(v for p, v in outputs.items() if p.endswith(".txt"))
            lines = dict(line.split(": ", 1) for line in txt.decode().splitlines())
            check(lines["queries"] == "20", "retrieval query count")
            agreement = float(lines["phase_agreement"])
            check(0.0 <= agreement <= 1.0, f"phase agreement {agreement}")
            self.quality["phase_agreement"] = agreement
        elif command == "pretrain":
            csv = next(v for p, v in outputs.items() if p.endswith(".csv"))
            losses = [float(line.split(",")[1])
                      for line in csv.decode().splitlines()[1:]]
            check(len(losses) == 2 and all(map(math.isfinite, losses)),
                  "pretraining losses")

    def sampler_probe(self) -> float:
        resolved = config.resolve_config("desk", None, TINY[1::2])
        data = synthetic.generate_dataset(
            synthetic.SynthConfig(**resolved["synth"]), 8, self.seed)
        cfg = experiments.make_pretrain_config(resolved, "contrastive2",
                                               data.fps)
        unlabeled = data.split("A", "B", "C")
        return rng_calls_per_tuple([(v.video_id, v.num_frames) for v in unlabeled],
                                   cfg.sampler, cfg.tuple_order, self.seed)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.scratch.parent.rmdir()  # only when no other run uses it


WORKLOADS = {"arm-pair": arm_pair, "paper-shape": paper_shape,
             "cli-chain": CliChain}

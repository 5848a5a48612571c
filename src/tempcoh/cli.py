"""Command-line experiment runner.

Subcommands: synth, pretrain, finetune, eval, compare, retrieve, replay.
Every run writes its outputs plus a JSON run manifest holding the fully
resolved configuration; `tempcoh replay MANIFEST` re-executes a run from
that manifest and reproduces its outputs byte for byte.

Exit codes: 0 success, 1 usage error, 2 data or contract error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (PRESETS, check_resolved_config, is_int, resolve_config,
                     resolve_delta_seconds)
# The runners train through `experiments` and read checkpoints through
# `load_model`. `pretrain`, `finetune`, `load_checkpoint`, `load_encoder`
# and `load_phase_model` stay bound here, unused, because the benchmark
# (perfbench/layers.py) patches the training stages and wraps every
# `data_io` loader and saver by name in this module.
from .data_io import (SPLIT_NAMES, atomic_write_text, load_checkpoint,  # noqa: F401
                      load_dataset, load_encoder, load_model, load_phase_model,
                      read_json, save_dataset, save_encoder, save_phase_model)
from .errors import CheckpointError, DataFormatError, TempcohError, UsageError
from .experiments import (BASELINE, LABEL_BUDGETS, PRETRAIN_SPLITS, TEST_SPLIT,
                          finetune_stage, make_pretrain_config, pretrain_stage,
                          run_arm)
from .metrics import HEADLINE, MetricSummary
from .models import PhaseModel
from .retrieval import phase_agreement, retrieval_report
from .synthetic import SynthConfig, generate_dataset
from .training import (PRETRAIN_METHODS, FinetuneConfig, evaluate,  # noqa: F401
                       finetune, pretrain)

MANIFEST_FORMAT = "tempcoh-run"


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via exceptions, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _fnum(x) -> str:
    """Full-precision, round-trippable float formatting for machine output."""
    return repr(float(x))


def _cell(summary: MetricSummary) -> str:
    if summary.mean is None:
        return "n/a"
    return f"{summary.mean:.1f} ± {summary.std:.1f}"


def _write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: a float cell in full precision, None as an empty
    cell, anything else as its `str`."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return _fnum(value)
        return str(value)

    lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_table(path, title: str, rows: list[list[str]]) -> None:
    """The one text-table writer: `title` over left-aligned columns."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [title]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
              for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _mkparent(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)


def _load_checked(path, kinds: tuple[str, ...], dataset):
    """(model, its encoder) from one read of the checkpoint at `path`, of
    one of `kinds`; a CheckpointError unless the encoder takes the
    dataset's features."""
    model, _ = load_model(path, kinds)
    encoder = model.encoder if isinstance(model, PhaseModel) else model
    if encoder.input_dim != dataset.feature_dim:
        raise CheckpointError(f"{path}: encoder expects {encoder.input_dim} "
                              f"input features but the dataset has "
                              f"{dataset.feature_dim}")
    return model, encoder


# ---------------------------------------------------------------- runners
# Each runner executes one command from (resolved config, run parameters,
# paths) alone, so a replayed manifest takes exactly the same code path. A
# runner may write runtime-resolved values back into `resolved`/`run`; the
# manifest is written afterwards and records them.

def _run_synth(resolved, run, paths) -> list[Path]:
    cfg = SynthConfig(**resolved["synth"])
    dataset = generate_dataset(cfg, run["videos"], run["seed"])
    return save_dataset(Path(paths["out"]), dataset)


def _run_pretrain(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    method = run["method"]
    resolved["sampler"]["delta_seconds"] = resolve_delta_seconds(resolved, method)
    run["fps"] = dataset.fps
    encoder, result = pretrain_stage(dataset, resolved, run["seed"], method)
    out = Path(paths["out"])
    _mkparent(out)
    save_encoder(out, encoder, {"method": method, "seed": run["seed"],
                                "epochs": resolved["pretrain"]["epochs"]})
    losses_csv = Path(str(out) + ".losses.csv")
    _write_csv(losses_csv, ["epoch", "mean_loss"], enumerate(result.epoch_losses))
    return [out, losses_csv]


def _run_finetune(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    labeled_sets = tuple(run["labeled_sets"])
    if not dataset.split(*labeled_sets):
        raise DataFormatError(f"labeled sets {run['labeled_sets']} contain "
                              f"no videos")
    init_path = paths.get("init")
    if init_path:
        encoder, _ = _load_checked(init_path, ("encoder",), dataset)
    else:
        encoder, _ = pretrain_stage(dataset, resolved, run["seed"], BASELINE)
    model, result = finetune_stage(dataset, resolved, encoder, labeled_sets,
                                   run["seed"])
    run["epochs_run"] = result.epochs_run
    run["stopped_early"] = result.stopped_early
    out = Path(paths["out"])
    _mkparent(out)
    save_phase_model(out, model, {
        "seed": run["seed"],
        "labeled_sets": run["labeled_sets"],
        "init": init_path,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
    })
    log_csv = Path(str(out) + ".log.csv")
    _write_csv(log_csv, ["epoch", "train_accuracy"],
               enumerate(result.epoch_accuracies))
    return [out, log_csv]


def _report_rows(report, num_phases: int) -> list[tuple[str, object]]:
    """(name, value) of the headline metrics, then of each phase's F1 as
    P1, P2, ...; `report` is a VideoMetrics or an AggregateReport."""
    return ([(m, getattr(report, m)) for m in HEADLINE]
            + [(f"P{k + 1}", report.per_phase_f1[k]) for k in range(num_phases)])


def _run_eval(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    model, _ = _load_checked(paths["model"], ("phase_model",), dataset)
    if model.num_phases != dataset.num_phases:
        raise CheckpointError(f"{paths['model']}: model has {model.num_phases} "
                              f"phases but the dataset has {dataset.num_phases}")
    videos = dataset.split(run["split"])
    if not videos:
        raise DataFormatError(f"split {run['split']} is empty")
    result = evaluate(model, videos)
    summaries = _report_rows(result.report, model.num_phases)
    out = Path(paths["out"])
    _mkparent(out)
    per_video = ([seq.video_id, *(v for _, v in _report_rows(
        result.per_video[seq.video_id], model.num_phases))] for seq in videos)
    totals = ([field, *(getattr(s, field) for _, s in summaries)]
              for field in ("mean", "std", "count"))
    _write_csv(out, ["video_id", *(name for name, _ in summaries)],
               [*per_video, *totals])
    txt = Path(str(out) + ".txt")
    _write_table(txt, f"evaluation over {result.report.num_videos} video(s)",
                 [["metric", "mean ± std", "n"],
                  *([name, _cell(s), str(s.count)] for name, s in summaries)])
    return [out, txt]


def _run_compare(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    methods = list(run["methods"])
    # Every stage's settings are checked before the first arm trains.
    stage = "pretraining"
    try:
        configs = {m: make_pretrain_config(resolved, m, dataset.fps)
                   for m in methods}
        stage = "fine-tuning"
        FinetuneConfig(**resolved["finetune"])
    except ValueError as exc:
        raise ValueError(f"{stage} settings: {exc}") from exc
    run["delta_seconds_by_method"] = {
        m: cfg.sampler.delta_seconds for m, cfg in configs.items()}
    seeds = [run["seed"] + i for i in range(run["seeds"])]
    values = {}
    for seed in seeds:
        for method in [BASELINE, *methods]:
            report = run_arm(dataset, resolved, tuple(run["labeled_sets"]),
                             seed, method).report
            values[(method, seed)] = {m: getattr(report, m).mean
                                      for m in HEADLINE}
    out_dir = Path(paths["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    per_seed_csv = out_dir / "per_seed.csv"
    _write_csv(per_seed_csv, ["seed", "method", *HEADLINE],
               ([seed, method, *row.values()]
                for (method, seed), row in values.items()))

    summary_rows = []
    table = [["method", *HEADLINE, "Δf1"]]
    for method in [BASELINE, *methods]:
        summaries = {m: MetricSummary.of([values[(method, s)][m] for s in seeds])
                     for m in HEADLINE}
        improvement = float(np.mean(
            [values[(method, s)]["f1"] - values[(BASELINE, s)]["f1"]
             for s in seeds]))
        summary_rows.append([method, *(x for m in HEADLINE for x in (
            summaries[m].mean, summaries[m].std)), improvement])
        table.append([method, *(_cell(summaries[m]) for m in HEADLINE),
                      f"{improvement:+.1f}"])
    summary_csv = out_dir / "summary.csv"
    _write_csv(summary_csv, ["method", *(f"{m}_{stat}" for m in HEADLINE
                                         for stat in ("mean", "std")),
                             "f1_improvement"], summary_rows)
    summary_txt = out_dir / "summary.txt"
    _write_table(summary_txt, f"label budget {run['labeled_sets']}, "
                              f"{len(seeds)} seed(s), test split {TEST_SPLIT}",
                 table)
    return [per_seed_csv, summary_csv, summary_txt]


def _parse_queries(spec: str, dataset, query_split: str, seed: int):
    if spec.startswith("random:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"--queries {spec!r}: expected random:N") from exc
        if count < 1:
            raise UsageError("--queries random:N needs N >= 1")
        pool = dataset.split(*tuple(query_split))
        if not pool:
            raise DataFormatError(f"query splits {query_split} contain no videos")
        rng = np.random.default_rng(seed)
        queries = []
        for _ in range(count):
            video = pool[int(rng.integers(len(pool)))]
            queries.append((video, int(rng.integers(video.num_frames))))
        return queries
    queries = []
    for part in spec.split(","):
        if ":" not in part:
            raise UsageError(f"--queries: expected VIDEO_ID:FRAME, got {part!r}")
        vid, frame_text = part.rsplit(":", 1)
        try:
            frame = int(frame_text)
        except ValueError as exc:
            raise UsageError(f"--queries: bad frame index {frame_text!r}") from exc
        try:
            video = dataset.by_id(vid)
        except KeyError as exc:
            raise DataFormatError(f"unknown video id {vid!r}") from exc
        queries.append((video, frame))
    return queries


def _run_retrieve(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    _, encoder = _load_checked(paths["model"], ("encoder", "phase_model"),
                               dataset)
    corpus = dataset.split(run["split"])
    if not corpus:
        raise DataFormatError(f"split {run['split']} is empty")
    queries = _parse_queries(run["queries"], dataset, run["query_split"],
                             run["seed"])
    results = retrieval_report(encoder, queries, corpus)
    agreement = phase_agreement(results)
    out = Path(paths["out"])
    _mkparent(out)
    _write_csv(out, ["query_id", "video_id", "frame_index", "distance",
                     "query_phase", "retrieved_phase"],
               ([f"{res.query_video}:{res.query_frame}", m.video_id,
                 m.frame_index, m.distance, res.query_phase, m.retrieved_phase]
                for res in results for m in res.matches))
    txt = Path(str(out) + ".txt")
    agreement_text = "n/a" if agreement is None else _fnum(agreement)
    atomic_write_text(txt, (
        f"queries: {len(results)}\n"
        f"corpus videos: {len(corpus)}\n"
        f"phase_agreement: {agreement_text}\n"))
    return [out, txt]


# command -> (runner, `run` keys, `paths` keys the runner requires, where
# the manifest goes: appended to the `out` path). A command records its
# `run` keys from the arguments of the same names; replay checks a manifest
# for the required keys before running it. Only the commands with a `seed`
# run key take `--seed`, and only those whose runner reads `resolved` take
# the config flags; the others record the built-in default config.
_RUNNERS = {
    "synth": (_run_synth, ("seed", "videos"), ("out",), "/run_manifest.json"),
    "pretrain": (_run_pretrain, ("seed", "method"), ("data", "out"),
                 ".manifest.json"),
    "finetune": (_run_finetune, ("seed", "labeled_sets"), ("data", "out"),
                 ".manifest.json"),
    "eval": (_run_eval, ("split",), ("data", "model", "out"), ".manifest.json"),
    "compare": (_run_compare, ("seed", "seeds", "methods", "labeled_sets"),
                ("data", "out"), "/run_manifest.json"),
    "retrieve": (_run_retrieve, ("seed", "queries", "split", "query_split"),
                 ("data", "model", "out"), ".manifest.json"),
}
# Path arguments, made absolute in `paths`; `init` is finetune's optional one.
_PATH_ARGS = ("data", "model", "init", "out")

# (test, name) of the type of each `run` value a runner requires; every
# other required `run` or `paths` value is a string.
_STRING = (lambda v: isinstance(v, str), "a string")
_REQUIRED_TYPES = {
    "seed": (is_int, "an integer"),
    "videos": (is_int, "an integer"),
    "seeds": (is_int, "an integer"),
    "methods": (lambda v: isinstance(v, list)
                and all(isinstance(m, str) for m in v), "a list of strings"),
}


def _check_run_ranges(command: str, run: dict) -> None:
    """Raise a ValueError for a run value out of range: a `seed` below 0, a
    `synth` with fewer than 4 videos, a `pretrain` with an unknown method, a
    `compare` with `seeds` below 1 or `methods` empty, naming an unknown
    method or naming one twice, or a `retrieve` with a `query_split` letter
    that is not a split. The values already have the types
    `_REQUIRED_TYPES` names."""
    if "seed" in _RUNNERS[command][1] and run["seed"] < 0:
        raise ValueError(f"seed must be at least 0, got {run['seed']}")
    if command == "synth":
        if run["videos"] < 4:
            raise ValueError(f"videos must be at least 4 (A/B/C/D split), "
                             f"got {run['videos']}")
    elif command == "pretrain":
        _check_methods([run["method"]])
    elif command == "compare":
        if run["seeds"] < 1:
            raise ValueError(f"seeds must be at least 1, got {run['seeds']}")
        if not run["methods"]:
            raise ValueError("methods must name at least one method")
        _check_methods(run["methods"])
        for i, m in enumerate(run["methods"]):
            if m in run["methods"][:i]:
                raise ValueError(f"methods name {m!r} twice")
    elif command == "retrieve":
        for letter in run["query_split"]:
            if letter not in SPLIT_NAMES:
                raise ValueError(f"query_split: unknown split {letter!r}")


def _check_methods(methods: list[str]) -> None:
    for m in methods:
        if m not in PRETRAIN_METHODS:
            raise ValueError(f"unknown method {m!r}; expected methods "
                             f"from {sorted(PRETRAIN_METHODS)}")


def _artifact_version(outputs: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in outputs:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _execute(command: str, resolved: dict, run: dict, paths: dict,
             manifest_path: Path) -> int:
    started = time.perf_counter()
    outputs = _RUNNERS[command][0](resolved, run, paths)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "package_version": __version__,
        "command": command,
        "run": run,
        "paths": paths,
        "resolved_config": resolved,
        "outputs": [str(p) for p in outputs],
        "artifact_version": _artifact_version(outputs),
        "duration_seconds": time.perf_counter() - started,
        "replay_argv": ["tempcoh", "replay", str(manifest_path)],
    }
    _mkparent(Path(manifest_path))
    atomic_write_text(manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} output file(s); manifest: {manifest_path}")
    return 0


def _run_command(args) -> int:
    """Run `args.command` from its parsed arguments."""
    command = args.command
    _, run_keys, _, manifest_suffix = _RUNNERS[command]
    run = {key: getattr(args, key) for key in run_keys}
    try:
        _check_run_ranges(command, run)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    resolved = (resolve_config(args.preset, args.config, args.set)
                if "preset" in args else resolve_config())
    paths = {key: str(Path(value).resolve()) if value else None
             for key, value in vars(args).items() if key in _PATH_ARGS}
    return _execute(command, resolved, run, paths,
                    Path(paths["out"] + manifest_suffix))


# Each command has its own name, which `main` looks up on every call: the
# benchmark (perfbench/layers.py) wraps `cmd_<command>` to count calls.
cmd_synth = cmd_pretrain = cmd_finetune = cmd_eval = cmd_compare = \
    cmd_retrieve = _run_command


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest).resolve()
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise DataFormatError(f"{manifest_path}: not a run manifest")
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise DataFormatError(f"{manifest_path}: unknown command {command!r}")
    for field in ("run", "paths", "resolved_config"):
        if not isinstance(manifest.get(field), dict):
            raise DataFormatError(f"{manifest_path}: {field!r} is missing or "
                                  f"not an object")
    _, run_keys, path_keys, _ = _RUNNERS[command]
    for field, keys in (("run", run_keys), ("paths", path_keys)):
        missing = [key for key in keys if key not in manifest[field]]
        if missing:
            raise DataFormatError(f"{manifest_path}: {field!r} lacks {missing} "
                                  f"needed by {command!r}")
        for key in keys:
            value = manifest[field][key]
            has_type, type_name = _REQUIRED_TYPES.get(key, _STRING)
            if not has_type(value):
                raise DataFormatError(f"{manifest_path}: {field} value {key} "
                                      f"= {value!r} is not {type_name}")
    init = manifest["paths"].get("init")
    if not (init is None or isinstance(init, str)):
        raise DataFormatError(f"{manifest_path}: paths value init = {init!r} "
                              f"is not a string or null")
    check_resolved_config(manifest["resolved_config"], str(manifest_path))
    try:
        _check_run_ranges(command, manifest["run"])
        return _execute(command, manifest["resolved_config"], manifest["run"],
                        manifest["paths"], manifest_path)
    except ValueError as exc:
        # The run ranges and the stage configs reject out-of-range values;
        # in a replay those values come from the manifest.
        raise DataFormatError(f"{manifest_path}: {exc}") from exc


def _method_list(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="config file ([section] headers over key = value lines)")
    p.add_argument("--preset", default="desk", choices=sorted(PRESETS),
                   help="named scale preset (default: desk)")
    p.add_argument("--set", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override one config value (repeatable)")
    _add_seed(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state on it."""
    parser = _Parser(prog="tempcoh",
                     description="Temporal-coherence pretraining and phase "
                                 "segmentation experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--videos", type=int, required=True,
                   help="number of videos (>= 4)")
    _add_config(p)

    p = sub.add_parser("pretrain", help="self-supervised encoder pretraining")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--method", required=True,
                   choices=sorted(PRETRAIN_METHODS))
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    _add_config(p)

    p = sub.add_parser("finetune", help="supervised phase-model training")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--labeled-sets", required=True, choices=LABEL_BUDGETS,
                   dest="labeled_sets", help="label budget")
    p.add_argument("--init", default=None,
                   help="encoder checkpoint to start from (omit for the "
                        "no-pretraining baseline)")
    p.add_argument("--out", required=True, help="phase-model checkpoint path")
    _add_config(p)

    p = sub.add_parser("eval", help="evaluate a phase model on one split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="phase-model checkpoint")
    p.add_argument("--split", default=TEST_SPLIT, choices=SPLIT_NAMES)
    p.add_argument("--out", required=True,
                   help="report CSV path (text table at PATH.txt)")

    p = sub.add_parser("compare",
                       help="baseline vs pretraining methods across seeds")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--seeds", type=int, required=True,
                   help="number of seeds (base seed from --seed)")
    p.add_argument("--labeled-sets", default="A", choices=LABEL_BUDGETS,
                   dest="labeled_sets", help="label budget (default: A)")
    p.add_argument("--methods", required=True, type=_method_list,
                   help="comma list of pretraining methods")
    p.add_argument("--out", required=True, help="output directory")
    _add_config(p)

    p = sub.add_parser("retrieve", help="nearest-neighbor frame retrieval")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True,
                   help="encoder or phase-model checkpoint")
    p.add_argument("--queries", required=True,
                   help="'VIDEO_ID:FRAME,...' or 'random:N'")
    p.add_argument("--split", default=TEST_SPLIT, choices=SPLIT_NAMES,
                   help="corpus split (default: %(default)s)")
    p.add_argument("--query-split", default="".join(PRETRAIN_SPLITS),
                   dest="query_split", help="splits random queries are drawn "
                                            "from (default: %(default)s)")
    p.add_argument("--out", required=True,
                   help="report CSV path (summary at PATH.txt)")
    _add_seed(p)

    p = sub.add_parser("replay", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="run manifest JSON path")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TempcohError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError is empty.
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner.

Subcommands: synth, pretrain, finetune, eval, compare, retrieve, replay.
Every run writes its outputs plus a JSON run manifest holding the fully
resolved configuration; `tempcoh replay MANIFEST` re-executes a run from
that manifest and reproduces its outputs byte for byte. Replay checks the
manifest's `version` and each `run`, `paths` and `resolved_config` value it
reads through `data_io.json_value`, then makes the same pre-run range check
(`_check_ranges`) as a fresh run, before anything runs.

Exit codes: 0 success, 1 usage error, 2 data or contract error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (PRESETS, check_ranges, check_resolved_config,
                     resolve_config, resolve_delta_seconds)
# The runners train through `experiments` and read checkpoints through
# `load_model`. `pretrain`, `finetune`, `load_checkpoint`, `load_encoder`
# and `load_phase_model` stay bound here, unused, because the benchmark
# (perfbench/layers.py) patches the training stages and wraps every
# `data_io` loader and saver by name in this module.
from .data_io import (SPLIT_NAMES, atomic_write_text,  # noqa: F401
                      check_split, fnum, is_int, is_object, json_value,
                      load_checkpoint, load_dataset, load_encoder, load_model,
                      load_phase_model, read_json, save_dataset, save_encoder,
                      save_phase_model, write_csv)
from .errors import CheckpointError, DataFormatError, TempcohError, UsageError
from .experiments import (BASELINE, LABEL_BUDGETS, PRETRAIN_SPLITS, TEST_SPLIT,
                          check_label_budget, finetune_stage, pretrain_stage,
                          run_arms)
from .metrics import HEADLINE, MetricSummary
from .models import PhaseModel
from .retrieval import check_query_frame, phase_agreement, retrieval_report
from .synthetic import SynthConfig, check_video_count, generate_dataset
from .training import (PRETRAIN_METHODS, check_method,  # noqa: F401
                       evaluate, finetune, pretrain)

MANIFEST_FORMAT = "tempcoh-run"
MANIFEST_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via exceptions, not sys.exit(2)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _cell(summary: MetricSummary) -> str:
    if summary.mean is None:
        return "n/a"
    return f"{summary.mean:.1f} ± {summary.std:.1f}"


def _write_table(path, title: str, rows: list[list[str]]) -> None:
    """The one text-table writer: `title` over left-aligned columns."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [title]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
              for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    save_encoder(out, encoder, {"method": method, "seed": run["seed"],
                                "epochs": resolved["pretrain"]["epochs"]})
    losses_csv = Path(str(out) + _SIDECARS["pretrain"])
    write_csv(losses_csv, ["epoch", "mean_loss"], enumerate(result.epoch_losses))
    return [out, losses_csv]


def _run_finetune(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    init_path = paths["init"]
    if init_path:
        encoder, _ = _load_checked(init_path, ("encoder",), dataset)
    else:
        encoder, _ = pretrain_stage(dataset, resolved, run["seed"], BASELINE)
    model, result = finetune_stage(dataset, resolved, encoder,
                                   tuple(run["labeled_sets"]), run["seed"])
    run["epochs_run"] = result.epochs_run
    run["stopped_early"] = result.stopped_early
    out = Path(paths["out"])
    save_phase_model(out, model, {
        "seed": run["seed"],
        "labeled_sets": run["labeled_sets"],
        "init": init_path,
        "epochs_run": result.epochs_run,
        "stopped_early": result.stopped_early,
    })
    log_csv = Path(str(out) + _SIDECARS["finetune"])
    write_csv(log_csv, ["epoch", "train_accuracy"],
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
    videos = dataset.labeled_split(run["split"])
    result = evaluate(model, videos)
    summaries = _report_rows(result.report, model.num_phases)
    out = Path(paths["out"])
    per_video = ([seq.video_id, *(v for _, v in _report_rows(
        result.per_video[seq.video_id], model.num_phases))] for seq in videos)
    totals = ([field, *(getattr(s, field) for _, s in summaries)]
              for field in ("mean", "std", "count"))
    write_csv(out, ["video_id", *(name for name, _ in summaries)],
              [*per_video, *totals])
    txt = Path(str(out) + _SIDECARS["eval"])
    _write_table(txt, f"evaluation over {result.report.num_videos} video(s)",
                 [["metric", "mean ± std", "n"],
                  *([name, _cell(s), str(s.count)] for name, s in summaries)])
    return [out, txt]


def _run_compare(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    budgets = _label_budgets(run["labeled_sets"])
    seeds = [run["seed"] + i for i in range(run["seeds"])]
    arm_names = [BASELINE, *run["methods"]]
    arms = run_arms(dataset, resolved, budgets, seeds, arm_names)
    run["delta_seconds_by_method"] = {
        m: resolve_delta_seconds(resolved, m) for m in run["methods"]}

    def mean(key, metric):
        return getattr(arms[key].report, metric).mean

    out_dir = Path(paths["out"])

    per_seed_csv = out_dir / "per_seed.csv"
    write_csv(per_seed_csv, ["budget", "seed", "method", *HEADLINE,
                             "epochs_run", "stopped_early"],
              ([*key, *(mean(key, m) for m in HEADLINE),
                arms[key].finetune_log.epochs_run,
                arms[key].finetune_log.stopped_early]
               for key in itertools.product(budgets, seeds, arm_names)))

    summary_rows = []
    table = [["budget", "method", *HEADLINE, "Δf1"]]
    for budget, method in itertools.product(budgets, arm_names):
        summaries = {m: MetricSummary.of(
            [mean((budget, s, method), m) for s in seeds]) for m in HEADLINE}
        improvement = float(np.mean(
            [mean((budget, s, method), "f1") - mean((budget, s, BASELINE), "f1")
             for s in seeds]))
        summary_rows.append([budget, method, *(x for m in HEADLINE for x in (
            summaries[m].mean, summaries[m].std)), improvement])
        table.append([budget, method, *(_cell(summaries[m]) for m in HEADLINE),
                      f"{improvement:+.1f}"])
    summary_csv = out_dir / "summary.csv"
    write_csv(summary_csv, ["budget", "method",
                            *(f"{m}_{stat}" for m in HEADLINE
                              for stat in ("mean", "std")),
                            "f1_improvement"], summary_rows)
    summary_txt = out_dir / "summary.txt"
    _write_table(summary_txt, f"{len(seeds)} seed(s), test split {TEST_SPLIT}",
                 table)
    return [per_seed_csv, summary_csv, summary_txt]


def _parse_queries(spec: str) -> int | list[tuple[str, int]]:
    """The syntax of a `queries` value: N for `random:N`, otherwise its
    (video id, frame) pairs; a ValueError for a value of neither form or a
    negative frame."""
    if spec.startswith("random:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"queries {spec!r}: expected random:N") from exc
        if count < 1:
            raise ValueError("queries random:N needs N >= 1")
        return count
    pairs = []
    for part in spec.split(","):
        if ":" not in part:
            raise ValueError(f"queries: expected VIDEO_ID:FRAME, got {part!r}")
        vid, frame_text = part.rsplit(":", 1)
        try:
            frame = int(frame_text)
        except ValueError as exc:
            raise ValueError(f"queries: bad frame index {frame_text!r}") from exc
        if frame < 0:
            raise ValueError(f"queries: frame index {frame} of {vid!r} must "
                             f"be >= 0")
        pairs.append((vid, frame))
    return pairs


def _queries(spec: str, dataset, query_split: str, seed: int):
    """(video, frame) of each query of `spec`: drawn from the videos of
    `query_split` for `random:N`, otherwise looked up by id; a ValueError
    naming `dataset.json` for an id it does not hold or a frame past the
    end of its video."""
    parsed = _parse_queries(spec)
    if isinstance(parsed, int):
        pool = dataset.split(*query_split)
        rng = np.random.default_rng(seed)
        queries = []
        for _ in range(parsed):
            video = pool[int(rng.integers(len(pool)))]
            queries.append((video, int(rng.integers(video.num_frames))))
        return queries
    queries = []
    for vid, frame in parsed:
        try:
            video = dataset.by_id(vid)
        except KeyError:
            raise ValueError(f"{dataset.manifest_path}: unknown video id "
                             f"{vid!r}") from None
        check_query_frame(video, frame, f"{dataset.manifest_path}: ")
        queries.append((video, frame))
    return queries


def _run_retrieve(resolved, run, paths) -> list[Path]:
    dataset = load_dataset(paths["data"])
    # A query the dataset cannot answer is refused before the checkpoint
    # is read.
    queries = _queries(run["queries"], dataset, run["query_split"], run["seed"])
    _, encoder = _load_checked(paths["model"], ("encoder", "phase_model"),
                               dataset)
    corpus = dataset.split(run["split"])
    results = retrieval_report(encoder, queries, corpus)
    agreement = phase_agreement(results)
    out = Path(paths["out"])
    write_csv(out, ["query_id", "video_id", "frame_index", "distance",
                    "query_phase", "retrieved_phase"],
              ([f"{res.query_video}:{res.query_frame}", m.video_id,
                m.frame_index, m.distance, res.query_phase, m.retrieved_phase]
               for res in results for m in res.matches))
    txt = Path(str(out) + _SIDECARS["retrieve"])
    agreement_text = "n/a" if agreement is None else fnum(agreement)
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
    "finetune": (_run_finetune, ("seed", "labeled_sets"),
                 ("data", "init", "out"), ".manifest.json"),
    "eval": (_run_eval, ("split",), ("data", "model", "out"), ".manifest.json"),
    "compare": (_run_compare, ("seed", "seeds", "methods", "labeled_sets"),
                ("data", "out"), "/run_manifest.json"),
    "retrieve": (_run_retrieve, ("seed", "queries", "split", "query_split"),
                 ("data", "model", "out"), ".manifest.json"),
}

# command -> the suffix of the one file its runner writes beside its `out`
# file, named by appending the suffix to `out`.
_SIDECARS = {"pretrain": ".losses.csv", "finetune": ".log.csv", "eval": ".txt",
             "retrieve": ".txt"}

# (test, what) of each `run` or `paths` value a runner requires, for
# `json_value`; every other one is a string.
_STRING = (lambda v: isinstance(v, str), "a string")
_REQUIRED_TYPES = {
    "seed": (is_int, "an integer"),
    "videos": (is_int, "an integer"),
    "seeds": (is_int, "an integer"),
    "methods": (lambda v: isinstance(v, list)
                and all(isinstance(m, str) for m in v), "a list of strings"),
    "init": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _label_budgets(text: str) -> list[str]:
    """The label budgets of a `labeled_sets` comma list such as `A,AB,ABC`,
    in its order; a ValueError for an element that is not a label budget
    (`experiments.check_label_budget`) or one named twice."""
    budgets = text.split(",")
    for i, budget in enumerate(budgets):
        check_label_budget(tuple(budget))
        if budget in budgets[:i]:
            raise ValueError(f"labeled_sets name {budget!r} twice")
    return budgets


def _check_ranges(command: str, resolved: dict, run: dict) -> None:
    """The one check before a run starts: a ValueError for a run value out
    of range, then for a config value out of its stage's range
    (`config.check_ranges`). A run value is out of range for a `seed`
    below 0, a `finetune` whose `labeled_sets` are not a label budget or a
    `compare` whose `labeled_sets` `_label_budgets` refuses, a `split` that
    is not one split letter (`data_io.check_split`), a `synth` with fewer
    videos than splits (`synthetic.check_video_count`), an unknown
    pretraining method (`training.check_method`), a `compare` with `seeds`
    below 1 or `methods` empty or naming one twice, or a `retrieve` with
    `queries` that `_parse_queries` refuses or a `query_split` that is
    empty or holds a letter that is not a split. An owner's message is
    prefixed with its run key. The values already have the types
    `_REQUIRED_TYPES` names."""
    keys = _RUNNERS[command][1]
    if "seed" in keys and run["seed"] < 0:
        raise ValueError(f"seed must be at least 0, got {run['seed']}")
    if command == "finetune":
        check_label_budget(tuple(run["labeled_sets"]))
    if "split" in keys:
        check_split(run["split"], "split: ")
    if command == "synth":
        check_video_count(run["videos"], "videos: ")
    elif command == "pretrain":
        check_method(run["method"], "method: ")
    elif command == "compare":
        _label_budgets(run["labeled_sets"])
        if run["seeds"] < 1:
            raise ValueError(f"seeds must be at least 1, got {run['seeds']}")
        if not run["methods"]:
            raise ValueError("methods must name at least one method")
        for i, m in enumerate(run["methods"]):
            check_method(m, "methods: ")
            if m in run["methods"][:i]:
                raise ValueError(f"methods name {m!r} twice")
    elif command == "retrieve":
        _parse_queries(run["queries"])
        if not run["query_split"]:
            raise ValueError("query_split must name at least one split")
        for letter in run["query_split"]:
            check_split(letter, "query_split: ")
    check_ranges(resolved)


def _artifact_version(outputs: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in outputs:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _check_inputs_kept(command: str, paths: dict, manifest_path: Path) -> None:
    """A ValueError naming both paths when a `command` run would write at
    or inside one of its inputs: its `data` directory, or its `init` or
    `model` checkpoint. A run writes `out` (for `synth` and `compare`, the
    files inside it), the sidecar named from a file `out`, and its
    manifest."""
    out = Path(paths["out"]).resolve()
    written = (out, Path(str(out) + _SIDECARS.get(command, "")),
               manifest_path.resolve())
    for key in ("data", "init", "model"):
        given = paths.get(key) and Path(paths[key]).resolve()
        for path in written:
            if given and path.is_relative_to(given):
                raise ValueError(f"{command} would write {path}, at or inside "
                                 f"its --{key} input {given}; a run never "
                                 f"writes over its inputs")


def _execute(command: str, resolved: dict, run: dict, paths: dict,
             manifest_path: Path) -> int:
    # A command whose manifest goes inside `out` writes a directory there,
    # the others a file; an `out` of the other kind is refused before any
    # work.
    out = Path(paths["out"])
    if _RUNNERS[command][3].startswith("/"):
        if out.exists() and not out.is_dir():
            raise NotADirectoryError(f"{out}: not a directory, but {command} "
                                     f"writes a directory there")
    elif out.is_dir():
        raise IsADirectoryError(f"{out}: a directory, but {command} writes "
                                f"a file there")
    _check_inputs_kept(command, paths, manifest_path)
    started = time.perf_counter()
    outputs = _RUNNERS[command][0](resolved, run, paths)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
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
    atomic_write_text(manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} output file(s); manifest: {manifest_path}")
    return 0


def _run_command(args) -> int:
    """Run `args.command` from its parsed arguments."""
    command = args.command
    _, run_keys, path_keys, manifest_suffix = _RUNNERS[command]
    run = {key: getattr(args, key) for key in run_keys}
    resolved = (resolve_config(args.preset, args.config, args.set)
                if "preset" in args else resolve_config())
    try:
        _check_ranges(command, resolved, run)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    paths = {key: str(Path(getattr(args, key)).resolve())
             if getattr(args, key) else None for key in path_keys}
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
    if not isinstance(command, str) or command not in _RUNNERS:
        raise DataFormatError(f"{manifest_path}: unknown command {command!r}")
    json_value(manifest, "version", manifest_path,
               lambda v: is_int(v) and v == MANIFEST_VERSION,
               str(MANIFEST_VERSION))
    _, run_keys, path_keys, _ = _RUNNERS[command]
    for field, keys in (("run", run_keys), ("paths", path_keys),
                        ("resolved_config", ())):
        values = json_value(manifest, field, manifest_path, is_object,
                            "an object")
        for key in keys:
            json_value(values, key, manifest_path,
                       *_REQUIRED_TYPES.get(key, _STRING), field)
    check_resolved_config(manifest["resolved_config"], manifest_path)
    try:
        _check_ranges(command, manifest["resolved_config"], manifest["run"])
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
                   help=f"pretraining method: "
                        f"{'|'.join(sorted(PRETRAIN_METHODS))}")
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    _add_config(p)

    p = sub.add_parser("finetune", help="supervised phase-model training")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--labeled-sets", required=True, dest="labeled_sets",
                   help=f"label budget: {'|'.join(LABEL_BUDGETS)}")
    p.add_argument("--init", default=None,
                   help="encoder checkpoint to start from (omit for the "
                        "no-pretraining baseline)")
    p.add_argument("--out", required=True, help="phase-model checkpoint path")
    _add_config(p)

    p = sub.add_parser("eval", help="evaluate a phase model on one split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="phase-model checkpoint")
    p.add_argument("--split", default=TEST_SPLIT,
                   help=f"split to score: {'|'.join(SPLIT_NAMES)} "
                        f"(default: %(default)s)")
    p.add_argument("--out", required=True,
                   help="report CSV path (text table at PATH.txt)")

    p = sub.add_parser("compare",
                       help="baseline vs pretraining methods across seeds")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--seeds", type=int, required=True,
                   help="number of seeds (base seed from --seed)")
    p.add_argument("--labeled-sets", default="A", dest="labeled_sets",
                   help=f"comma list of label budgets, each "
                        f"{'|'.join(LABEL_BUDGETS)} (default: %(default)s)")
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
    p.add_argument("--split", default=TEST_SPLIT,
                   help=f"corpus split: {'|'.join(SPLIT_NAMES)} "
                        f"(default: %(default)s)")
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
    except (TempcohError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError is empty.
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

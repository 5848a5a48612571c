"""On-disk formats: frame features, labels, splits, datasets, checkpoints.

Feature files are little-endian binary:

    magic b"TCSL" | version u16 | video_id (u32 length + UTF-8)
    | num_frames u32 | feature_dim u32 | fps f32
    | num_frames * feature_dim float32, row-major

Labels ride in a CSV sidecar (`frame_index,phase_id` header, one row per
frame in order). Split assignments are text lines `video_id,set`. A dataset
directory is tied together by a JSON manifest. Checkpoints reuse the same
binary envelope followed by a named float32 parameter table and a JSON
metadata trailer.

`FrameSequence` owns a video's rules: features a (frames, dim) array with
both sizes >= 1 and every value finite, and a finite positive fps.
`load_features` builds through it, as `load_model` builds through the model
constructors, and re-raises their ValueError naming the file. `models.py`
owns the names of the parameters a checkpoint stores; `_recorded_sizes`
here owns the sizes its metadata records, which both savers write and
`load_model` requires to equal those of the model its parameters build.
`save_features` checks finiteness again, since features can be edited in
place after construction.

All writers go through a temp file of their own in the target's directory
plus os.replace, so a crash never leaves a half-written file under the final
name. Readers reject truncated input (reporting the byte offset) and
non-finite values, and paths named in a dataset manifest that leave its
directory.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import sys
from dataclasses import dataclass
from pathlib import Path, PurePath

import numpy as np

from .errors import CheckpointError, DataFormatError
from .models import EncoderModel, PhaseModel

MAGIC = b"TCSL"
FORMAT_VERSION = 1
SPLIT_NAMES = ("A", "B", "C", "D")
LABELS_HEADER = "frame_index,phase_id"
PHASE_ID_MAX = int(np.iinfo(np.int32).max)  # labels load as int32
# How far a feature file's float32 fps may lie from its manifest's fps.
FPS_TOLERANCE = 1e-5


@dataclass
class FrameSequence:
    """One video's per-frame feature vectors, with optional phase labels."""

    video_id: str
    features: np.ndarray  # (num_frames, feature_dim) float32
    fps: float
    labels: np.ndarray | None = None  # (num_frames,) int32 phase ids

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(f"features must be a (num_frames, dim) array with "
                             f"both sizes >= 1, got shape {self.features.shape}")
        if not 0 < self.fps <= sys.float_info.max:
            raise ValueError(f"fps must be a finite positive number, got {self.fps}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int32)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must have one entry per frame")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Dataset:
    """A directory of frame sequences plus their split assignment."""

    videos: list[FrameSequence]
    splits: dict[str, str]  # video_id -> split name
    num_phases: int
    fps: float
    manifest_path: Path | None = None  # the dataset.json it was loaded from

    def __post_init__(self):
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate video ids")
        if set(self.splits) != set(ids):
            raise ValueError("splits must assign exactly the dataset's video ids")
        bad = sorted(set(self.splits.values()) - set(SPLIT_NAMES))
        if bad:
            raise ValueError(f"unknown split name(s) {bad}; expected {SPLIT_NAMES}")

    @property
    def feature_dim(self) -> int:
        return self.videos[0].feature_dim

    def split(self, *names: str) -> list[FrameSequence]:
        for n in names:
            if n not in SPLIT_NAMES:
                raise ValueError(f"unknown split name {n!r}")
        return [v for v in self.videos if self.splits[v.video_id] in names]

    def by_id(self, video_id: str) -> FrameSequence:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise KeyError(video_id)


def _atomic_write(path, write_fn) -> None:
    path = Path(path)
    # A random name per writer, so concurrent writers of one path never share
    # a temp file. Exclusive creation (unlike mkstemp's mode 0600) gives the
    # file the same umask-derived permissions as a plain open().
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            write_fn(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    _atomic_write(path, lambda f: f.write(data))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class _Reader:
    """Byte reader that reports the offset of any truncation."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DataFormatError(
                f"{self.path}: truncated while reading {what}: needed {n} bytes "
                f"at offset {self.pos}, file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32(self, what: str) -> float:
        return struct.unpack("<f", self.take(4, what))[0]

    def string(self, what: str) -> str:
        n = self.u32(f"{what} length")
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{self.path}: {what} is not valid UTF-8") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DataFormatError(
                f"{self.path}: {len(self.data) - self.pos} unexpected trailing "
                f"bytes at offset {self.pos}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8: {exc}") from exc


def parse_json(text: str, path, what: str = "invalid JSON"):
    """`text`, read from `path`, parsed as JSON. Malformed JSON, an integer
    beyond Python's digit limit and nesting too deep for the parser raise a
    DataFormatError naming `path`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: {what}: {exc}") from exc


def read_json(path):
    """The JSON document in the UTF-8 file `path`; see `parse_json`."""
    return parse_json(_read_text(path), path)


def _pack_string(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _check_envelope(r: _Reader) -> None:
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise DataFormatError(f"{r.path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u16("format version")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{r.path}: unsupported format version {version}, "
            f"expected {FORMAT_VERSION}")


def save_features(path, seq: FrameSequence) -> None:
    arr = seq.features
    if not np.isfinite(arr).all():
        raise DataFormatError(f"refusing to write non-finite features for "
                              f"video {seq.video_id!r}")

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(_pack_string(seq.video_id))
        f.write(struct.pack("<IIf", seq.num_frames, seq.feature_dim, seq.fps))
        f.write(arr.astype("<f4", copy=False).tobytes(order="C"))

    _atomic_write(path, write)


def load_features(path) -> FrameSequence:
    r = _Reader(Path(path).read_bytes(), path)
    _check_envelope(r)
    video_id = r.string("video id")
    num_frames = r.u32("frame count")
    feature_dim = r.u32("feature dim")
    fps = r.f32("fps")
    raw = r.take(num_frames * feature_dim * 4, "feature payload")
    r.expect_end()
    arr = np.frombuffer(raw, dtype="<f4").reshape(num_frames, feature_dim).copy()
    try:
        return FrameSequence(video_id, arr, fps)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    lines = [LABELS_HEADER, *(f"{i},{int(p)}" for i, p in enumerate(labels))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _clip(text: str, limit: int = 80) -> str:
    """`text` cut to about `limit` characters, for quoting in a message."""
    return text if len(text) <= limit else text[:limit] + "..."


def _is_decimal(text: str) -> bool:
    """Whether `text` is a number as `save_labels` writes it: ASCII `0` or
    a non-zero digit followed by digits."""
    return text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")


def _first_bad_label_row(path, rows: list[str]) -> DataFormatError:
    """The error for the first of the data `rows` that `load_labels`
    rejects; it runs only once the checks over all rows have failed."""
    def bad(row: int, message: str) -> DataFormatError:
        return DataFormatError(f"{path}: line {row + 2}: {message}")

    for row, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != 2:
            return bad(row, f"expected 'frame_index,phase_id', got {_clip(line)!r}")
        idx, phase = parts
        if not _is_decimal(idx) or not _is_decimal(phase):
            if _is_decimal(idx) and phase[:1] == "-" and _is_decimal(phase[1:]) \
                    and phase != "-0":
                return bad(row, "negative phase id")
            return bad(row, f"non-integer field in {_clip(line)!r}")
        if idx != str(row):
            return bad(row, f"frame_index {_clip(idx)} out of order, expected {row}")
        if len(phase) > len(str(PHASE_ID_MAX)) or int(phase) > PHASE_ID_MAX:
            return bad(row, f"phase id above {PHASE_ID_MAX}")


# The data rows as `save_labels` writes them, joined by "\n": two `_is_decimal`
# fields of at most as many digits as PHASE_ID_MAX, so both fit in int64.
_DECIMAL = "(?:0|[1-9][0-9]{0,%d})" % (len(str(PHASE_ID_MAX)) - 1)
_LABEL_ROWS = re.compile(f"{_DECIMAL},{_DECIMAL}(?:\n{_DECIMAL},{_DECIMAL})*")


def load_labels(path, expected_frames: int | None = None) -> np.ndarray | None:
    """Read a label sidecar; a file with no data rows means labels absent.
    Each field must be written as `save_labels` writes it."""
    lines = _read_text(path).splitlines()
    if not lines:
        return None
    if lines[0].strip() != LABELS_HEADER:
        raise DataFormatError(f"{path}: first line must be '{LABELS_HEADER}'")
    rows = lines[1:]
    if not rows:
        return None
    text = "\n".join(rows)
    if not _LABEL_ROWS.fullmatch(text):
        raise _first_bad_label_row(path, rows)
    fields = np.fromstring(text.replace("\n", ","), dtype=np.int64, sep=",")
    index, phase = fields[0::2], fields[1::2]
    if (index != np.arange(len(rows))).any() or phase.max() > PHASE_ID_MAX:
        raise _first_bad_label_row(path, rows)
    if expected_frames is not None and len(rows) != expected_frames:
        raise DataFormatError(f"{path}: {len(rows)} label rows for "
                              f"{expected_frames} frames")
    return phase.astype(np.int32)


def labels_path_for(features_path) -> Path:
    """Label sidecar convention: the feature file's path plus .labels.csv."""
    features_path = Path(features_path)
    return features_path.with_name(features_path.name + ".labels.csv")


def write_video(path, seq: FrameSequence) -> None:
    """Write one video's features and, when present, its label sidecar."""
    save_features(path, seq)
    sidecar = labels_path_for(path)
    if seq.labels is not None:
        save_labels(sidecar, seq.labels)
    else:
        sidecar.unlink(missing_ok=True)


def save_splits(path, splits: dict[str, str]) -> None:
    lines = [f"{vid},{name}" for vid, name in splits.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_splits(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{path}: line {ln}: expected 'video_id,set'")
        vid, name = parts[0].strip(), parts[1].strip()
        if name not in SPLIT_NAMES:
            raise DataFormatError(f"{path}: line {ln}: unknown split {name!r}, "
                                  f"expected one of {SPLIT_NAMES}")
        if vid in out:
            raise DataFormatError(f"{path}: line {ln}: duplicate video id {vid!r}")
        out[vid] = name
    if not out:
        raise DataFormatError(f"{path}: no split assignments found")
    return out


# The longest name written for a video is the temp name of its labels file,
# `<id>.feat.labels.csv` plus `_atomic_write`'s 21-byte suffix, and a file
# name holds at most 255 bytes.
_MAX_VIDEO_ID_BYTES = 255 - len(".feat.labels.csv") - len(".0123456789abcdef.tmp")


def _check_video_id(video_id: str) -> None:
    """Refuse an id that cannot name a file in the dataset directory or
    round-trip through `splits.txt`."""
    if video_id.splitlines() != [video_id]:
        problem = "is empty or holds a line break"
    elif video_id != video_id.strip():
        problem = "has whitespace around it"
    elif "," in video_id:
        problem = "holds ','"
    elif {"/", os.sep, os.altsep, "\0"} & set(video_id):
        problem = "holds a path separator or NUL"
    elif any("\ud800" <= ch <= "\udfff" for ch in video_id):
        problem = "holds a surrogate, which UTF-8 cannot encode"
    elif len(video_id.encode("utf-8")) > _MAX_VIDEO_ID_BYTES:
        problem = f"is longer than {_MAX_VIDEO_ID_BYTES} UTF-8 bytes"
    else:
        return
    raise DataFormatError(f"refusing to write dataset: video id {video_id!r} "
                          f"{problem}")


def save_dataset(directory, dataset: Dataset) -> list[Path]:
    """Write features, labels, splits and the JSON manifest. Returns the
    paths of the files written: `dataset.json`, `splits.txt`, then per
    video its `.feat` file and, if the video is labeled, its labels file.
    Every video id and the fps are checked before anything is written."""
    for seq in dataset.videos:
        _check_video_id(seq.video_id)
    # The feature files hold the fps as float32, and `load_dataset` refuses
    # one more than FPS_TOLERANCE away from the manifest's.
    with np.errstate(over="ignore"):
        stored = float(np.float32(dataset.fps))
    if not (0 < dataset.fps <= sys.float_info.max
            and abs(stored - dataset.fps) <= FPS_TOLERANCE):
        raise DataFormatError(f"refusing to write dataset: fps must be a "
                              f"finite positive number that float32 holds to "
                              f"within {FPS_TOLERANCE:g}, got {dataset.fps!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    video_files = []
    for seq in dataset.videos:
        feat_name = f"{seq.video_id}.feat"
        write_video(directory / feat_name, seq)
        video_files.append(directory / feat_name)
        entry = {
            "video_id": seq.video_id,
            "num_frames": seq.num_frames,
            "features": feat_name,
        }
        if seq.labels is not None:
            entry["labels"] = labels_path_for(feat_name).name
            video_files.append(directory / entry["labels"])
        entries.append(entry)
    splits_path = directory / "splits.txt"
    save_splits(splits_path, dataset.splits)
    manifest = {
        "format": "tempcoh-dataset",
        "version": FORMAT_VERSION,
        "fps": dataset.fps,
        "num_phases": dataset.num_phases,
        "feature_dim": dataset.feature_dim,
        "splits_file": splits_path.name,
        "videos": entries,
    }
    path = directory / "dataset.json"
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True))
    return [path, splits_path, *video_files]


def _json_int(value, what: str, minimum: int, path, error=DataFormatError) -> int:
    """`value` if it is a JSON integer (not a bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{path}: {what} must be an integer >= {minimum}, "
                    f"got {_clip(repr(value))}")
    return value


def _member_path(directory: Path, name, what: str, manifest_path) -> Path:
    """`directory / name` for a relative path to a file inside `directory`."""
    if not isinstance(name, str) or not name:
        raise DataFormatError(f"{manifest_path}: {what} must be a non-empty "
                              f"path string, got {name!r}")
    rel = PurePath(name)
    if rel.is_absolute() or ".." in rel.parts:
        raise DataFormatError(f"{manifest_path}: {what} {name!r} points "
                              f"outside the dataset directory")
    path = directory / rel
    if not path.is_file():
        raise DataFormatError(f"{manifest_path}: {what} {name!r} is not a "
                              f"file in the dataset directory")
    return path


def _check_video_entry(entry, index: int, manifest_path) -> None:
    if not isinstance(entry, dict):
        raise DataFormatError(f"{manifest_path}: videos[{index}] is not an object")
    for key, kind in (("video_id", str), ("num_frames", int), ("features", str)):
        if key not in entry:
            raise DataFormatError(f"{manifest_path}: videos[{index}] lacks {key!r}")
        if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            raise DataFormatError(f"{manifest_path}: videos[{index}].{key} must "
                                  f"be {kind.__name__}, got {entry[key]!r}")


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / "dataset.json"
    if not manifest_path.exists():
        raise DataFormatError(f"{manifest_path}: not found")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: not a dataset manifest")
    for key in ("format", "version", "fps", "num_phases", "feature_dim",
                "splits_file", "videos"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: missing key {key!r}")
    if manifest["format"] != "tempcoh-dataset":
        raise DataFormatError(f"{manifest_path}: not a dataset manifest "
                              f"(format={manifest['format']!r})")
    if manifest["version"] != FORMAT_VERSION:
        raise DataFormatError(f"{manifest_path}: unsupported version "
                              f"{manifest['version']}")
    num_phases = _json_int(manifest["num_phases"], "num_phases", 2, manifest_path)
    if num_phases > PHASE_ID_MAX + 1:
        raise DataFormatError(f"{manifest_path}: num_phases must be at most "
                              f"{PHASE_ID_MAX + 1} (int32 labels), got "
                              f"{_clip(repr(num_phases))}")
    feature_dim = _json_int(manifest["feature_dim"], "feature_dim", 1, manifest_path)
    fps = manifest["fps"]
    if isinstance(fps, bool) or not isinstance(fps, (int, float)) \
            or not 0 < fps <= sys.float_info.max:
        raise DataFormatError(f"{manifest_path}: fps must be a finite positive "
                              f"number, got {_clip(repr(fps))}")
    fps = float(fps)
    if not isinstance(manifest["videos"], list):
        raise DataFormatError(f"{manifest_path}: videos must be a list")
    videos = []
    for index, entry in enumerate(manifest["videos"]):
        _check_video_entry(entry, index, manifest_path)
        features_path = _member_path(directory, entry["features"],
                                     f"videos[{index}].features", manifest_path)
        seq = load_features(features_path)
        if seq.video_id != entry["video_id"]:
            raise DataFormatError(
                f"{features_path}: holds video "
                f"{seq.video_id!r} but manifest names {entry['video_id']!r}")
        if seq.num_frames != entry["num_frames"]:
            raise DataFormatError(
                f"{features_path}: {seq.num_frames} frames, "
                f"manifest says {entry['num_frames']}")
        if seq.feature_dim != feature_dim:
            raise DataFormatError(
                f"{features_path}: feature dim "
                f"{seq.feature_dim}, manifest says {feature_dim}")
        if abs(seq.fps - fps) > FPS_TOLERANCE:
            raise DataFormatError(
                f"{features_path}: fps {seq.fps}, "
                f"manifest says {fps}")
        if "labels" in entry:
            labels_path = _member_path(directory, entry["labels"],
                                       f"videos[{index}].labels", manifest_path)
            labels = load_labels(labels_path, seq.num_frames)
            if labels is not None and labels.size and labels.max() >= num_phases:
                raise DataFormatError(
                    f"{labels_path}: phase id {labels.max()} "
                    f">= num_phases {num_phases}")
            seq.labels = labels
        videos.append(seq)
    splits = load_splits(_member_path(directory, manifest["splits_file"],
                                      "splits_file", manifest_path))
    try:
        return Dataset(videos, splits, num_phases, fps, manifest_path)
    except ValueError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc


def save_checkpoint(path, kind: str, params: dict[str, np.ndarray],
                    metadata: dict) -> None:
    """Write a named-parameter checkpoint. Parameters are stored float32."""
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"refusing to write non-finite parameter "
                                  f"{name!r}")

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(_pack_string(kind))
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.asarray(params[name], dtype="<f4")
            f.write(_pack_string(name))
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes(order="C"))
        f.write(_pack_string(json.dumps(metadata, sort_keys=True)))

    _atomic_write(path, write)


def load_checkpoint(path):
    """Read a checkpoint; returns (kind, params, metadata)."""
    r = _Reader(Path(path).read_bytes(), path)
    try:
        _check_envelope(r)
        kind = r.string("checkpoint kind")
        count = r.u32("parameter count")
        params: dict[str, np.ndarray] = {}
        for i in range(count):
            name = r.string(f"parameter {i} name")
            ndim = r.u32(f"{name} ndim")
            if ndim > 8:
                raise DataFormatError(f"{path}: parameter {name!r} claims "
                                      f"{ndim} dimensions")
            shape = tuple(r.u32(f"{name} dim {d}") for d in range(ndim))
            n = math.prod(shape)
            raw = r.take(n * 4, f"{name} data")
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise DataFormatError(f"{path}: parameter {name!r} contains "
                                      f"non-finite values")
            if name in params:
                raise DataFormatError(f"{path}: duplicate parameter {name!r}")
            params[name] = arr
        meta_raw = r.string("metadata")
        r.expect_end()
        metadata = parse_json(meta_raw, path, "metadata is not valid JSON")
    except DataFormatError as exc:
        raise CheckpointError(str(exc)) from exc
    return kind, params, metadata


def _meta_layer_sizes(metadata, key: str, path) -> list[int]:
    """The encoder's layer sizes from checkpoint metadata, validated."""
    if not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    sizes = metadata.get(key)
    if not isinstance(sizes, list) or len(sizes) < 2:
        raise CheckpointError(f"{path}: metadata lacks a valid {key} list")
    return [_json_int(s, f"metadata {key}[{i}]", 1, path, CheckpointError)
            for i, s in enumerate(sizes)]


def _recorded_sizes(model: EncoderModel | PhaseModel) -> dict:
    """The sizes that a checkpoint of `model` records in its metadata."""
    if isinstance(model, PhaseModel):
        return {"encoder_layer_sizes": model.encoder.layer_sizes,
                "hidden_size": model.hidden_size, "num_phases": model.num_phases}
    return {"layer_sizes": model.layer_sizes}


def save_encoder(path, encoder: EncoderModel, extra_metadata: dict | None = None) -> None:
    save_checkpoint(path, "encoder", encoder.parameters(),
                    {**_recorded_sizes(encoder), **(extra_metadata or {})})


def save_phase_model(path, model: PhaseModel, extra_metadata: dict | None = None) -> None:
    save_checkpoint(path, "phase_model", model.parameters(),
                    {**_recorded_sizes(model), **(extra_metadata or {})})


def load_model(path, kinds: tuple[str, ...]) -> tuple[EncoderModel | PhaseModel, dict]:
    """(model, metadata) from one read of the checkpoint at `path`: an
    EncoderModel for kind "encoder", a PhaseModel for "phase_model", built
    by their constructors. A kind outside `kinds`, or parameter names or
    shapes that do not fit the metadata, raise a CheckpointError naming it."""
    kind, params, metadata = load_checkpoint(path)
    if kind not in kinds:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r}, expected "
                              + " or ".join(map(repr, kinds)))
    phase = kind == "phase_model"
    sizes_key = "encoder_layer_sizes" if phase else "layer_sizes"
    sizes = _meta_layer_sizes(metadata, sizes_key, path)
    encoder_names = EncoderModel.parameter_names(len(sizes) - 1)
    names = encoder_names + list(PhaseModel.HEAD) if phase else encoder_names
    if phase:
        for key, minimum in (("hidden_size", 1), ("num_phases", 2)):
            _json_int(metadata.get(key), f"metadata {key}", minimum, path,
                      CheckpointError)
    if set(params) != set(names):
        raise CheckpointError(f"{path}: parameter names do not match model "
                              f"(missing {sorted(set(names) - set(params))}, "
                              f"unexpected {sorted(set(params) - set(names))})")
    try:
        encoder = EncoderModel([params[n] for n in encoder_names[0::2]],
                               [params[n] for n in encoder_names[1::2]])
        model = PhaseModel(encoder, *(params[n] for n in PhaseModel.HEAD)) if phase else encoder
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    recorded = _recorded_sizes(model)
    if any(metadata[key] != value for key, value in recorded.items()):
        raise CheckpointError(f"{path}: metadata sizes do not match the stored "
                              f"parameter shapes, which give {recorded}")
    return model, metadata


def load_encoder(path) -> tuple[EncoderModel, dict]:
    return load_model(path, ("encoder",))


def load_phase_model(path) -> tuple[PhaseModel, dict]:
    return load_model(path, ("phase_model",))

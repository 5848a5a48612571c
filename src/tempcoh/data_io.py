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

`check_fps` owns the frame rate rule (a finite positive number that a
feature file's float32 holds to within FPS_TOLERANCE) and
`check_num_phases` the dataset phase count rule (an integer from 2 to
PHASE_ID_MAX + 1, since labels load as int32), for `FrameSequence`,
`Dataset`, `synthetic.SynthConfig` and `load_dataset` alike, and
`sampling.SamplerConfig` takes its fps through `check_fps` too.
`FrameSequence` owns a video's rules: features a (frames, dim) array with
both sizes >= 1 and every value finite, an fps `check_fps` takes, and
labels, if any, one integer in [0, PHASE_ID_MAX] per frame, refused rather
than wrapped or cast. `Dataset.check` owns a dataset's rules: its phase
count and fps, at least one video, distinct ids that the splits assign
exactly, and per video the dataset's fps, the first video's width and
labels in [0, num_phases). A `Dataset` is checked when built, and
`save_dataset` checks it again before writing anything, since it may have
changed since. `load_dataset` adds only the checks of each file against
the manifest, which name that file.
`load_features` builds through `FrameSequence`, as `load_model` builds
through the model constructors, and re-raises their ValueError naming the
file. `models.py` owns the names of the parameters a checkpoint stores;
`_recorded_sizes` here owns the sizes its metadata records, which both
savers write and `load_model` requires to equal those of the model its
parameters build.
`FrameSequence.check_finite` owns the finiteness rule, which
`FrameSequence` holds when built and `save_features` and `save_dataset`
check again before writing, since features can be edited in place after
construction; `Dataset.check` leaves it out, so a load adds no pass.

`json_value` is the one checker of a value read from a JSON document,
`dataset.json` and checkpoint metadata here and the run manifest in
`cli.py`/`config.py`: a key that is absent, or a value that fails its test,
raises an error naming the file and the value's JSON path, in the form
`<file>: <path> is missing` or `<file>: <path> must be <what>, got <value>`.
`check_split` owns the split letters, for the splits file, a `Dataset` and
the CLI alike. `Dataset.split` and `Dataset.labeled_split` own the refusal
of a split selection that holds no videos or, for the second, a video
without labels.

All writers go through a temp file of their own in the target's directory
plus os.replace, so a crash never leaves a half-written file under the final
name; the target's directory is created when it does not exist yet. A write
that would not change a file leaves it in place, its inode and mtime
unchanged, so a replay that reproduces its outputs rewrites only its
manifest. Every CSV, the label sidecars among them, is written by
`write_csv`. Readers reject truncated input (reporting the byte offset) and
non-finite values, and paths named in a dataset manifest that leave its
directory.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import struct
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


def check_split(name: str, where: str = "", error=ValueError) -> None:
    """Raise `error`, its message prefixed `where`, unless `name` is one of
    SPLIT_NAMES."""
    if name not in SPLIT_NAMES:
        raise error(f"{where}unknown split {name!r}, expected one of "
                    f"{SPLIT_NAMES}")


def check_fps(fps, where: str = "", error=ValueError) -> None:
    """Raise `error`, its message prefixed `where`, unless `fps` is a
    finite positive number that float32 holds to within FPS_TOLERANCE."""
    # The bound comes first: past it, the float32 cast overflows, and an int
    # past float64 cannot be converted at all.
    if not (0 < fps <= float(np.finfo(np.float32).max)
            and abs(float(np.float32(fps)) - fps) <= FPS_TOLERANCE):
        raise error(f"{where}fps must be a finite positive number that float32 "
                    f"holds to within {FPS_TOLERANCE:g}, got {_clip(repr(fps))}")


def check_num_phases(num_phases, where: str = "", error=ValueError) -> None:
    """Raise `error`, its message prefixed `where`, unless `num_phases` is
    an integer from 2 to PHASE_ID_MAX + 1."""
    if not (is_int(num_phases) and 2 <= num_phases <= PHASE_ID_MAX + 1):
        raise error(f"{where}num_phases must be an integer in "
                    f"[2, {PHASE_ID_MAX + 1}], got {_clip(repr(num_phases))}")


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
        check_fps(self.fps)
        self.check_finite()
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.features.shape[0],):
                raise ValueError("labels must have one entry per frame")
            # Refused before the int32 cast, which would wrap or truncate.
            if labels.dtype.kind not in "iu" or not (
                    0 <= labels.min() and labels.max() <= PHASE_ID_MAX):
                raise ValueError(f"video {self.video_id!r}: labels must be "
                                 f"integers in [0, {PHASE_ID_MAX}]")
            self.labels = labels.astype(np.int32, copy=False)

    def check_finite(self, where: str = "", error=ValueError) -> None:
        """Raise `error`, its message prefixed `where` and naming the video,
        unless every feature value is finite. Writers call it again, since
        features can be edited in place after construction."""
        if not np.isfinite(self.features).all():
            raise error(f"{where}video {self.video_id!r} has non-finite features")

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
        self.check()

    def check(self, where: str = "", error=ValueError) -> None:
        """Raise `error`, its message prefixed `where` and naming any video
        at fault, unless the dataset has a phase count and an fps that
        `check_num_phases` and `check_fps` take; at least one video, under
        distinct ids that `splits` assigns exactly, to splits `check_split`
        takes; and for each video the dataset's fps as its feature file holds
        it, the first video's feature width, and labels in [0, num_phases)."""
        check_num_phases(self.num_phases, where, error)
        check_fps(self.fps, where, error)
        if not self.videos:
            raise error(f"{where}a dataset needs at least one video")
        ids = {}  # a dict keeps the videos' order
        for v in self.videos:
            if v.video_id in ids:
                raise error(f"{where}duplicate video id {v.video_id!r}")
            ids[v.video_id] = v
            at = f"{where}video {v.video_id!r} has "
            # The fps that the video's feature file holds, a float32.
            if abs(float(np.float32(v.fps)) - self.fps) > FPS_TOLERANCE:
                raise error(f"{at}fps {v.fps}, the dataset {self.fps}")
            if v.feature_dim != self.feature_dim:
                raise error(f"{at}feature dim {v.feature_dim}, the dataset "
                            f"{self.feature_dim}")
            low, high = (0, 0) if v.labels is None else (v.labels.min(), v.labels.max())
            if low < 0 or high >= self.num_phases:
                raise error(f"{at}phase id {low if low < 0 else high}, outside "
                            f"[0, {self.num_phases})")
        for vid in (*ids, *self.splits):
            if (vid in ids) != (vid in self.splits):
                problem = "not in splits" if vid in ids else "not a video"
                raise error(f"{where}splits must assign exactly the dataset's "
                            f"video ids; {vid!r} is {problem}")
        for name in self.splits.values():
            check_split(name, where, error)

    @property
    def feature_dim(self) -> int:
        return self.videos[0].feature_dim

    def split(self, *names: str) -> list[FrameSequence]:
        """The videos assigned to any of the splits `names`, in dataset
        order; a DataFormatError naming the dataset's manifest and the
        split letters when they hold none."""
        for n in names:
            check_split(n)
        videos = [v for v in self.videos if self.splits[v.video_id] in names]
        if not videos:
            raise DataFormatError(f"{self.manifest_path or 'dataset'}: split "
                                  f"{''.join(names)!r} holds no videos")
        return videos

    def labeled_split(self, *names: str) -> list[FrameSequence]:
        """`split(*names)`, all of whose videos have labels; a
        DataFormatError naming the dataset's manifest and the first video
        without them."""
        videos = self.split(*names)
        for v in videos:
            if v.labels is None:
                raise DataFormatError(
                    f"{self.manifest_path or 'dataset'}: video {v.video_id!r} "
                    f"in split {''.join(names)!r} has no labels")
        return videos

    def by_id(self, video_id: str) -> FrameSequence:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise KeyError(video_id)


def _holds_same_bytes(path: Path, tmp: Path) -> bool:
    """Whether `path` is a regular file, not a symlink, whose bytes are
    those of `tmp`; compared a block at a time, never buffered whole."""
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != os.stat(tmp).st_size:
            return False
        with open(path, "rb") as old, open(tmp, "rb") as new:
            # The file opened is the one lstat saw, not one swapped in since.
            if not os.path.samestat(st, os.fstat(old.fileno())):
                return False
            while True:
                block = new.read(1 << 16)
                if block != old.read(1 << 16):
                    return False
                if not block:
                    return True
    except OSError:  # absent or unreadable: replace it
        return False


def _atomic_write(path, write_fn) -> None:
    path = Path(path)
    # A stat when the directory exists, as it does for all but the first
    # write into it, costs less than mkdir's FileExistsError.
    if not path.parent.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
    # A random name per writer, so concurrent writers of one path never share
    # a temp file. Exclusive creation (unlike mkstemp's mode 0600) gives the
    # file the same umask-derived permissions as a plain open().
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            write_fn(f)
        # A file that already holds these bytes stays in place: on ext4 a
        # rename over an existing file starts writeback of the new one, and
        # a later unlink of it waits for that, about 60 ms a file.
        if _holds_same_bytes(path, tmp):
            tmp.unlink()
        else:
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    _atomic_write(path, lambda f: f.write(data))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def fnum(x) -> str:
    """Full-precision, round-trippable float formatting for machine output."""
    return repr(float(x))


def write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: a float cell in full precision, None as an empty
    cell, anything else as its `str`."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return fnum(value)
        return str(value)

    lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


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


def is_int(value) -> bool:
    """Whether `value` is a JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether `value` is a JSON number: an int or float, not a bool."""
    return is_int(value) or isinstance(value, float)


def is_object(value) -> bool:
    return isinstance(value, dict)


def _int_at_least(minimum: int):
    """(test, expected) for `json_value`: an integer of at least `minimum`."""
    return lambda v: is_int(v) and v >= minimum, f"an integer >= {minimum}"


def _json_path(at: str, key) -> str:
    """The JSON path of `key` in the value at JSON path `at`."""
    if isinstance(key, int):
        return f"{at}[{key}]"
    return f"{at}.{key}" if at else key


def json_value(doc, key, path, test, expected: str, at: str = "",
               error=DataFormatError):
    """`doc[key]`, where `doc` is the object or list at JSON path `at` of
    the file `path`, if it is there and passes `test`. Otherwise `error`
    names the file, the value's JSON path and, as `expected`, what the
    value must be: `<file>: videos[3].num_frames is missing`, or
    `<file>: metadata.hidden_size must be an integer >= 1, got 0`."""
    where = _json_path(at, key)
    try:
        value = doc[key]
    except LookupError:
        raise error(f"{path}: {where} is missing") from None
    if not test(value):
        raise error(f"{path}: {where} must be {expected}, got {_clip(repr(value))}")
    return value


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
    seq.check_finite("refusing to write features: ", DataFormatError)

    def write(f):
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(_pack_string(seq.video_id))
        f.write(struct.pack("<IIf", seq.num_frames, seq.feature_dim, seq.fps))
        f.write(seq.features.astype("<f4", copy=False).tobytes(order="C"))

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
    write_csv(path, LABELS_HEADER.split(","), enumerate(labels.tolist()))


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
        check_split(name, f"{path}: line {ln}: ", DataFormatError)
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
    `Dataset.check`, every video id and every video's features are checked
    before anything is written, since the dataset may have changed after it
    was built."""
    dataset.check("refusing to write dataset: ", DataFormatError)
    for seq in dataset.videos:
        _check_video_id(seq.video_id)
        seq.check_finite("refusing to write dataset: ", DataFormatError)
    directory = Path(directory)
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


def _member_path(directory: Path, root: Path, doc: dict, key: str,
                 manifest_path, at: str = "") -> Path:
    """`directory / doc[key]` for a relative path to a file inside
    `directory`, also once its symlinks are followed: its resolved path
    lies under `root`, the resolved `directory`. `at` is the JSON path of
    `doc`, as for `json_value`."""
    name = json_value(doc, key, manifest_path, lambda v: isinstance(v, str) and v,
                      "a non-empty path string", at)
    what = _json_path(at, key)
    rel = PurePath(name)
    path = directory / rel
    if (rel.is_absolute() or ".." in rel.parts
            or path.is_file() and not path.resolve().is_relative_to(root)):
        raise DataFormatError(f"{manifest_path}: {what} {name!r} points "
                              f"outside the dataset directory")
    if not path.is_file():
        raise DataFormatError(f"{manifest_path}: {what} {name!r} is not a "
                              f"file in the dataset directory")
    return path


def load_dataset(directory) -> Dataset:
    """The dataset in `directory`. Every top-level value of its
    `dataset.json` is checked, and its splits file read, before the first
    feature file is opened."""
    directory = Path(directory)
    manifest_path = directory / "dataset.json"
    if not manifest_path.exists():
        raise DataFormatError(f"{manifest_path}: not found")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: not a dataset manifest")

    def value(key, test, expected):
        return json_value(manifest, key, manifest_path, test, expected)

    value("format", lambda v: v == "tempcoh-dataset", "'tempcoh-dataset'")
    value("version", lambda v: is_int(v) and v == FORMAT_VERSION,
          str(FORMAT_VERSION))
    num_phases = value("num_phases", is_int, "an integer")
    check_num_phases(num_phases, f"{manifest_path}: ", DataFormatError)
    feature_dim = value("feature_dim", *_int_at_least(1))
    fps = value("fps", is_number, "a number")
    check_fps(fps, f"{manifest_path}: ", DataFormatError)
    entries = value("videos", lambda v: isinstance(v, list), "a list")
    root = directory.resolve()
    splits = load_splits(_member_path(directory, root, manifest, "splits_file",
                                      manifest_path))
    videos = []
    for index, entry in enumerate(entries):
        at = f"videos[{index}]"
        json_value(entries, index, manifest_path, is_object, "an object", "videos")
        video_id = json_value(entry, "video_id", manifest_path,
                              lambda v: isinstance(v, str), "a string", at)
        num_frames = json_value(entry, "num_frames", manifest_path, is_int,
                                "an integer", at)
        features_path = _member_path(directory, root, entry, "features",
                                     manifest_path, at)
        seq = load_features(features_path)
        if seq.video_id != video_id:
            raise DataFormatError(
                f"{features_path}: holds video "
                f"{seq.video_id!r} but manifest names {video_id!r}")
        if seq.num_frames != num_frames:
            raise DataFormatError(
                f"{features_path}: {seq.num_frames} frames, "
                f"manifest says {num_frames}")
        if seq.feature_dim != feature_dim:
            raise DataFormatError(
                f"{features_path}: feature dim "
                f"{seq.feature_dim}, manifest says {feature_dim}")
        if abs(seq.fps - fps) > FPS_TOLERANCE:
            raise DataFormatError(
                f"{features_path}: fps {seq.fps}, "
                f"manifest says {fps}")
        if "labels" in entry:
            labels_path = _member_path(directory, root, entry, "labels",
                                       manifest_path, at)
            labels = load_labels(labels_path, seq.num_frames)
            if labels is None:
                raise DataFormatError(f"{labels_path}: 0 label rows for "
                                      f"{seq.num_frames} frames")
            if labels.max() >= num_phases:
                raise DataFormatError(
                    f"{labels_path}: phase id {labels.max()} "
                    f">= num_phases {num_phases}")
            seq = FrameSequence(seq.video_id, seq.features, seq.fps, labels)
        videos.append(seq)
    try:
        return Dataset(videos, splits, num_phases, float(fps), manifest_path)
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
    if not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")

    def value(key, test, expected):
        return json_value(metadata, key, path, test, expected, "metadata",
                          CheckpointError)

    phase = kind == "phase_model"
    sizes = value("encoder_layer_sizes" if phase else "layer_sizes",
                  lambda v: isinstance(v, list) and len(v) >= 2
                  and all(is_int(n) and n >= 1 for n in v),
                  "a list of at least two integers >= 1")
    encoder_names = EncoderModel.parameter_names(len(sizes) - 1)
    names = encoder_names + list(PhaseModel.HEAD) if phase else encoder_names
    if phase:
        value("hidden_size", *_int_at_least(1))
        value("num_phases", *_int_at_least(2))
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

"""On-disk format round-trips, corruption handling, and format-layout oracles.

The layout tests parse/build files with raw struct calls, independently of
the library's reader/writer, so the binary format itself is pinned and not
just the round-trip.
"""

import copy
import itertools
import json
import os
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempcoh.data_io as dio
from tempcoh.data_io import (
    Dataset,
    FrameSequence,
    labels_path_for,
    load_checkpoint,
    load_dataset,
    load_encoder,
    load_features,
    load_labels,
    load_phase_model,
    load_splits,
    save_checkpoint,
    save_dataset,
    save_encoder,
    save_features,
    save_labels,
    save_phase_model,
    save_splits,
    write_video,
)
from tempcoh.errors import CheckpointError, DataFormatError, TempcohError
from tempcoh.models import EncoderModel, PhaseModel
from tempcoh.sampling import SamplerConfig
from tempcoh.synthetic import SynthConfig, generate_dataset
from tempcoh.training import evaluate


def make_seq(rng, video_id="vid", frames=20, dim=3, labeled=True):
    labels = rng.integers(0, 4, size=frames).astype(np.int32) if labeled else None
    return FrameSequence(video_id, rng.normal(size=(frames, dim)).astype(np.float32),
                         5.0, labels)


# ----------------------------------------------------------- FrameSequence

LABELS_RULE = "video 'v': labels must be integers in [0, 2147483647]"


@pytest.mark.parametrize("frames,fps,labels,problem", [
    (0, 5.0, None, "features"),
    (2, 0.0, None, "fps"),
    (2, 5.0, np.zeros(3, dtype=np.int32), "one entry per frame"),
    # Past int32 a label used to wrap to a wrong phase id, 2**32 + 1 to 1.
    (2, 5.0, np.array([2**32 + 1, 0]), LABELS_RULE),
    (2, 5.0, np.array([2**31, 0]), LABELS_RULE),
    (2, 5.0, [0, 2**64], LABELS_RULE),
    (2, 5.0, np.array([-1, 0]), LABELS_RULE),
    # A float or bool label used to be cast to an int32 phase id.
    (2, 5.0, np.array([0.0, 1.0]), LABELS_RULE),
    (2, 5.0, np.array([True, False]), LABELS_RULE),
], ids=["no-frames", "zero-fps", "labels-per-frame", "label-past-int32",
        "label-2**31", "label-past-uint64", "negative-label", "float-labels",
        "bool-labels"])
def test_frame_sequence_validation(frames, fps, labels, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        FrameSequence("v", np.zeros((frames, 3), dtype=np.float32), fps, labels)


@pytest.mark.parametrize("labels", [
    np.array([0, 2**31 - 1]), np.array([3, 0], dtype=np.uint8), [1, 0],
    np.array([2, 1], dtype=np.int32)])
def test_frame_sequence_takes_every_label_int32_holds(labels):
    seq = FrameSequence("v", np.zeros((2, 3), dtype=np.float32), 5.0, labels)
    assert seq.labels.dtype == np.int32
    assert seq.labels.tolist() == np.asarray(labels).tolist()


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_frame_sequence_refuses_an_fps_that_is_not_finite_and_positive(fps):
    with pytest.raises(ValueError, match="fps"):
        FrameSequence("v", np.zeros((2, 3), dtype=np.float32), fps)


@pytest.mark.parametrize("shape", [(2, 0), (0, 0), (3,), (1, 2, 3)],
                         ids=["zero-width", "zero-by-zero", "1-d", "3-d"])
def test_frame_sequence_refuses_features_that_are_not_a_non_empty_matrix(shape):
    with pytest.raises(ValueError, match="features"):
        FrameSequence("v", np.zeros(shape, dtype=np.float32), 5.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_frame_sequence_refuses_non_finite_features(value):
    # 1e39 is beyond float32 and becomes inf in the cast.
    features = np.zeros((2, 3))
    features[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        FrameSequence("v", features, 5.0)


# ---------------------------------------------------------------- features

def test_features_round_trip_bit_identical(tmp_path, rng):
    seq = make_seq(rng, "video_xyz", labeled=False)
    path = tmp_path / "a.feat"
    save_features(path, seq)
    loaded = load_features(path)
    assert loaded.video_id == "video_xyz"
    assert loaded.fps == 5.0
    assert loaded.features.tobytes() == seq.features.tobytes()
    assert loaded.labels is None


def test_feature_file_layout_matches_documented_format(tmp_path, rng):
    # Independent struct-level parse of the writer's bytes.
    seq = FrameSequence("ab", np.array([[1.5, -2.0]], dtype=np.float32), 5.0)
    path = tmp_path / "x.feat"
    save_features(path, seq)
    raw = path.read_bytes()
    assert raw[:4] == b"TCSL"
    version, = struct.unpack_from("<H", raw, 4)
    assert version == 1
    id_len, = struct.unpack_from("<I", raw, 6)
    assert id_len == 2 and raw[10:12] == b"ab"
    frames, dim, fps = struct.unpack_from("<IIf", raw, 12)
    assert (frames, dim, fps) == (1, 2, 5.0)
    values = struct.unpack_from("<2f", raw, 24)
    assert values == (1.5, -2.0)
    assert len(raw) == 24 + 8


def test_independently_written_feature_file_loads(tmp_path):
    payload = np.array([[0.25, 0.5, 1.0], [2.0, 4.0, 8.0]], dtype="<f4")
    raw = (b"TCSL" + struct.pack("<H", 1)
           + struct.pack("<I", 3) + b"ext"
           + struct.pack("<IIf", 2, 3, 2.5)
           + payload.tobytes())
    path = tmp_path / "ext.feat"
    path.write_bytes(raw)
    seq = load_features(path)
    assert seq.video_id == "ext" and seq.fps == 2.5
    assert np.array_equal(seq.features, payload)


def test_truncated_feature_file_reports_byte_offset(tmp_path, rng):
    seq = make_seq(rng, frames=4, dim=2, labeled=False)
    path = tmp_path / "t.feat"
    save_features(path, seq)
    raw = path.read_bytes()
    for cut in (2, 5, 9, 14, 20, len(raw) - 3):
        (tmp_path / "cut.feat").write_bytes(raw[:cut])
        with pytest.raises(DataFormatError, match="offset") as err:
            load_features(tmp_path / "cut.feat")
        assert str(cut) in str(err.value) or "truncated" in str(err.value)


def test_trailing_bytes_rejected(tmp_path, rng):
    seq = make_seq(rng, labeled=False)
    path = tmp_path / "t.feat"
    save_features(path, seq)
    path.write_bytes(path.read_bytes() + b"JUNK")
    with pytest.raises(DataFormatError, match="trailing"):
        load_features(path)


def test_bad_magic_and_version_rejected(tmp_path, rng):
    seq = make_seq(rng, labeled=False)
    path = tmp_path / "t.feat"
    save_features(path, seq)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataFormatError, match="magic"):
        load_features(bad)
    raw[4:6] = struct.pack("<H", 9)
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        load_features(bad)


def test_non_finite_features_rejected_both_ways(tmp_path, rng):
    seq = make_seq(rng, frames=2, dim=2, labeled=False)
    seq.features[1, 1] = np.nan
    with pytest.raises(DataFormatError, match="non-finite"):
        save_features(tmp_path / "nan.feat", seq)
    # Craft a file whose payload holds an infinity.
    payload = np.array([[1.0, np.inf]], dtype="<f4")
    raw = (b"TCSL" + struct.pack("<H", 1) + struct.pack("<I", 1) + b"v"
           + struct.pack("<IIf", 1, 2, 5.0) + payload.tobytes())
    (tmp_path / "inf.feat").write_bytes(raw)
    with pytest.raises(DataFormatError, match="non-finite"):
        load_features(tmp_path / "inf.feat")


def test_failed_write_leaves_no_file(tmp_path):
    target = tmp_path / "out.bin"

    def boom(f):
        f.write(b"part")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        dio._atomic_write(target, boom)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_old_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    dio.atomic_write_bytes(target, b"old")

    def boom(f):
        f.write(b"part")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        dio._atomic_write(target, boom)
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]


def test_overlapping_writers_of_one_path_use_their_own_temp_files(tmp_path):
    # A second writer runs to completion while the first is mid-write; with
    # a shared temp name it would take over the first writer's file.
    target = tmp_path / "out.bin"

    def outer(f):
        f.write(b"outer")
        dio.atomic_write_bytes(target, b"inner")

    dio._atomic_write(target, outer)
    assert target.read_bytes() == b"outer"
    assert list(tmp_path.iterdir()) == [target]


# A write that would not change its target leaves the target in place.

def test_writing_the_same_bytes_twice_keeps_the_file(tmp_path):
    target = tmp_path / "out.bin"
    dio.atomic_write_bytes(target, b"same")
    before = target.stat()
    dio.atomic_write_bytes(target, b"same")
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_bytes() == b"same"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("old,new", [(b"abcd", b"abce"), (b"abcd", b"abc"),
                                     (b"", b"x")],
                         ids=["same-size", "shorter", "from-empty"])
def test_writing_other_bytes_replaces_the_file(tmp_path, old, new):
    target = tmp_path / "out.bin"
    dio.atomic_write_bytes(target, old)
    before = target.stat().st_ino
    dio.atomic_write_bytes(target, new)
    assert target.read_bytes() == new
    assert target.stat().st_ino != before
    assert list(tmp_path.iterdir()) == [target]


def test_large_writes_compare_past_the_first_block(tmp_path):
    # The comparison reads a block at a time; the difference lies past the
    # first block.
    target = tmp_path / "out.bin"
    data = bytes(300_000)
    dio.atomic_write_bytes(target, data)
    same = target.stat().st_ino
    dio.atomic_write_bytes(target, data)
    assert target.stat().st_ino == same
    dio.atomic_write_bytes(target, data[:-1] + b"\1")
    assert target.stat().st_ino != same
    assert target.read_bytes() == data[:-1] + b"\1"


def test_a_symlink_to_the_same_bytes_is_replaced_by_a_file(tmp_path):
    source = tmp_path / "source.bin"
    source.write_bytes(b"same")
    before = source.stat()
    link = tmp_path / "link.bin"
    link.symlink_to(source)
    dio.atomic_write_bytes(link, b"same")
    assert not link.is_symlink() and link.read_bytes() == b"same"
    after = source.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert source.read_bytes() == b"same"
    assert link.stat().st_ino != source.stat().st_ino
    assert sorted(tmp_path.iterdir()) == [link, source]


def test_a_directory_target_still_raises(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        dio.atomic_write_bytes(target, b"data")
    assert target.is_dir() and list(target.iterdir()) == []
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("written", [b"same", b"so"], ids=["same", "prefix"])
def test_a_failed_write_over_the_same_bytes_leaves_the_file(tmp_path, written):
    target = tmp_path / "out.bin"
    dio.atomic_write_bytes(target, b"same")
    before = target.stat()

    def boom(f):
        f.write(written)
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        dio._atomic_write(target, boom)
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_bytes() == b"same"
    assert list(tmp_path.iterdir()) == [target]


# ------------------------------------------------------------------ labels

@pytest.mark.parametrize("labels", [np.zeros((2, 3), np.int32), np.int32(1)],
                         ids=["2-d", "0-d"])
def test_save_labels_refuses_labels_that_are_not_one_dimensional(tmp_path,
                                                                 labels):
    with pytest.raises(ValueError, match="labels must be one-dimensional"):
        save_labels(tmp_path / "x.labels.csv", labels)
    assert list(tmp_path.iterdir()) == []


def test_labels_round_trip(tmp_path, rng):
    labels = rng.integers(0, 7, size=30).astype(np.int32)
    path = tmp_path / "l.csv"
    save_labels(path, labels)
    text = path.read_text()
    assert text.startswith("frame_index,phase_id\n0,")
    assert np.array_equal(load_labels(path, expected_frames=30), labels)


def test_empty_and_header_only_label_files_mean_absent(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("")
    assert load_labels(path) is None
    path.write_text("frame_index,phase_id\n")
    assert load_labels(path) is None


@pytest.mark.parametrize("content,problem", [
    ("phase,frame\n0,1\n", "first line"),
    ("frame_index,phase_id\n0,1,2\n", "expected"),
    ("frame_index,phase_id\nzero,1\n", "non-integer"),
    ("frame_index,phase_id\n1,0\n", "out of order"),
    ("frame_index,phase_id\n0,-2\n", "negative"),
    # Only what `save_labels` writes: ASCII digits, no sign, no leading zero,
    # no underscore, no padding.
    ("frame_index,phase_id\n0,1_0\n", "non-integer"),
    ("frame_index,phase_id\n\u0660,\u0663\n", "non-integer"),
    ("frame_index,phase_id\n 0 , +2 \n", "non-integer"),
    ("frame_index,phase_id\n0,+2\n", "non-integer"),
    ("frame_index,phase_id\n0,1 \n", "non-integer"),
    ("frame_index,phase_id\n-0,1\n", "non-integer"),
    ("frame_index,phase_id\n00,1\n", "non-integer"),
    ("frame_index,phase_id\n0,007\n", "non-integer"),
    ("frame_index,phase_id\n0,-0\n", "non-integer"),
    # Over-long fields are reported without quoting the whole line.
    pytest.param("frame_index,phase_id\n0," + "9" * 5000 + "\n",
                 "phase id above 2147483647", id="huge-phase"),
    pytest.param("frame_index,phase_id\n0,-" + "9" * 5000 + "\n", "negative",
                 id="huge-negative"),
    pytest.param("frame_index,phase_id\n" + "9" * 5000 + ",1\n", "out of order",
                 id="huge-index"),
    pytest.param("frame_index,phase_id\n0,x" + "9" * 5000 + "\n", "non-integer",
                 id="huge-word"),
    pytest.param("frame_index,phase_id\n0,1," + "9" * 5000 + "\n", "expected",
                 id="huge-extra-field"),
])
def test_malformed_labels_rejected(tmp_path, content, problem):
    path = tmp_path / "l.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataFormatError, match=problem) as err:
        load_labels(path)
    assert str(path) in str(err.value)
    assert len(str(err.value)) < len(str(path)) + 200


@pytest.mark.parametrize("phase", [2**31, 2**63], ids=["2**31", "2**63"])
def test_label_phase_id_beyond_int32_names_file_and_line(tmp_path, phase):
    path = tmp_path / "l.csv"
    path.write_text(f"frame_index,phase_id\n0,1\n1,{phase}\n")
    with pytest.raises(DataFormatError, match="line 3: phase id above") as err:
        load_labels(path)
    assert str(path) in str(err.value)


def test_label_phase_id_at_int32_max_loads(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text(f"frame_index,phase_id\n0,{2**31 - 1}\n")
    assert load_labels(path).tolist() == [2**31 - 1]


def test_dataset_with_huge_phase_id_names_the_labels_file(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    path = root / f"{dataset.videos[0].video_id}.feat.labels.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0,99999999999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="line 2: phase id above") as err:
        load_dataset(root)
    assert str(path) in str(err.value)


def test_dataset_label_at_or_above_num_phases_names_the_labels_file(tmp_path,
                                                                   rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    path = root / f"{dataset.videos[0].video_id}.feat.labels.csv"
    lines = path.read_text().splitlines()
    lines[1] = f"0,{dataset.num_phases}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError,
                       match=f"phase id {dataset.num_phases} >= num_phases "
                             f"{dataset.num_phases}") as err:
        load_dataset(root)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("text", ["frame_index,phase_id\n", ""],
                         ids=["header-only", "empty"])
def test_dataset_labels_file_without_rows_names_the_file(tmp_path, rng, text):
    # `load_labels` reads such a file as no labels, but the manifest says
    # the video has them.
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    first = dataset.videos[0]
    path = root / f"{first.video_id}.feat.labels.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: 0 label "
                       f"rows for {first.num_frames} frames$"):
        load_dataset(root)


@pytest.mark.parametrize("text", ["[]", "7", "null", '"dataset"'])
def test_dataset_manifest_not_an_object_names_the_manifest(tmp_path, rng, text):
    root = tmp_path / "data"
    save_dataset(root, generate_dataset(SynthConfig(min_duration=5,
                                                    max_duration=9), 4, rng))
    (root / "dataset.json").write_text(text)
    with pytest.raises(DataFormatError, match="not a dataset manifest") as err:
        load_dataset(root)
    assert str(root / "dataset.json") in str(err.value)


def test_label_row_count_checked(tmp_path):
    path = tmp_path / "l.csv"
    save_labels(path, np.array([0, 1, 2]))
    with pytest.raises(DataFormatError, match="label rows"):
        load_labels(path, expected_frames=5)


def test_write_video_round_trip_with_labels(tmp_path, rng):
    seq = make_seq(rng, "withlabels")
    path = tmp_path / "v.feat"
    write_video(path, seq)
    assert labels_path_for(path).name == "v.feat.labels.csv"
    loaded = load_features(path)
    assert loaded.features.tobytes() == seq.features.tobytes()
    labels = load_labels(labels_path_for(path), loaded.num_frames)
    assert np.array_equal(labels, seq.labels)


def test_write_video_removes_stale_sidecar(tmp_path, rng):
    path = tmp_path / "v.feat"
    write_video(path, make_seq(rng, labeled=True))
    assert labels_path_for(path).exists()
    unlabeled = make_seq(rng, labeled=False)
    write_video(path, unlabeled)
    assert not labels_path_for(path).exists()
    assert load_features(path).features.tobytes() == unlabeled.features.tobytes()


# ------------------------------------------------------------------ splits

def test_splits_round_trip(tmp_path):
    splits = {"v1": "A", "v2": "D", "v3": "B"}
    path = tmp_path / "splits.txt"
    save_splits(path, splits)
    assert load_splits(path) == splits


@pytest.mark.parametrize("content,problem", [
    ("v1,A\nv1,B\n", "duplicate"),
    ("v1,E\n", "unknown split"),
    ("v1\n", "expected"),
    ("", "no split"),
])
def test_malformed_splits_rejected(tmp_path, content, problem):
    path = tmp_path / "splits.txt"
    path.write_text(content)
    with pytest.raises(DataFormatError, match=problem):
        load_splits(path)


# ----------------------------------------------------------------- dataset

def test_dataset_round_trip(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 5, rng)
    save_dataset(tmp_path / "data", dataset)
    loaded = load_dataset(tmp_path / "data")
    assert loaded.num_phases == dataset.num_phases
    assert loaded.fps == dataset.fps
    assert loaded.splits == dataset.splits
    assert len(loaded.videos) == 5
    for orig, back in zip(dataset.videos, loaded.videos):
        assert back.video_id == orig.video_id
        assert back.features.tobytes() == orig.features.tobytes()
        assert np.array_equal(back.labels, orig.labels)


def test_save_dataset_returns_exactly_the_files_it_wrote(tmp_path, rng):
    ids = ["v0", "v1", "v2", "v3"]
    videos = [make_seq(rng, vid, frames=6, labeled=vid != "v1") for vid in ids]
    root = tmp_path / "data"
    written = save_dataset(root, Dataset(videos, dict(zip(ids, "ABCD")), 4, 5.0))
    assert written == [root / "dataset.json", root / "splits.txt",
                       root / "v0.feat", root / "v0.feat.labels.csv",
                       root / "v1.feat",
                       root / "v2.feat", root / "v2.feat.labels.csv",
                       root / "v3.feat", root / "v3.feat.labels.csv"]
    assert sorted(root.iterdir()) == sorted(written)


def test_dataset_manifest_cross_checks(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    good = json.loads(manifest_path.read_text())

    def corrupt(mutate, problem):
        bad = json.loads(manifest_path.read_text())
        mutate(bad)
        manifest_path.write_text(json.dumps(bad))
        with pytest.raises(DataFormatError, match=problem):
            load_dataset(root)
        manifest_path.write_text(json.dumps(good))

    corrupt(lambda m: m.__setitem__("format", "other"),
            "format must be 'tempcoh-dataset', got 'other'")
    corrupt(lambda m: m.__setitem__("version", 2), "version")
    corrupt(lambda m: m.__setitem__("version", True),
            "version must be 1, got True")
    corrupt(lambda m: m.pop("fps"), "fps is missing")
    corrupt(lambda m: m["videos"][0].__setitem__("num_frames", 1), "frames")
    corrupt(lambda m: m.__setitem__("feature_dim", 9), "feature dim")
    corrupt(lambda m: m.__setitem__("fps", 30.0), "fps")
    corrupt(lambda m: m.__setitem__("num_phases", 1), "num_phases")
    # The dataset's ids against each other and against the splits file.
    corrupt(lambda m: m["videos"].__setitem__(1, m["videos"][0]),
            f"^{manifest_path}: duplicate video id 'video_000'$")
    corrupt(lambda m: m["videos"].pop(),
            f"^{manifest_path}: splits must assign exactly the dataset's "
            f"video ids; 'video_003' is not a video$")
    splits_path = root / good["splits_file"]
    splits = splits_path.read_text()
    splits_path.write_text(splits.replace("video_001,", "video_099,"))
    corrupt(lambda m: None, f"^{manifest_path}: splits must assign exactly "
            f"the dataset's video ids; 'video_001' is not in splits$")
    splits_path.write_text(splits)
    manifest_path.unlink()
    with pytest.raises(DataFormatError, match="not found"):
        load_dataset(root)


def _outside_features(root, manifest):
    # A valid copy of the dataset next to it, so only the path check stops
    # the read.
    save_dataset(root.parent / "ds", load_dataset(root))
    manifest["videos"][0]["features"] = f"../ds/{manifest['videos'][0]['features']}"


def _symlinked_member(doc_of, key):
    """An edit that points `doc_of(manifest)[key]` at a symlink inside the
    dataset directory to that member's file in a valid copy next to it."""
    def edit(root, manifest):
        save_dataset(root.parent / "ds", load_dataset(root))
        doc = doc_of(manifest)
        link = root / f"link-{key}"
        link.symlink_to(root.parent / "ds" / doc[key])
        doc[key] = link.name
    return edit


@pytest.mark.parametrize("edit,problem", [
    (lambda root, m: m.__setitem__("num_phases", "seven"), "num_phases must be"),
    (lambda root, m: m["videos"][0].pop("video_id"),
     r"videos\[0\]\.video_id is missing"),
    (_outside_features, "outside the dataset directory"),
    (lambda root, m: m["videos"][1].__setitem__(
        "labels", str(root / m["videos"][1]["labels"])),
     "outside the dataset directory"),
    (_symlinked_member(lambda m: m["videos"][0], "features"),
     r"videos\[0\]\.features 'link-features' points outside the dataset "
     r"directory"),
    (_symlinked_member(lambda m: m, "splits_file"),
     "splits_file 'link-splits_file' points outside the dataset directory"),
    (lambda root, m: m["videos"].append(dict(m["videos"][0])), "duplicate video"),
], ids=["non-numeric-num_phases", "video-without-id", "features-outside",
        "absolute-labels-path", "symlinked-features", "symlinked-splits-file",
        "duplicate-video"])
def test_dataset_manifest_errors_name_the_manifest(tmp_path, rng, edit, problem):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    edit(root, manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=problem) as err:
        load_dataset(root)
    assert str(manifest_path) in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("fps", float("nan")), ("fps", float("inf")), ("fps", 0), ("fps", -1.0),
    ("fps", "5"), ("fps", True), ("fps", None),
    pytest.param("fps", 10**400, id="fps-10**400"),
    ("num_phases", 7.9), ("num_phases", 7.0), ("num_phases", "4"),
    ("num_phases", True), ("num_phases", 1), ("num_phases", None),
    ("num_phases", 2**31 + 1), ("num_phases", 2**36), ("num_phases", 10**4000),
    ("feature_dim", 4.0), ("feature_dim", "4"), ("feature_dim", True),
    ("feature_dim", 0)])
def test_dataset_manifest_numbers_must_have_their_json_type(tmp_path, rng, key,
                                                            value):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=f"{key} must be") as err:
        load_dataset(root)
    assert str(manifest_path) in str(err.value)
    assert len(str(err.value)) < len(str(manifest_path)) + 200


def test_dataset_manifest_integer_fps_loads_as_float(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4, fps=5.0), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["fps"] = 5
    manifest_path.write_text(json.dumps(manifest))
    fps = load_dataset(root).fps
    assert fps == 5.0 and isinstance(fps, float)


def test_dataset_manifest_num_phases_of_every_int32_label_loads(tmp_path, rng):
    # int32 labels name phases 0 .. PHASE_ID_MAX, so PHASE_ID_MAX + 1 = 2**31
    # phases is the most a manifest may declare; 2**31 + 1 is refused in
    # test_dataset_manifest_numbers_must_have_their_json_type. Loading
    # allocates nothing per phase.
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["num_phases"] = 2**31
    manifest_path.write_text(json.dumps(manifest))
    assert load_dataset(root).num_phases == dio.PHASE_ID_MAX + 1 == 2**31


def test_dataset_manifest_over_long_integer_names_the_manifest(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["num_phases"] = "HUGE"
    manifest_path.write_text(json.dumps(manifest).replace('"HUGE"', "9" * 5000))
    with pytest.raises(DataFormatError, match="invalid JSON") as err:
        load_dataset(root)
    assert str(manifest_path) in str(err.value)


@pytest.mark.parametrize("name", ["dataset.json", "splits.txt", "labels"])
def test_dataset_text_file_not_utf8_is_named(tmp_path, rng, name):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    if name == "labels":
        name = f"{dataset.videos[0].video_id}.feat.labels.csv"
    path = root / name
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(DataFormatError, match="not valid UTF-8") as err:
        load_dataset(root)
    assert str(path) in str(err.value)


def test_dataset_rejects_wrong_video_id_in_file(tmp_path, rng):
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4, rng)
    root = tmp_path / "data"
    save_dataset(root, dataset)
    first = dataset.videos[0]
    imposter = FrameSequence("smuggled", first.features, dataset.fps, first.labels)
    save_features(root / f"{first.video_id}.feat", imposter)
    with pytest.raises(DataFormatError, match="manifest names"):
        load_dataset(root)


def test_dataset_type_validation():
    seq = FrameSequence("a", np.zeros((2, 2), dtype=np.float32), 5.0)
    with pytest.raises(ValueError, match="splits"):
        Dataset([seq], {"b": "A"}, 2, 5.0)
    with pytest.raises(ValueError, match="unknown split"):
        Dataset([seq], {"a": "Z"}, 2, 5.0)
    data = Dataset([seq], {"a": "B"}, 2, 5.0)
    assert data.split("B") == [seq]
    with pytest.raises(DataFormatError, match="^dataset: split 'A' holds no "
                       "videos$"):
        data.split("A")
    with pytest.raises(ValueError):
        data.split("Q")
    with pytest.raises(KeyError):
        data.by_id("missing")
    # `labeled_split` refuses what `split` refuses, and a video without labels.
    with pytest.raises(DataFormatError, match="^dataset: split 'A' holds no "
                       "videos$"):
        data.labeled_split("A")
    with pytest.raises(DataFormatError, match="^dataset: video 'a' in split "
                       "'AB' has no labels$"):
        data.labeled_split("A", "B")
    labeled = FrameSequence("c", np.zeros((2, 2), dtype=np.float32), 5.0,
                            np.zeros(2, dtype=np.int32))
    data = Dataset([seq, labeled], {"a": "B", "c": "D"}, 2, 5.0)
    assert data.labeled_split("D") == [labeled]


def _dataset_with_id(rng, video_id):
    ids = ["v0", video_id, "v2", "v3"]
    return Dataset([make_seq(rng, vid, frames=6) for vid in ids],
                   dict(zip(ids, "ABCD")), 4, 5.0)


@pytest.mark.parametrize("video_id", [
    "", " v1", "v1 ", "\tv1", "v1\u3000", "a,b", "a\nb", "v1\n", "a\rb",
    "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "sub/x", "../escaped", "a\0b",
    "{tmp}/escaped", "a\ud800b", "x" * 300, "x" * 219, "\u00e9" * 110,
], ids=["empty", "leading-space", "trailing-space", "leading-tab",
        "trailing-ideographic-space", "comma", "newline", "trailing-newline",
        "carriage-return", "vertical-tab", "file-separator", "next-line",
        "line-separator", "slash", "parent", "nul", "absolute",
        "lone-surrogate", "300-bytes", "219-bytes", "220-utf8-bytes"])
def test_save_dataset_refuses_ids_that_cannot_round_trip(tmp_path, rng, video_id):
    video_id = video_id.replace("{tmp}", str(tmp_path))
    with pytest.raises(DataFormatError, match="video id") as err:
        save_dataset(tmp_path / "data", _dataset_with_id(rng, video_id))
    assert repr(video_id) in str(err.value)
    # Checked before anything is written, the dataset directory included.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("video_id", ["v 1", "vid\u00e9o", "..", "a;b", "#1",
                                      "x" * 218, "\u00e9" * 109])
def test_save_dataset_unusual_ids_round_trip(tmp_path, rng, video_id):
    dataset = _dataset_with_id(rng, video_id)
    save_dataset(tmp_path / "data", dataset)
    loaded = load_dataset(tmp_path / "data")
    assert [v.video_id for v in loaded.videos] == ["v0", video_id, "v2", "v3"]
    assert loaded.splits == dataset.splits


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0, -5.0, 1e300,
                                 1000.1],
                         ids=["nan", "inf", "zero", "negative", "beyond-float32",
                              "float32-off-by-more-than-1e-5"])
def test_save_dataset_refuses_an_fps_load_dataset_would_refuse(tmp_path, rng, fps):
    # The feature files hold the fps as float32: 1000.1 comes back
    # 2.4e-5 away, and 1e300 does not fit.
    dataset = _dataset_with_id(rng, "v1")
    dataset.fps = fps
    with pytest.raises(DataFormatError, match="fps") as err:
        save_dataset(tmp_path / "data", dataset)
    assert repr(fps) in str(err.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fps", [0.2, 25.0, 255.3])
def test_save_dataset_fps_within_float32_round_trips(tmp_path, rng, fps):
    dataset = _dataset_with_id(rng, "v1")
    dataset.fps = fps
    for seq in dataset.videos:
        seq.fps = fps
    save_dataset(tmp_path / "data", dataset)
    assert load_dataset(tmp_path / "data").fps == fps


@pytest.mark.parametrize("num_phases", [1, 0, 2**31 + 1, 4.0, True],
                         ids=["one", "zero", "past-int32-labels", "float", "bool"])
def test_save_dataset_refuses_a_num_phases_load_dataset_would_refuse(tmp_path, rng,
                                                                     num_phases):
    dataset = _dataset_with_id(rng, "v1")
    dataset.num_phases = num_phases
    with pytest.raises(DataFormatError, match=re.escape(
            f"refusing to write dataset: num_phases must be an integer in "
            f"[2, 2147483648], got {num_phases!r}")):
        save_dataset(tmp_path / "data", dataset)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label", [-1, 4, 99])
def test_save_dataset_refuses_labels_load_dataset_would_refuse(tmp_path, rng,
                                                               label):
    # `make_seq` labels lie in [0, 4), and the dataset has 4 phases.
    dataset = _dataset_with_id(rng, "v1")
    dataset.videos[2].labels[3] = label
    with pytest.raises(DataFormatError, match=re.escape(
            f"refusing to write dataset: video 'v2' has phase id {label}, "
            f"outside [0, 4)")):
        save_dataset(tmp_path / "data", dataset)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_save_dataset_refuses_non_finite_features_before_writing(tmp_path, rng,
                                                                 value):
    dataset = _dataset_with_id(rng, "v1")
    dataset.videos[2].features[1, 1] = value
    with pytest.raises(DataFormatError, match=re.escape(
            "refusing to write dataset: video 'v2' has non-finite features")):
        save_dataset(tmp_path / "data", dataset)
    assert list(tmp_path.iterdir()) == []


def _clear_videos(dataset):
    dataset.videos.clear()
    dataset.splits.clear()


def _v3_off_128_fps_as_float32(dataset):
    # 128.000009 lies within 1e-5 of 128, but its feature file would hold
    # the float32 128.0000153.
    dataset.fps = 128.0
    for v in dataset.videos:
        v.fps = 128.000009 if v.video_id == "v3" else 128.0


@pytest.mark.parametrize("edit,problem", [
    (lambda d: setattr(d.videos[2], "fps", 25.0),
     "video 'v2' has fps 25.0, the dataset 5.0"),
    (_v3_off_128_fps_as_float32,
     "video 'v3' has fps 128.000009, the dataset 128.0"),
    (lambda d: setattr(d.videos[1], "features", np.zeros((6, 5), np.float32)),
     "video 'v1' has feature dim 5, the dataset 3"),
    (lambda d: d.videos[2].labels.__setitem__(3, 4),
     "video 'v2' has phase id 4, outside [0, 4)"),
    (lambda d: d.videos[0].labels.__setitem__(0, -1),
     "video 'v0' has phase id -1, outside [0, 4)"),
    (lambda d: setattr(d, "num_phases", 1),
     "num_phases must be an integer in [2, 2147483648], got 1"),
    (lambda d: setattr(d, "fps", float("nan")),
     "fps must be a finite positive number that float32 holds to within "
     "1e-05, got nan"),
    (_clear_videos, "a dataset needs at least one video"),
], ids=["fps-disagreement", "fps-disagreement-as-float32", "width-disagreement",
        "label-at-num-phases", "negative-label", "one-phase", "nan-fps",
        "no-videos"])
def test_dataset_refuses_what_load_dataset_would_refuse(tmp_path, rng, edit,
                                                        problem):
    # A Dataset refuses it when built, and save_dataset refuses it, in the
    # same words, in a Dataset changed after it was built.
    dataset = _dataset_with_id(rng, "v1")
    edit(dataset)
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        Dataset(dataset.videos, dataset.splits, dataset.num_phases, dataset.fps)
    refusal = re.escape(f"refusing to write dataset: {problem}")
    with pytest.raises(DataFormatError, match=f"^{refusal}$"):
        save_dataset(tmp_path / "data", dataset)
    assert list(tmp_path.iterdir()) == []


FPS_RULE = ("fps must be a finite positive number that float32 holds to "
            "within 1e-05, got 1000.1")
PHASE_COUNT_RULE = "num_phases must be an integer in [2, 2147483648], got 1"


def _saved_manifest_with(tmp_path, rng, key, value):
    """The path of a saved dataset's manifest, once `key` is set to `value`."""
    root = tmp_path / "data"
    save_dataset(root, _dataset_with_id(rng, "v1"))
    manifest_path = root / "dataset.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    return manifest_path


def test_every_site_refuses_an_fps_in_the_words_of_check_fps(tmp_path, rng):
    for build in (lambda: FrameSequence("v", np.zeros((2, 3)), 1000.1),
                  lambda: SynthConfig(fps=1000.1),
                  lambda: SamplerConfig(fps=1000.1)):
        with pytest.raises(ValueError, match=f"^{re.escape(FPS_RULE)}$"):
            build()
    dataset = _dataset_with_id(rng, "v1")
    dataset.fps = 1000.1
    with pytest.raises(DataFormatError, match=re.escape(
            f"refusing to write dataset: {FPS_RULE}")):
        save_dataset(tmp_path / "out", dataset)
    manifest_path = _saved_manifest_with(tmp_path, rng, "fps", 1000.1)
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(f'{manifest_path}: {FPS_RULE}')}$"):
        load_dataset(manifest_path.parent)


def test_every_site_refuses_a_phase_count_in_the_words_of_check_num_phases(
        tmp_path, rng):
    with pytest.raises(ValueError, match=f"^{re.escape(PHASE_COUNT_RULE)}$"):
        SynthConfig(num_phases=1)
    dataset = _dataset_with_id(rng, "v1")
    dataset.num_phases = 1
    with pytest.raises(DataFormatError, match=re.escape(
            f"refusing to write dataset: {PHASE_COUNT_RULE}")):
        save_dataset(tmp_path / "out", dataset)
    manifest_path = _saved_manifest_with(tmp_path, rng, "num_phases", 1)
    with pytest.raises(DataFormatError, match=re.escape(
            f"{manifest_path}: {PHASE_COUNT_RULE}")):
        load_dataset(manifest_path.parent)


@pytest.mark.parametrize("fps", [1e-3, 5.0, 29.97, 255.3, 1000.0, 2.0**100])
def test_check_fps_takes_what_float32_holds(fps):
    dio.check_fps(fps)


@pytest.mark.parametrize("num_phases", [2, 7, 2**31])
def test_check_num_phases_takes_every_count_int32_labels_can_name(num_phases):
    dio.check_num_phases(num_phases)


# --------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path, rng):
    params = {"b": rng.normal(size=(2, 3)).astype(np.float32),
              "a": rng.normal(size=4).astype(np.float32),
              "scalar": np.float32(1.5) * np.ones((), dtype=np.float32)}
    meta = {"kind": "test", "nested": {"x": 1}}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, "encoder", params, meta)
    kind, loaded, metadata = load_checkpoint(path)
    assert kind == "encoder" and metadata == meta
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])
        assert loaded[name].shape == params[name].shape


def test_checkpoint_writes_are_insertion_order_independent(tmp_path, rng):
    a = rng.normal(size=3).astype(np.float32)
    b = rng.normal(size=2).astype(np.float32)
    save_checkpoint(tmp_path / "1.bin", "k", {"a": a, "b": b}, {})
    save_checkpoint(tmp_path / "2.bin", "k", {"b": b, "a": a}, {})
    assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()


def test_checkpoint_rejects_non_finite(tmp_path):
    with pytest.raises(CheckpointError, match="non-finite"):
        save_checkpoint(tmp_path / "ck.bin", "k",
                        {"w": np.array([1.0, np.inf], dtype=np.float32)}, {})


def test_independently_written_checkpoint_loads(tmp_path):
    data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype="<f4")
    raw = (b"TCSL" + struct.pack("<H", 1)
           + struct.pack("<I", 4) + b"kind"
           + struct.pack("<I", 1)
           + struct.pack("<I", 1) + b"w"
           + struct.pack("<I", 2) + struct.pack("<2I", 2, 2)
           + data.tobytes()
           + struct.pack("<I", 2) + b"{}")
    path = tmp_path / "ext.bin"
    path.write_bytes(raw)
    kind, params, meta = load_checkpoint(path)
    assert kind == "kind" and meta == {}
    assert np.array_equal(params["w"], data)


def _hand_written_checkpoint(params) -> bytes:
    """A checkpoint of kind "k" and metadata {} holding `params`, a list of
    (name, float32 array) pairs, written with raw struct calls."""
    raw = (b"TCSL" + struct.pack("<H", 1) + struct.pack("<I", 1) + b"k"
           + struct.pack("<I", len(params)))
    for name, arr in params:
        raw += (struct.pack("<I", len(name)) + name.encode()
                + struct.pack("<I", arr.ndim)
                + struct.pack(f"<{arr.ndim}I", *arr.shape)
                + arr.astype("<f4").tobytes())
    return raw + struct.pack("<I", 2) + b"{}"


@pytest.mark.parametrize("params,problem", [
    ([("w", np.array([1.0, np.nan]))], "parameter 'w' contains non-finite"),
    ([("w", np.array([[np.inf]]))], "parameter 'w' contains non-finite"),
    ([("w", np.ones(2)), ("w", np.zeros(2))], "duplicate parameter 'w'"),
], ids=["nan", "inf", "duplicate-name"])
def test_hand_written_checkpoint_errors_name_the_file(tmp_path, params, problem):
    path = tmp_path / "ext.bin"
    path.write_bytes(_hand_written_checkpoint(params))
    with pytest.raises(CheckpointError, match=problem) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_malformed_rejected(tmp_path, rng):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, "k", {"w": np.ones(2, dtype=np.float32)}, {"m": 1})
    raw = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(raw[:len(raw) - 4])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.bin")
    (tmp_path / "junk.bin").write_bytes(raw + b"X")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "junk.bin")
    # Excessive dimension count is rejected before any giant allocation.
    crafted = (b"TCSL" + struct.pack("<H", 1) + struct.pack("<I", 1) + b"k"
               + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
               + struct.pack("<I", 99))
    (tmp_path / "dims.bin").write_bytes(crafted)
    with pytest.raises(CheckpointError, match="dimensions"):
        load_checkpoint(tmp_path / "dims.bin")


DEPTHS = pytest.mark.parametrize("hidden", [[], [5], [5, 3]],
                                 ids=["depth0", "depth1", "depth2"])


@DEPTHS
def test_encoder_checkpoint_round_trip(tmp_path, rng, hidden):
    enc = EncoderModel.create(6, hidden, 4).init_uniform_fan(rng)
    path = tmp_path / "enc.ckpt"
    save_encoder(path, enc, {"note": "hello"})
    loaded, meta = load_encoder(path)
    assert meta["note"] == "hello"
    assert meta["layer_sizes"] == [6, *hidden, 4]
    assert "trainable" not in meta
    for name, arr in enc.parameters().items():
        assert np.array_equal(loaded.parameters()[name], arr)
    # The stored names, the parameter table and the gradients agree.
    stored = set(load_checkpoint(path)[1])
    _, cache = loaded.forward_cached(rng.normal(size=(3, 6)).astype(np.float32))
    grads = loaded.backward(cache, np.ones((3, 4), np.float32))
    assert stored == set(loaded.parameters()) == set(grads)
    assert len(stored) == 2 * (len(hidden) + 1)


@DEPTHS
def test_phase_model_checkpoint_round_trip(tmp_path, rng, hidden):
    model = PhaseModel.create(EncoderModel.create(6, hidden, 4), 3, 5)
    model.init_uniform_fan(rng)
    path = tmp_path / "pm.ckpt"
    save_phase_model(path, model, {"note": "hello"})
    loaded, meta = load_phase_model(path)
    assert meta == {"note": "hello", "encoder_layer_sizes": [6, *hidden, 4],
                    "hidden_size": 3, "num_phases": 5}
    for name, arr in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name], arr)
    stored = set(load_checkpoint(path)[1])
    logits, _, cache = loaded.forward_chunk_cached(rng.normal(size=(4, 6)),
                                                   loaded.zero_state())
    grads = loaded.backward_chunk(cache, np.ones_like(logits))
    assert stored == set(loaded.parameters()) == set(grads)
    assert len(stored) == 2 * (len(hidden) + 1) + len(PhaseModel.HEAD)


@pytest.mark.parametrize("kind", ["encoder", "phase_model"])
def test_checkpoint_with_old_freezing_mask_loads_and_trains_every_layer(
        tmp_path, rng, kind):
    # Older checkpoints carried a per-layer trainable mask in their metadata;
    # loaders ignore it like any other extra key.
    enc = EncoderModel.create(6, [5], 4).init_uniform_fan(rng)
    path = tmp_path / "old.ckpt"
    if kind == "encoder":
        save_checkpoint(path, kind, enc.parameters(),
                        {"layer_sizes": [6, 5, 4], "trainable": [False, True]})
        loaded = load_encoder(path)[0]
    else:
        model = PhaseModel.create(enc, 3, 4).init_head_uniform_fan(rng)
        save_checkpoint(path, kind, model.parameters(),
                        {"encoder_layer_sizes": [6, 5, 4],
                         "encoder_trainable": [False, True],
                         "hidden_size": 3, "num_phases": 4})
        loaded = load_phase_model(path)[0].encoder
    for name, arr in enc.parameters().items():
        assert np.array_equal(loaded.parameters()[name], arr)
    _, cache = loaded.forward_cached(rng.normal(size=(3, 6)).astype(np.float32))
    grads = loaded.backward(cache, np.ones((3, 4), np.float32))
    assert grads.keys() == loaded.parameters().keys()


def test_encoder_loader_rejects_other_kinds(tmp_path, rng):
    enc = EncoderModel.create(3, [], 2)
    model = PhaseModel.create(enc, 4, 3)
    save_phase_model(tmp_path / "pm.ckpt", model)
    with pytest.raises(CheckpointError, match="kind"):
        load_encoder(tmp_path / "pm.ckpt")
    save_encoder(tmp_path / "enc.ckpt", enc)
    with pytest.raises(CheckpointError, match="kind"):
        load_phase_model(tmp_path / "enc.ckpt")


def test_checkpoint_shape_mismatch_rejected(tmp_path, rng):
    enc = EncoderModel.create(8, [], 4).init_uniform_fan(rng)
    # Claim a different architecture in the metadata than the stored params.
    save_checkpoint(tmp_path / "bad.ckpt", "encoder", enc.parameters(),
                    {"layer_sizes": [6, 4], "trainable": [True]})
    with pytest.raises(CheckpointError, match="shape"):
        load_encoder(tmp_path / "bad.ckpt")


def test_checkpoint_missing_parameters_rejected(tmp_path, rng):
    enc = EncoderModel.create(4, [], 2).init_uniform_fan(rng)
    params = dict(enc.parameters())
    del params["encoder.0.bias"]
    save_checkpoint(tmp_path / "bad.ckpt", "encoder", params,
                    {"layer_sizes": [4, 2], "trainable": [True]})
    with pytest.raises(CheckpointError, match="missing"):
        load_encoder(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("name,shape", [
    ("encoder.0.bias", (1,)), ("encoder.0.bias", ()), ("encoder.0.weight", (6,)),
    ("encoder.1.weight", (3, 5)), ("lstm.w_hidden", (15, 5)), ("lstm.bias", ()),
    ("classifier.weight", (3,)), ("classifier.bias", (1,)),
])
def test_checkpoint_parameters_the_constructors_refuse_name_the_file(
        tmp_path, rng, name, shape):
    # A 0-d or 1-d stored parameter ends in a CheckpointError, never an
    # IndexError from reading its shape.
    enc = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 5, 3).init_head_uniform_fan(rng)
    params = dict(model.parameters(), **{name: np.zeros(shape, np.float32)})
    path = tmp_path / "ck.ckpt"
    save_checkpoint(path, "phase_model", params, {
        "encoder_layer_sizes": [4, 6, 3], "hidden_size": 5, "num_phases": 3})
    with pytest.raises(CheckpointError) as err:
        load_phase_model(path)
    assert str(path) in str(err.value)


def _edited_checkpoint(path, rng, loader, edit):
    """Save a small encoder or phase model, then rewrite its metadata."""
    enc = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    if loader is load_encoder:
        save_encoder(path, enc)
    else:
        save_phase_model(path, PhaseModel.create(enc, 5, 3).init_head_uniform_fan(rng))
    kind, params, metadata = load_checkpoint(path)
    save_checkpoint(path, kind, params, edit(metadata))


def _set(key, value):
    def edit(metadata):
        metadata[key] = value
        return metadata
    return edit


def _set_first_size(value):
    def edit(metadata):
        key = "layer_sizes" if "layer_sizes" in metadata else "encoder_layer_sizes"
        metadata[key][0] = value
        return metadata
    return edit


@pytest.mark.parametrize("loader", [load_encoder, load_phase_model],
                         ids=["encoder", "phase_model"])
def test_checkpoint_metadata_not_an_object_names_the_file(tmp_path, rng, loader):
    path = tmp_path / "ck.ckpt"
    _edited_checkpoint(path, rng, loader, lambda metadata: [metadata])
    with pytest.raises(CheckpointError, match="not a JSON object") as err:
        loader(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("loader", [load_encoder, load_phase_model],
                         ids=["encoder", "phase_model"])
@pytest.mark.parametrize("size", ["four", 4.0, True, None])
def test_checkpoint_non_integer_layer_size_names_the_file(tmp_path, rng, loader, size):
    path = tmp_path / "ck.ckpt"
    _edited_checkpoint(path, rng, loader, _set_first_size(size))
    with pytest.raises(CheckpointError, match="layer_sizes must be a list of "
                       "at least two integers >= 1") as err:
        loader(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("loader,edit,what", [
    (load_encoder, _set_first_size(0), r"metadata\.layer_sizes must be a list "
     r"of at least two integers >= 1, got \[0, 6, 3\]"),
    (load_phase_model, _set_first_size(0), r"metadata\.encoder_layer_sizes must "
     r"be a list of at least two integers >= 1, got \[0, 6, 3\]"),
    (load_phase_model, _set("hidden_size", 0), "hidden_size"),
    (load_phase_model, _set("num_phases", 1), "num_phases")],
    ids=["encoder-layer", "phase-layer", "hidden", "phases"])
def test_checkpoint_size_below_minimum_names_the_file(tmp_path, rng, loader, edit, what):
    path = tmp_path / "ck.ckpt"
    _edited_checkpoint(path, rng, loader, edit)
    with pytest.raises(CheckpointError, match=what) as err:
        loader(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("loader,edit", [
    (load_encoder, _set_first_size(2**40)),
    (load_phase_model, _set_first_size(2**40)),
    (load_phase_model, _set("hidden_size", 2**40)),
    (load_phase_model, _set("num_phases", 2**40))],
    ids=["encoder-layer", "phase-layer", "hidden", "phases"])
def test_checkpoint_huge_size_is_a_shape_mismatch_not_an_allocation(tmp_path, rng,
                                                                    loader, edit):
    path = tmp_path / "ck.ckpt"
    _edited_checkpoint(path, rng, loader, edit)
    with pytest.raises(CheckpointError, match="shape") as err:
        loader(path)
    assert str(path) in str(err.value)


# Fuzzing: whatever the metadata or the bytes, a loader returns a model or
# raises a TempcohError that names the file.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
SIZE_LISTS = st.lists(st.one_of(st.integers(-2, 8), st.sampled_from([2**31, 2**40, 2**64])),
                      max_size=4)
METADATA_KEYS = ["layer_sizes", "trainable", "encoder_layer_sizes",
                 "encoder_trainable", "hidden_size", "num_phases"]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    """A function giving a new path in one directory at each call, `name`
    prefixed with a count, so that each fuzz example writes a fresh file.
    Rewriting one path many times in quick succession costs about 60 ms a
    write on ext4, which flushes a file that replaces existing data."""
    root = tmp_path_factory.mktemp("fuzz-files")
    count = itertools.count()
    return lambda name: root / f"{next(count)}.{name}"


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory):
    """(loader, path, valid bytes) for a small encoder and phase model;
    the files at `path` are left as saved."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    out = []
    for loader in (load_encoder, load_phase_model):
        path = root / f"{loader.__name__}.ckpt"
        _edited_checkpoint(path, rng, loader, lambda metadata: metadata)
        out.append((loader, path, path.read_bytes()))
    return out


def _loads_or_names_the_file(loader, path):
    try:
        loader(path)
    except TempcohError as exc:
        assert str(path) in str(exc)


@given(st.data())
def test_fuzz_checkpoint_metadata_value(fuzz_path, saved_checkpoints, data):
    for loader, saved, _ in saved_checkpoints:
        kind, params, _ = load_checkpoint(saved)
        path = fuzz_path(saved.name)
        save_checkpoint(path, kind, params, data.draw(JSON_VALUES, label="metadata"))
        _loads_or_names_the_file(loader, path)


@given(st.data())
def test_fuzz_checkpoint_metadata_key_values(fuzz_path, saved_checkpoints,
                                             data):
    for loader, saved, _ in saved_checkpoints:
        kind, params, metadata = load_checkpoint(saved)
        for key in data.draw(st.lists(st.sampled_from(METADATA_KEYS), min_size=1,
                                      max_size=3), label="keys"):
            metadata[key] = data.draw(JSON_VALUES | SIZE_LISTS | st.integers(), label=key)
        path = fuzz_path(saved.name)
        save_checkpoint(path, kind, params, metadata)
        _loads_or_names_the_file(loader, path)


@given(st.data())
def test_fuzz_checkpoint_truncated_or_byte_flipped(fuzz_path, saved_checkpoints,
                                                   data):
    for loader, saved, raw in saved_checkpoints:
        damaged = bytearray(raw[:data.draw(st.integers(0, len(raw)), label="length")])
        flips = st.tuples(st.integers(0, max(len(damaged) - 1, 0)), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=4), label="flips"):
            if damaged:
                damaged[pos] ^= mask
        path = fuzz_path(saved.name)
        path.write_bytes(bytes(damaged))
        _loads_or_names_the_file(loader, path)


@pytest.mark.parametrize("loader", [load_encoder, load_phase_model],
                         ids=["encoder", "phase_model"])
def test_checkpoint_metadata_over_long_integer_names_the_file(tmp_path, rng, loader):
    path = tmp_path / "ck.ckpt"
    _edited_checkpoint(path, rng, loader,
                       lambda metadata: {**metadata, "note": "HUGE"})
    kind, params, metadata = load_checkpoint(path)
    raw = path.read_bytes()
    text = json.dumps(metadata, sort_keys=True).encode()
    assert raw.endswith(text)
    huge = text.replace(b'"HUGE"', b"9" * 5000)
    path.write_bytes(raw[:-len(text) - 4] + struct.pack("<I", len(huge)) + huge)
    with pytest.raises(CheckpointError, match="not valid JSON") as err:
        loader(path)
    assert str(path) in str(err.value)


def test_phase_model_save_load_evaluate_bit_identical(tmp_path, rng):
    enc = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    model = PhaseModel.create(enc, 5, 3)
    model.init_head_uniform_fan(rng)
    videos = [FrameSequence(f"v{i}", rng.normal(size=(30, 4)).astype(np.float32),
                            5.0, rng.integers(0, 3, size=30).astype(np.int32))
              for i in range(3)]
    before = evaluate(model, videos)
    path = tmp_path / "pm.ckpt"
    save_phase_model(path, model)
    loaded, meta = load_phase_model(path)
    assert meta["hidden_size"] == 5 and meta["num_phases"] == 3
    after = evaluate(loaded, videos)
    assert before.report == after.report
    for vid in before.predictions:
        assert np.array_equal(before.predictions[vid], after.predictions[vid])


# Fuzzing the text readers: whatever the bytes, `load_labels` and
# `load_splits` return their result or raise a TempcohError naming the file.

LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b", "\n\n"])
HUGE = st.sampled_from([2**31, 2**32, 2**63 - 1, 2**63, 2**64]).map(str)
NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.just(str(2**31 - 1)),
    HUGE,
    st.text("0123456789\u0660\u0661\u0669\u06f3\u0967\uff11\uff19_+- ",
            min_size=1, max_size=12),
    st.just("9" * 5000))
# Weighted toward well-formed rows, so that the values reach the parser.
SEPARATORS = st.sampled_from([",", ",", ",", ", ", " ,", ",,", ";", ""])


def _joined(draw, header, rows):
    text = draw(LINE_BREAKS).join([header, *rows])
    return text.encode(draw(st.sampled_from(["utf-8"] * 4 + ["utf-16", "latin-1"])),
                       errors="replace")


@st.composite
def label_files(draw):
    header = draw(st.sampled_from(["frame_index,phase_id"] * 3
                                  + ["frame_index,phase_id ", "phase,frame", ""]))
    rows = []
    for row in range(draw(st.integers(0, 5))):
        index = draw(st.sampled_from([str(row)] * 3 + [f" {row}"]) | NUMBERS)
        rows.append(index + draw(SEPARATORS)
                    + draw(HUGE | NUMBERS | st.text(max_size=4)))
    return _joined(draw, header, rows)


@st.composite
def split_files(draw):
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        video = draw(st.sampled_from(["v1", "v2", " v1 ", ""]) | st.text(max_size=6))
        split = draw(st.sampled_from(["A", "B", "C", "D", " D", "E", "a", ""])
                     | st.text(max_size=3))
        rows.append(video + draw(SEPARATORS) + split)
    header = rows.pop(0) if rows else ""
    return _joined(draw, header, rows)


def _damaged(draw, raw: bytes) -> bytes:
    """raw, or raw with a few bytes changed (often leaving bad UTF-8)."""
    damaged = bytearray(raw)
    flips = st.tuples(st.integers(0, max(len(damaged) - 1, 0)), st.integers(1, 255))
    for pos, mask in draw(st.lists(flips, max_size=2) | st.just([]), label="flips"):
        if damaged:
            damaged[pos] ^= mask
    return bytes(damaged)


def _read_or_name_the_file(reader, path):
    try:
        return reader(path)
    except TempcohError as exc:
        assert str(path) in str(exc)
        return None


@settings(max_examples=300)
@given(st.data())
def test_fuzz_labels_file(fuzz_path, data):
    raw = data.draw(st.one_of(label_files(), label_files(), st.binary(max_size=80)),
                    label="file")
    path = fuzz_path("labels.csv")
    path.write_bytes(_damaged(data.draw, raw))
    labels = _read_or_name_the_file(load_labels, path)
    if labels is not None:
        assert labels.dtype == np.int32 and (labels >= 0).all()


# `load_labels` checks all rows at once and runs a per-row loop only to name
# the first bad row. The reference is the per-row reader it replaced: the
# two must agree on every file, in the array, in None and in the message.

def _reference_load_labels(path, expected_frames=None):
    lines = dio._read_text(path).splitlines()
    if not lines:
        return None
    if lines[0].strip() != dio.LABELS_HEADER:
        raise DataFormatError(f"{path}: first line must be '{dio.LABELS_HEADER}'")
    if len(lines) == 1:
        return None
    out = np.empty(len(lines) - 1, dtype=np.int32)

    def bad(row, message):
        return DataFormatError(f"{path}: line {row + 2}: {message}")

    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 2:
            raise bad(row, f"expected 'frame_index,phase_id', got {dio._clip(line)!r}")
        idx, phase = parts
        if not dio._is_decimal(idx) or not dio._is_decimal(phase):
            if dio._is_decimal(idx) and phase[:1] == "-" \
                    and dio._is_decimal(phase[1:]) and phase != "-0":
                raise bad(row, "negative phase id")
            raise bad(row, f"non-integer field in {dio._clip(line)!r}")
        if idx != str(row):
            raise bad(row, f"frame_index {dio._clip(idx)} out of order, expected {row}")
        if len(phase) > len(str(dio.PHASE_ID_MAX)) or int(phase) > dio.PHASE_ID_MAX:
            raise bad(row, f"phase id above {dio.PHASE_ID_MAX}")
        out[row] = int(phase)
    if expected_frames is not None and out.shape[0] != expected_frames:
        raise DataFormatError(f"{path}: {out.shape[0]} label rows for "
                              f"{expected_frames} frames")
    return out


def _labels_outcome(reader, path, expected_frames):
    try:
        labels = reader(path, expected_frames)
    except DataFormatError as exc:
        return "error", str(exc)
    if labels is None:
        return None
    return "labels", labels.dtype.str, labels.shape, labels.tobytes()


EDGE_NUMBERS = st.sampled_from([
    str(dio.PHASE_ID_MAX - 1), str(dio.PHASE_ID_MAX), str(dio.PHASE_ID_MAX + 1),
    "1" + "0" * 9, "9" * 10, "1" + "0" * 10, "9" * 11, "0", "-1", "01",
    "1\u0663", "\u0661"])


LABEL_VALUES = st.lists(st.integers(0, 5) | st.integers(-1, dio.PHASE_ID_MAX + 1),
                        max_size=8)


@st.composite
def edited_label_files(draw):
    """Rows as `save_labels` writes them with an edge value in one field,
    other line breaks, a padded header or no final newline."""
    values = draw(LABEL_VALUES)
    lines = [dio.LABELS_HEADER, *(f"{i},{v}" for i, v in enumerate(values))]
    if len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        index, phase = lines[row].split(",")
        if draw(st.booleans()):
            phase = draw(EDGE_NUMBERS)
        else:
            index = draw(EDGE_NUMBERS)
        lines[row] = f"{index},{phase}"
    lines[0] += draw(st.sampled_from(["", "", " ", "\t"]))
    text = draw(LINE_BREAKS).join(lines) + draw(st.sampled_from(["\n", "\r\n", ""]))
    return text.encode("utf-8")


@settings(max_examples=400)
@given(st.data())
def test_load_labels_equals_the_per_row_reference(fuzz_path, data):
    path = fuzz_path("reference.labels.csv")
    if data.draw(st.booleans(), label="saved"):
        save_labels(path, data.draw(LABEL_VALUES, label="labels"))
    else:
        path.write_bytes(data.draw(label_files() | edited_label_files(), label="file"))
    expected_frames = data.draw(st.none() | st.integers(0, 9), label="frames")
    assert _labels_outcome(load_labels, path, expected_frames) \
        == _labels_outcome(_reference_load_labels, path, expected_frames)


@pytest.mark.parametrize("text", [
    "frame_index,phase_id\r\n0,1\r\n1,2\r\n",
    "frame_index,phase_id\r0,1\r1,2\r",
    "frame_index,phase_id\u20280,1\u20281,2",
    "frame_index,phase_id\n0,1\n1,2",
    " frame_index,phase_id \n0,1\n",
    f"frame_index,phase_id\n0,{dio.PHASE_ID_MAX - 1}\n1,{dio.PHASE_ID_MAX}\n",
    f"frame_index,phase_id\n0,1\n1,{dio.PHASE_ID_MAX + 1}\n",
    "frame_index,phase_id\n0,9999999999\n",
    "frame_index,phase_id\n0,10000000000\n",
    "frame_index,phase_id\n0,1\n9999999999,1\n",
    "frame_index,phase_id\n0,1\n10000000000,1\n",
    "frame_index,phase_id\n0,1\n2,1\n1,-1\n",
    "frame_index,phase_id\n0,1\n\n1,1\n",
    "frame_index,phase_id\n0,1\u0663\n",
], ids=["crlf", "cr", "u2028", "no-final-newline", "padded-header",
        "max-1-and-max", "max+1", "10-digit-phase", "11-digit-phase",
        "10-digit-index", "11-digit-index", "order-before-sign", "blank-row",
        "non-ascii-digit"])
def test_load_labels_edge_files_equal_the_per_row_reference(tmp_path, text):
    path = tmp_path / "l.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _labels_outcome(load_labels, path, None) \
        == _labels_outcome(_reference_load_labels, path, None)


@settings(max_examples=300)
@given(st.data())
def test_fuzz_splits_file(fuzz_path, data):
    raw = data.draw(st.one_of(split_files(), split_files(), st.binary(max_size=80)),
                    label="file")
    path = fuzz_path("splits.txt")
    path.write_bytes(_damaged(data.draw, raw))
    splits = _read_or_name_the_file(load_splits, path)
    if splits is not None:
        assert splits and set(splits.values()) <= {"A", "B", "C", "D"}


# Fuzzing the feature-file reader: crafted headers (ids that are not UTF-8,
# counts up to 2**32 - 1, non-positive or non-finite fps) over payloads that
# may not match them, truncated or byte-flipped, and raw bytes. Whatever the
# bytes, `load_features` returns a valid sequence or raises a TempcohError
# naming the file, and never allocates what a header merely claims.

COUNTS = st.sampled_from([1, 2, 3] * 2 + [0, 2**31, 2**32 - 1])
FPS = st.sampled_from([5.0] * 3 + [0.0, -1.0, float("nan"), float("inf"),
                                   float("-inf")]) | st.floats(width=32)


@st.composite
def feature_files(draw):
    video_id = draw(st.text(max_size=4).map(str.encode) | st.binary(max_size=4))
    id_length = draw(st.sampled_from([len(video_id)] * 3 + [0, 2**31, 2**32 - 1]))
    frames, dim = draw(COUNTS), draw(COUNTS)
    if frames * dim <= 9 and draw(st.integers(0, 3)):
        values = draw(st.lists(st.floats(width=32), min_size=frames * dim,
                               max_size=frames * dim))
        payload = np.array(values, dtype="<f4").tobytes() + draw(
            st.sampled_from([b""] * 3 + [b"\0"]))
    else:
        payload = draw(st.binary(max_size=40))
    raw = (b"TCSL" + struct.pack("<H", draw(st.sampled_from([1] * 4 + [2])))
           + struct.pack("<I", id_length) + video_id
           + struct.pack("<IIf", frames, dim, draw(FPS)) + payload)
    if draw(st.integers(0, 3)) == 0:
        raw = raw[:draw(st.integers(0, len(raw)), label="length")]
    return raw


@settings(max_examples=300)
@given(st.data())
def test_fuzz_feature_file(fuzz_path, data):
    raw = data.draw(st.one_of(feature_files(), feature_files(),
                              st.binary(max_size=80)), label="file")
    path = fuzz_path("video.feat")
    path.write_bytes(_damaged(data.draw, raw))
    seq = _read_or_name_the_file(load_features, path)
    if seq is not None:
        assert seq.features.dtype == np.float32 and seq.features.size
        assert np.isfinite(seq.features).all()
        assert np.isfinite(seq.fps) and seq.fps > 0


# Fuzzing the dataset manifest: byte-flipped or truncated copies of a valid
# `dataset.json`, keys dropped or given values of other types, values nested
# deeply, and member paths that leave the directory or name no file. Whatever
# the manifest, `load_dataset` returns a dataset or raises a TempcohError
# naming a path in the dataset directory. Run manifests are not fuzzed this
# way: replaying one writes wherever its paths point.

MANIFEST_KEYS = ["format", "version", "fps", "num_phases", "feature_dim",
                 "splits_file", "videos"]
VIDEO_KEYS = ["video_id", "num_frames", "features", "labels"]
MEMBER_PATHS = st.sampled_from([
    "../x.feat", "..", ".", "", "sub", "sub/x.feat", "./splits.txt",
    "x/../splits.txt", "a\0b", "dataset.json", "splits.txt", "/etc/hostname",
    "/dev/null"])


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """(directory, manifest) of a small saved dataset, left as saved."""
    root = tmp_path_factory.mktemp("dataset-fuzz") / "data"
    dataset = generate_dataset(SynthConfig(min_duration=5, max_duration=9,
                                           feature_dim=4), 4,
                               np.random.default_rng(0))
    manifest_path = save_dataset(root, dataset)[0]
    (root / "sub").mkdir()
    return root, json.loads(manifest_path.read_text())


def _edited_manifest(draw, root, valid) -> str:
    manifest = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3), label="edits")):
        target = manifest
        keys = MANIFEST_KEYS
        if isinstance(manifest.get("videos"), list) and manifest["videos"] \
                and draw(st.booleans()):
            index = draw(st.integers(0, len(manifest["videos"]) - 1))
            target, keys = manifest["videos"][index], VIDEO_KEYS
        if not isinstance(target, dict):
            continue
        key = draw(st.sampled_from(keys), label="key")
        edit = draw(st.sampled_from(["drop", "value", "path", "absolute", "nest"]))
        if edit == "drop":
            target.pop(key, None)
        elif edit == "value":
            target[key] = draw(JSON_VALUES, label="value")
        elif edit == "path":
            target[key] = draw(MEMBER_PATHS, label="path")
        elif edit == "absolute":
            target[key] = str(root / draw(st.sampled_from(
                ["splits.txt", valid["videos"][0]["features"]])))
        else:
            target[key] = "NEST"
    depth = draw(st.sampled_from([1, 2, 64, 200_000]), label="depth")
    return json.dumps(manifest).replace('"NEST"', "[" * depth + "1" + "]" * depth)


@settings(max_examples=300)
@given(st.data())
def test_fuzz_dataset_manifest(fuzz_path, fuzz_dataset, data):
    source, valid = fuzz_dataset
    # Each example gets a fresh directory, its members hard links to the
    # saved ones, and writes its own `dataset.json` there.
    root = fuzz_path("data")
    shutil.copytree(source, root, copy_function=os.link,
                    ignore=shutil.ignore_patterns("dataset.json"))
    if data.draw(st.booleans(), label="edit keys"):
        raw = _edited_manifest(data.draw, root, valid).encode()
    else:
        raw = json.dumps(valid, indent=2).encode()
        raw = raw[:data.draw(st.integers(0, len(raw)) | st.just(len(raw)),
                             label="length")]
    (root / "dataset.json").write_bytes(_damaged(data.draw, raw))
    try:
        dataset = load_dataset(root)
    except TempcohError as exc:
        assert str(root) in str(exc)
    else:
        assert len(dataset.videos) >= 1 and set(dataset.splits) == {
            v.video_id for v in dataset.videos}

"""Nearest-neighbor retrieval: exact scan semantics, ordering, agreement."""

import math

import numpy as np
import pytest

from tempcoh.data_io import FrameSequence
from tempcoh.models import EncoderModel
from tempcoh.retrieval import (
    RetrievalResult,
    VideoMatch,
    embed_corpus,
    nearest_frame,
    phase_agreement,
    retrieval_report,
)
from tempcoh.synthetic import SynthConfig, generate_dataset


def make_video(rng, video_id="v", frames=50, dim=4, labels=None):
    feats = rng.normal(size=(frames, dim)).astype(np.float32)
    return FrameSequence(video_id, feats, 1.0,
                         None if labels is None else np.asarray(labels, np.int32))


# ------------------------------------------------------------ nearest_frame

def test_self_query_returns_exact_zero(rng):
    emb = rng.normal(size=(40, 6))
    idx, dist = nearest_frame(emb[17], emb)
    assert idx == 17
    assert dist == 0.0


def test_ties_break_toward_lowest_frame_index(rng):
    emb = rng.normal(size=(10, 3))
    emb[7] = emb[3]
    idx, dist = nearest_frame(emb[3], emb)
    assert idx == 3
    assert dist == 0.0


def test_matches_brute_force_scan(rng):
    emb = rng.normal(size=(200, 5))
    for _ in range(20):
        q = rng.normal(size=5)
        best_idx, best_dist = None, math.inf
        for i in range(200):
            d = math.sqrt(sum((float(emb[i, j]) - float(q[j])) ** 2
                              for j in range(5)))
            if d < best_dist:
                best_idx, best_dist = i, d
        idx, dist = nearest_frame(q, emb)
        assert idx == best_idx
        assert dist == pytest.approx(best_dist, rel=1e-12)


def test_nearest_frame_validation(rng):
    with pytest.raises(ValueError, match="non-empty"):
        nearest_frame(np.zeros(3), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="does not match"):
        nearest_frame(np.zeros(4), np.zeros((5, 3)))


# --------------------------------------------------------- retrieval_report

def test_one_match_per_corpus_video_sorted_ascending(rng):
    encoder = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    corpus = [make_video(rng, f"c{i}") for i in range(5)]
    query_video = make_video(rng, "q")
    results = retrieval_report(encoder, [(query_video, 7)], corpus)
    assert len(results) == 1
    res = results[0]
    assert res.query_video == "q" and res.query_frame == 7
    assert res.query_phase is None
    assert [m.video_id for m in res.matches] != []
    assert len(res.matches) == len(corpus)
    assert {m.video_id for m in res.matches} == {f"c{i}" for i in range(5)}
    dists = [m.distance for m in res.matches]
    assert dists == sorted(dists)


def test_self_retrieval_is_top_match_with_zero_distance(rng):
    encoder = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    corpus = [make_video(rng, f"c{i}") for i in range(3)]
    results = retrieval_report(encoder, [(corpus[1], 17)], corpus)
    top = results[0].matches[0]
    assert top.video_id == "c1"
    assert top.frame_index == 17
    assert top.distance == 0.0


def test_every_query_frame_comes_back_from_its_video_at_exactly_zero(rng):
    # A query frame is its row of its whole video's embedding, so it equals
    # the corpus embedding of that frame bit for bit, also when the query
    # video is a copy from outside the corpus rather than a corpus video.
    encoder = EncoderModel.create(16, [64], 32).init_uniform_fan(rng)
    corpus = [make_video(rng, f"c{i}", frames=40, dim=16) for i in range(3)]
    outside = FrameSequence("q", corpus[2].features.copy(), 1.0)
    queries = [(seq, f) for seq in (*corpus, outside)
               for f in range(seq.num_frames)]
    results = retrieval_report(encoder, queries, corpus)
    assert len(results) == 160
    for res in results:
        own = "c2" if res.query_video == "q" else res.query_video
        match = next(m for m in res.matches if m.video_id == own)
        assert (match.frame_index, match.distance) == (res.query_frame, 0.0)


def test_exact_ties_keep_corpus_order(rng):
    encoder = EncoderModel.create(4, [], 3).init_uniform_fan(rng)
    base = make_video(rng, "a")
    twin = FrameSequence("b", base.features.copy(), 1.0)
    results = retrieval_report(encoder, [(base, 5)], [base, twin])
    matches = results[0].matches
    assert [m.video_id for m in matches] == ["a", "b"]
    assert matches[0].distance == matches[1].distance == 0.0
    assert matches[0].frame_index == matches[1].frame_index == 5


def test_appending_a_farther_video_changes_nothing_else(rng):
    encoder = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    corpus = [make_video(rng, f"c{i}") for i in range(3)]
    query = make_video(rng, "q")
    before = retrieval_report(encoder, [(query, 0)], corpus)[0].matches
    far_feats = rng.normal(size=(20, 4)).astype(np.float32) + 500.0
    far = FrameSequence("far", far_feats, 1.0)
    after = retrieval_report(encoder, [(query, 0)], corpus + [far])[0].matches
    assert after[:3] == before
    assert after[3].video_id == "far"


def test_retrieved_and_query_phases_reported(rng):
    encoder = EncoderModel.create(4, [], 3).init_uniform_fan(rng)
    labels = [0] * 25 + [2] * 25
    corpus = [make_video(rng, "c", labels=labels)]
    query = make_video(rng, "q", labels=[1] * 50)
    res = retrieval_report(encoder, [(query, 4)], corpus)[0]
    assert res.query_phase == 1
    assert res.matches[0].retrieved_phase == labels[res.matches[0].frame_index]


def test_query_frame_out_of_range(rng):
    encoder = EncoderModel.create(4, [], 3).init_uniform_fan(rng)
    corpus = [make_video(rng, "c")]
    query = make_video(rng, "q", frames=10)
    with pytest.raises(ValueError, match="out of range"):
        retrieval_report(encoder, [(query, 10)], corpus)
    with pytest.raises(ValueError, match="at least one video"):
        retrieval_report(encoder, [(query, 0)], [])


def test_embed_corpus_embeds_every_frame(rng):
    encoder = EncoderModel.create(4, [6], 3).init_uniform_fan(rng)
    corpus = [make_video(rng, "c0", frames=12), make_video(rng, "c1", frames=7)]
    embs = embed_corpus(encoder, corpus)
    assert [e.shape for e in embs] == [(12, 3), (7, 3)]
    assert all(e.dtype == np.float64 for e in embs)
    assert np.allclose(embs[0], encoder.forward(corpus[0].features))


# ------------------------------------------------------------ agreement

def result_with(query_phase, retrieved_phases):
    matches = [VideoMatch(f"c{i}", 0, float(i), p)
               for i, p in enumerate(retrieved_phases)]
    return RetrievalResult("q", 0, query_phase, matches)


def test_agreement_counts_matching_pairs():
    assert phase_agreement([result_with(1, [1, 0])]) == 0.5
    assert phase_agreement([result_with(1, [1, 1, 0, 2])]) == 0.5
    assert phase_agreement([result_with(0, [1]), result_with(2, [2])]) == 0.5


def test_agreement_skips_unknown_phases():
    # Unlabeled retrieved frames and unlabeled queries contribute nothing.
    assert phase_agreement([result_with(1, [None, 1])]) == 1.0
    assert phase_agreement([result_with(None, [1, 1])]) is None
    assert phase_agreement([result_with(1, [None])]) is None
    assert phase_agreement([]) is None
    mixed = [result_with(None, [0]), result_with(0, [None, 0, 1])]
    assert phase_agreement(mixed) == 0.5


def test_random_encoder_agreement_matches_label_prior():
    # With prototype_scale=0 features carry no phase information, so a random
    # encoder's agreement rate should sit at the empirical phase prior: the
    # chance that a corpus video's retrieved frame happens to carry the
    # query's phase if retrieval is phase-blind.
    cfg = SynthConfig(prototype_scale=0.0, min_duration=20, max_duration=40,
                      feature_dim=8, num_phases=5)
    data = generate_dataset(cfg, 8, 21)
    corpus = data.videos[:4]
    queries = [(v, f) for v in data.videos[4:]
               for f in range(0, v.num_frames, 10)]
    encoder = EncoderModel.create(8, [16], 6).init_uniform_fan(
        np.random.default_rng(2))
    agreement = phase_agreement(retrieval_report(encoder, queries, corpus))

    hists = [np.bincount(v.labels, minlength=cfg.num_phases) / v.num_frames
             for v in corpus]
    pair_probs = [h[int(seq.labels[f])] for seq, f in queries for h in hists]
    prior = float(np.mean(pair_probs))
    se = math.sqrt(sum(p * (1 - p) for p in pair_probs)) / len(pair_probs)
    assert abs(agreement - prior) <= 3 * se

"""Exact nearest-neighbor frame retrieval in embedding space.

For one query frame, every corpus video contributes its single closest frame
(exhaustive scan, ties broken toward the lowest frame index), and the
per-video results are sorted ascending by distance. Distances are unsquared
L2 computed in float64.

Frames are embedded a whole video at a time, and a query frame is its row
of its video's embedding. The encoder's batched products are not bitwise
row-independent, so this is what makes a query frame and the same frame in
the corpus the same vector, at distance exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import FrameSequence
from .models import EncoderModel


@dataclass(frozen=True)
class VideoMatch:
    """Closest frame of one corpus video; phase is None when unlabeled."""

    video_id: str
    frame_index: int
    distance: float
    retrieved_phase: int | None


@dataclass
class RetrievalResult:
    """One query with its best match per corpus video, sorted ascending by
    distance (stable, so corpus order breaks exact ties)."""

    query_video: str
    query_frame: int
    query_phase: int | None
    matches: list[VideoMatch]


def nearest_frame(query_embedding, video_embeddings) -> tuple[int, float]:
    """Index of and distance to the closest frame of one embedded video."""
    emb = np.asarray(video_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] == 0:
        raise ValueError("video_embeddings must be a non-empty (T, d) array")
    q = np.asarray(query_embedding, dtype=np.float64)
    if q.shape != (emb.shape[1],):
        raise ValueError(f"query embedding shape {q.shape} does not match "
                         f"video embedding dimension {emb.shape[1]}")
    dist = np.sqrt(((emb - q) ** 2).sum(axis=1))
    best = int(np.argmin(dist))
    return best, float(dist[best])


def embed_corpus(encoder: EncoderModel,
                 corpus: list[FrameSequence]) -> list[np.ndarray]:
    """Embed every frame of every corpus video once, in float64."""
    if not corpus:
        raise ValueError("corpus must contain at least one video")
    return [encoder.forward(seq.features).astype(np.float64) for seq in corpus]


def check_query_frame(seq: FrameSequence, frame: int, where: str = "") -> None:
    """A ValueError, its message prefixed `where`, unless `frame` is a
    frame of `seq`."""
    if not 0 <= frame < seq.num_frames:
        raise ValueError(f"{where}query frame {frame} out of range for video "
                         f"{seq.video_id!r} with {seq.num_frames} frames")


def retrieval_report(encoder: EncoderModel,
                     queries: list[tuple[FrameSequence, int]],
                     corpus: list[FrameSequence]) -> list[RetrievalResult]:
    """Answer every query against a once-embedded corpus. A query video is
    embedded once, or not at all if it is a corpus video."""
    corpus_embeddings = embed_corpus(encoder, corpus)
    embedded = {id(seq): emb for seq, emb in zip(corpus, corpus_embeddings)}
    results = []
    for seq, frame in queries:
        check_query_frame(seq, frame)
        if id(seq) not in embedded:
            embedded[id(seq)] = encoder.forward(seq.features).astype(np.float64)
        q = embedded[id(seq)][frame]
        matches = []
        for video, emb in zip(corpus, corpus_embeddings):
            idx, dist = nearest_frame(q, emb)
            phase = int(video.labels[idx]) if video.labels is not None else None
            matches.append(VideoMatch(video.video_id, idx, dist, phase))
        matches.sort(key=lambda m: m.distance)
        results.append(RetrievalResult(
            query_video=seq.video_id,
            query_frame=frame,
            query_phase=int(seq.labels[frame]) if seq.labels is not None else None,
            matches=matches,
        ))
    return results


def phase_agreement(results: list[RetrievalResult]) -> float | None:
    """Fraction of retrieved frames sharing their query's phase, over
    (query, video) pairs where both phases are known; None if none qualify."""
    hits = 0
    known = 0
    for res in results:
        if res.query_phase is None:
            continue
        for m in res.matches:
            if m.retrieved_phase is None:
                continue
            known += 1
            hits += m.retrieved_phase == res.query_phase
    if known == 0:
        return None
    return hits / known

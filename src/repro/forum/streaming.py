"""Streaming million-user forum generation in bounded memory.

:func:`generate_forum` materializes every post as a Python object —
fine at the paper's scale (~3k questions), hopeless at a million users.
This module re-expresses the same generative model as vectorized chunk
production: questions are generated in chronological time slices, each
slice yields plain numpy arrays (a :class:`StreamChunk`), and the
caller appends them straight into columnar
:class:`~repro.core.columnar.AnswerLog` segments.  No chunk ever holds
more than ``chunk_questions`` threads, so peak memory is bounded by the
per-user ground-truth arrays (O(n_users · n_topics) float32) plus one
chunk — independent of the total number of posts.

Statistical fidelity, not bit-fidelity: the streamed path draws from
the *same distributions* as :func:`generate_forum` (activity tails,
topic-match-driven answering, the delay and vote formulas of
:func:`draw_answer_delay` / :func:`draw_answer_votes`) but vectorizes
the sampling, so a given seed produces a different — equally valid —
forum than the object path.  The one structural substitution is the
answerer sampler: the object path scores all ``n_users`` per question
(O(n_users · n_questions), the scale bottleneck); here we sample a
topic from the question mixture and then a user from per-topic
activity-tilted cumulative weights via ``searchsorted`` —
O(log n_users) per answer with the same activity x topic-match
coupling.

Post bodies are never built.  Word/code lengths are drawn from the same
log-normals and stored as float32 columns; ground-truth topic mixtures
ride along as float32 rows so downstream consumers need no LDA fit to
exercise topic-dependent paths at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import perf
from ..core.columnar import AnswerLog, EventStore
from ..core.dtypes import ID_DTYPE, TIME_DTYPE, VALUE_DTYPE
from .generator import ForumConfig

__all__ = [
    "StreamChunk",
    "UserGroundTruth",
    "sample_users",
    "stream_forum_chunks",
    "ScaleIngestReport",
    "ingest_stream",
]


@dataclass(frozen=True)
class UserGroundTruth:
    """Per-user latent variables, sampled once and shared by all chunks.

    The only O(n_users) state of the streamed generator.  At one million
    users and 8 topics this is ~100 MB (dominated by ``interests`` and
    the per-topic answerer weights), which is the bounded-memory floor.
    """

    activity: np.ndarray  # (U,) float32 lognormal activity weight
    interests: np.ndarray  # (U, K) float32 dirichlet topic interests
    expertise: np.ndarray  # (U,) float32 N(0, 1)
    median_delay: np.ndarray  # (U,) float32 hours
    ask_cdf: np.ndarray  # (U,) float64 cumulative asking propensity
    topic_cdf: np.ndarray  # (K, U) float64 per-topic answerer weight cumsums

    @property
    def n_users(self) -> int:
        return self.activity.shape[0]

    @property
    def n_topics(self) -> int:
        return self.interests.shape[1]


def sample_users(config: ForumConfig, rng: np.random.Generator) -> UserGroundTruth:
    """Draw the per-user latents of the generative model, vectorized.

    Mirrors the per-user draws of :func:`generate_forum`: log-normal
    activity with ``activity_tail`` sigma, Dirichlet(0.3) interests,
    standard-normal expertise, and the activity-coupled median delay
    ``clip(2.2 * activity**-0.85 * lognormal(0, 0.5), 0.05, 24)`` that
    plants "more active users answer faster" (paper Fig. 4b).

    ``topic_cdf[k]`` is the cumulative distribution over users for
    answers whose sampled topic is ``k``: weight proportional to
    ``activity * exp(topic_match_weight * interests[:, k])`` — the same
    activity x match tilt the object generator applies per question,
    collapsed onto the question's dominant sampled topic.
    """
    n, k = config.n_users, config.n_topics
    activity = rng.lognormal(0.0, config.activity_tail, size=n)
    interests = rng.dirichlet(np.full(k, 0.3), size=n)
    expertise = rng.normal(0.0, 1.0, size=n)
    idiosyncratic = rng.lognormal(0.0, 0.5, size=n)
    median_delay = np.clip(2.2 * activity**-0.85 * idiosyncratic, 0.05, 24.0)
    ask = rng.lognormal(0.0, 1.0, size=n)
    ask_cdf = np.cumsum(ask / ask.sum())
    # (K, U): per-topic answerer weights.  float64 cumsums keep the
    # searchsorted inversion exact; the tilt itself fits comfortably.
    tilt = activity[None, :] * np.exp(config.topic_match_weight * interests.T)
    topic_cdf = np.cumsum(tilt / tilt.sum(axis=1, keepdims=True), axis=1)
    return UserGroundTruth(
        activity=activity.astype(VALUE_DTYPE),
        interests=interests.astype(VALUE_DTYPE),
        expertise=expertise.astype(VALUE_DTYPE),
        median_delay=median_delay.astype(VALUE_DTYPE),
        ask_cdf=ask_cdf,
        topic_cdf=topic_cdf,
    )


@dataclass
class StreamChunk:
    """One chronological slice of generated forum activity, as arrays.

    Questions are sorted by ``q_created``.  Answer rows are grouped by
    question in question order (``a_thread`` is non-decreasing within
    the chunk), which is exactly the layout
    :meth:`~repro.core.columnar.AnswerLog.append_block` wants.
    """

    t0: float
    t1: float
    # -- questions ---------------------------------------------------------
    q_id: np.ndarray  # (Q,) int32 thread ids, globally increasing
    q_asker: np.ndarray  # (Q,) int32
    q_created: np.ndarray  # (Q,) float64 hours, sorted ascending
    q_votes: np.ndarray  # (Q,) float32
    q_word_chars: np.ndarray  # (Q,) float32
    q_code_chars: np.ndarray  # (Q,) float32
    q_topics: np.ndarray  # (Q, K) float32 ground-truth mixtures
    # -- answers -----------------------------------------------------------
    a_thread: np.ndarray  # (A,) int32, grouped by question
    a_author: np.ndarray  # (A,) int32
    a_timestamp: np.ndarray  # (A,) float64 q_created + delay
    a_delay: np.ndarray  # (A,) float64 hours
    a_votes: np.ndarray  # (A,) float32
    a_topics: np.ndarray  # (A, K) float32 answer mixtures

    @property
    def n_questions(self) -> int:
        return self.q_id.shape[0]

    @property
    def n_answers(self) -> int:
        return self.a_thread.shape[0]


def _row_categorical(
    probs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One categorical draw per row of a (N, K) probability matrix."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.uniform(size=(probs.shape[0], 1)) * cdf[:, -1:]
    return (u > cdf).sum(axis=1).astype(np.int64)


def _question_mixtures(
    askers: np.ndarray,
    users: UserGroundTruth,
    rng: np.random.Generator,
    drift_shift: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized :func:`generate_forum` question-topic construction.

    Main topic ~ the asker's interests; mixture = 0.75 one-hot main
    topic + 0.25 Dirichlet(0.15) noise, matching ``_question_mixture``.
    ``drift_shift`` (per-question integer topic rotations, the streamed
    analogue of ``ForumConfig.topic_drift_rate``) relabels the dominant
    topic without consuming randomness.
    """
    k = users.n_topics
    main = _row_categorical(
        users.interests[askers].astype(np.float64), rng
    )
    if drift_shift is not None:
        main = (main + drift_shift) % k
    mixtures = 0.25 * rng.dirichlet(np.full(k, 0.15), size=askers.shape[0])
    mixtures[np.arange(askers.shape[0]), main] += 0.75
    return mixtures


def _sample_answerers(
    mixtures: np.ndarray,
    askers_rep: np.ndarray,
    users: UserGroundTruth,
    rng: np.random.Generator,
) -> np.ndarray:
    """Two-stage answerer draw: topic ~ question mixture, user ~ topic CDF.

    Asker collisions are resampled once from the same topic; the rare
    second collision survives and is dropped by the caller — at forum
    scale the asker holds a vanishing fraction of any topic's mass.
    """
    topics = _row_categorical(mixtures, rng)
    u = rng.uniform(size=topics.shape[0])
    # searchsorted against each answer's own topic row: gather the rows
    # and invert per-row.  (K, U) rows are contiguous, so the gather is
    # a stride trick away from free for the handful of topics involved.
    authors = np.empty(topics.shape[0], dtype=np.int64)
    for k in np.unique(topics):
        sel = topics == k
        authors[sel] = np.searchsorted(users.topic_cdf[k], u[sel])
    np.clip(authors, 0, users.n_users - 1, out=authors)
    collide = authors == askers_rep
    if collide.any():
        u2 = rng.uniform(size=int(collide.sum()))
        for k in np.unique(topics[collide]):
            sel = collide & (topics == k)
            authors[sel] = np.searchsorted(
                users.topic_cdf[k], u2[: int(sel.sum())]
            )
            u2 = u2[int(sel.sum()):]
        np.clip(authors, 0, users.n_users - 1, out=authors)
    return authors


def _chunk_probabilities(config: ForumConfig, edges: np.ndarray) -> np.ndarray:
    """Per-chunk question mass under the popularity wave.

    Without a wave every chunk carries equal mass (the exact
    ``np.full`` array older versions passed to the multinomial, so
    streams stay bit-identical).  With a wave the mass of chunk
    ``[a, b)`` is the closed-form integral of ``1 + A sin(2 pi t / P)``
    over the slice, so month-scale ebb/flow shows up as chunk-level
    volume modulation (within-chunk arrivals stay uniform — the wave is
    resolved at chunk granularity on the streamed path).
    """
    n_chunks = edges.shape[0] - 1
    amp = config.popularity_wave_amplitude
    if amp <= 0.0:
        return np.full(n_chunks, 1.0 / n_chunks)
    omega = 2.0 * np.pi / (config.popularity_wave_period_days * 24.0)
    mass = np.diff(edges) + (amp / omega) * (
        np.cos(omega * edges[:-1]) - np.cos(omega * edges[1:])
    )
    np.maximum(mass, 0.0, out=mass)
    return mass / mass.sum()


def stream_forum_chunks(
    config: ForumConfig,
    *,
    seed: int = 0,
    chunk_questions: int = 50_000,
) -> Iterator[StreamChunk]:
    """Yield the forum as chronological :class:`StreamChunk` slices.

    Question arrival times are the order statistics of uniforms over
    ``duration_hours``; we realize them incrementally by drawing the
    per-chunk counts from one multinomial over equal time slices and
    sorting uniforms within each slice — distributionally identical to
    sorting all ``n_questions`` arrivals up front, without ever holding
    them all.  ``popularity_wave_amplitude`` tilts the multinomial's
    per-chunk mass (see :func:`_chunk_probabilities`) and
    ``topic_drift_rate`` rotates dominant topics with question time,
    mirroring the scenario knobs of the object-path generator.
    """
    rng = np.random.default_rng(seed)
    users = sample_users(config, rng)
    duration = config.duration_days * 24.0
    n_chunks = max(1, -(-config.n_questions // chunk_questions))
    edges = np.linspace(0.0, duration, n_chunks + 1)
    counts = rng.multinomial(
        config.n_questions, _chunk_probabilities(config, edges)
    )
    next_qid = 0
    k = config.n_topics
    for c in range(n_chunks):
        nq = int(counts[c])
        if nq == 0:
            continue
        t0, t1 = float(edges[c]), float(edges[c + 1])
        created = np.sort(rng.uniform(t0, t1, size=nq))
        askers = np.searchsorted(users.ask_cdf, rng.uniform(size=nq))
        np.clip(askers, 0, users.n_users - 1, out=askers)
        drift = None
        if config.topic_drift_rate > 0.0:
            drift = (
                config.topic_drift_rate * (created / duration) * k
            ).astype(np.int64) % k
        mixtures = _question_mixtures(askers, users, rng, drift)
        q_votes = np.round(rng.lognormal(0.3, 0.9, size=nq)) - 1.0

        answered = rng.uniform(size=nq) >= config.unanswered_fraction
        n_answers = np.where(
            answered, 1 + rng.poisson(config.mean_extra_answers, size=nq), 0
        )
        rep = np.repeat(np.arange(nq), n_answers)  # answer -> question row

        authors = _sample_answerers(
            mixtures[rep], askers[rep], users, rng
        )
        keep = authors != askers[rep]
        rep, authors = rep[keep], authors[keep]

        match = np.einsum(
            "ij,ij->i", users.interests[authors].astype(np.float64), mixtures[rep]
        )
        # draw_answer_delay, vectorized: lognormal around the user's
        # median, sped up by match, floored at one minute.
        delay = np.exp(
            np.log(users.median_delay[authors].astype(np.float64))
            - 1.2 * (match - 0.3)
            + 0.7 * rng.normal(size=authors.shape[0])
        )
        np.maximum(delay, 1.0 / 60.0, out=delay)
        if config.zero_delay_rate > 0.0:
            delay[rng.uniform(size=delay.shape[0]) < config.zero_delay_rate] = 0.0

        # draw_answer_votes, vectorized, including the 4% viral tail.
        quality = (
            0.9 * users.expertise[authors].astype(np.float64)
            + 0.45 * q_votes[rep]
            + rng.normal(0.0, 0.5, size=authors.shape[0])
        )
        raw = (0.35 + match) * quality + 0.8 * match + rng.normal(
            0.0, 0.5, size=authors.shape[0]
        )
        viral = (raw > 0) & (rng.uniform(size=raw.shape[0]) < 0.04)
        raw[viral] *= rng.uniform(2.0, 8.0, size=int(viral.sum()))
        a_votes = np.clip(np.round(raw), -6, 60)

        a_topics = (
            0.6 * mixtures[rep] + 0.4 * users.interests[authors].astype(np.float64)
        )
        a_topics /= a_topics.sum(axis=1, keepdims=True)

        yield StreamChunk(
            t0=t0,
            t1=t1,
            q_id=(next_qid + np.arange(nq)).astype(ID_DTYPE),
            q_asker=askers.astype(ID_DTYPE),
            q_created=created.astype(TIME_DTYPE),
            q_votes=q_votes.astype(VALUE_DTYPE),
            q_word_chars=rng.lognormal(
                np.log(config.median_word_chars), 0.35, size=nq
            ).astype(VALUE_DTYPE),
            q_code_chars=rng.lognormal(
                np.log(config.median_code_chars), 0.85, size=nq
            ).astype(VALUE_DTYPE),
            q_topics=mixtures.astype(VALUE_DTYPE),
            a_thread=(next_qid + rep).astype(ID_DTYPE),
            a_author=authors.astype(ID_DTYPE),
            a_timestamp=(created[rep] + delay).astype(TIME_DTYPE),
            a_delay=delay.astype(TIME_DTYPE),
            a_votes=a_votes.astype(VALUE_DTYPE),
            a_topics=a_topics.astype(VALUE_DTYPE),
        )
        next_qid += nq


@dataclass
class ScaleIngestReport:
    """What a streamed ingest produced, for benchmarks and the CLI."""

    n_users: int
    n_questions: int = 0
    n_answers: int = 0
    n_active_users: int = 0
    n_chunks: int = 0
    question_bytes: int = 0
    answer_bytes: int = 0
    peak_rss_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_questions": self.n_questions,
            "n_answers": self.n_answers,
            "n_active_users": self.n_active_users,
            "n_chunks": self.n_chunks,
            "question_bytes": self.question_bytes,
            "answer_bytes": self.answer_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def ingest_stream(
    config: ForumConfig,
    *,
    seed: int = 0,
    chunk_questions: int = 50_000,
    topic_dtype=VALUE_DTYPE,
) -> tuple[AnswerLog, EventStore, ScaleIngestReport]:
    """Stream a forum straight into columnar stores.

    Every answer lands in one :class:`AnswerLog`, chunk by chunk, so the
    log stays chronological; questions land in one :class:`EventStore`.

    Returns the answer log, the question store, and a report with row
    counts, columnar footprints and the process peak RSS (gauged via
    :func:`repro.perf.record_peak_rss` under ``scale.``).
    """
    k = config.n_topics
    log = AnswerLog(k, topic_dtype=topic_dtype)
    questions = EventStore(
        {
            "thread_id": ID_DTYPE,
            "asker": ID_DTYPE,
            "created_at": TIME_DTYPE,
            "votes": VALUE_DTYPE,
            "word_chars": VALUE_DTYPE,
            "code_chars": VALUE_DTYPE,
            "topics": (VALUE_DTYPE, k),
        }
    )
    report = ScaleIngestReport(n_users=config.n_users)
    seen_authors: set[int] = set()
    with perf.timer("scale.ingest"):
        for chunk in stream_forum_chunks(
            config, seed=seed, chunk_questions=chunk_questions
        ):
            questions.append(
                thread_id=chunk.q_id,
                asker=chunk.q_asker,
                created_at=chunk.q_created,
                votes=chunk.q_votes,
                word_chars=chunk.q_word_chars,
                code_chars=chunk.q_code_chars,
                topics=chunk.q_topics,
            )
            if chunk.n_answers:
                log.append_block(
                    chunk.a_author,
                    chunk.a_thread,
                    chunk.a_votes,
                    chunk.a_timestamp,
                    chunk.a_delay,
                    chunk.q_topics[chunk.a_thread - chunk.q_id[0]],
                    chunk.a_topics,
                )
            seen_authors.update(np.unique(chunk.a_author).tolist())
            report.n_questions += chunk.n_questions
            report.n_answers += chunk.n_answers
            report.n_chunks += 1
            perf.record_peak_rss("scale")
    report.n_active_users = len(seen_authors)
    report.question_bytes = questions.nbytes
    report.answer_bytes = log.nbytes
    report.peak_rss_bytes = perf.peak_rss_bytes()
    perf.incr("scale.ingests")
    return log, questions, report

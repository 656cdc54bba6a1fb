"""Seeded concurrent-traffic generator for the serving load harness.

Turns a historical :class:`~repro.forum.dataset.ForumDataset` into a
schedule of *requests* against the async serving stack: question
queries from a population of fresh concurrent askers, interleaved with
event submissions (new answered threads) that keep the engine's
sliding window moving.  Arrivals follow a bursty mixture — a uniform
background plus Laplace-shaped flash crowds around a few burst centres
— because admission control and micro-batching are only exercised by
load that actually clumps.

Everything is drawn from one ``numpy`` generator seeded by
``TrafficConfig.seed``: identical configs produce identical schedules
(arrival times, asker ids, bodies, answers) on any machine, which is
what makes the load harness bit-reproducible under the virtual clock.

Two time axes: ``arrival_s`` is *virtual seconds* on the serving clock
(latency is measured on this axis), while thread timestamps are *forum
hours* continuing the dataset's own clock at
``hours_per_second`` per virtual second.  Requests are emitted in
arrival order with non-decreasing ``created_at``, so the StreamGuard's
stream-clock invariants hold along the schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataset import ForumDataset
from .models import Post, Thread

__all__ = [
    "TrafficConfig",
    "TrafficRequest",
    "generate_traffic",
    "scenario_seed_sequence",
    "derive_rng",
]


def _label_key(label: str) -> int:
    """A stable 64-bit spawn key for a scenario label.

    sha256-derived, so it depends only on the label string — never on
    registration order, interpreter hash randomization, or how many
    other labels exist.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def scenario_seed_sequence(seed: int, label: str) -> np.random.SeedSequence:
    """A child :class:`~numpy.random.SeedSequence` for one scenario label.

    The spawn mechanism (``SeedSequence(entropy, spawn_key=...)``) is
    how numpy derives statistically independent child streams; keying
    the spawn by a content hash of the label instead of a running index
    (and instead of the old ``seed + i`` arithmetic) means adding,
    removing or reordering scenario presets can never perturb another
    preset's stream — the property the cross-preset stability test
    pins.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=(_label_key(label),))


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """A seeded generator on the label's independent spawned stream."""
    return np.random.default_rng(scenario_seed_sequence(seed, label))


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one synthetic load run."""

    n_askers: int = 1000  # distinct fresh askers, one query each
    n_events: int = 200  # answered-thread submissions interleaved
    duration_s: float = 60.0  # virtual seconds the arrivals span
    n_bursts: int = 4
    burst_fraction: float = 0.6  # share of arrivals inside bursts
    burst_width_s: float = 0.5  # Laplace scale around each burst centre
    # Forum hours that pass per virtual second; the default keeps a
    # 60 s run well inside one refit interval.
    hours_per_second: float = 0.01
    max_answers_per_event: int = 3
    seed: int = 0
    # Scenario label for the RNG stream.  Empty (the default) keeps the
    # legacy ``default_rng(seed)`` stream bit-identical to older
    # versions; when set, the schedule draws from the label's spawned
    # ``SeedSequence`` child so each scenario preset gets its own
    # independent stream regardless of what other presets exist.
    scenario: str = ""

    def __post_init__(self):
        if self.n_askers < 1:
            raise ValueError("n_askers must be >= 1")
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if self.duration_s <= 0 or self.hours_per_second <= 0:
            raise ValueError("durations must be positive")
        if self.n_bursts < 0 or self.burst_width_s < 0:
            raise ValueError("burst shape must be non-negative")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise ValueError("burst_fraction must be in [0, 1]")
        if self.max_answers_per_event < 1:
            raise ValueError("max_answers_per_event must be >= 1")


@dataclass(frozen=True)
class TrafficRequest:
    """One scheduled submission against the service."""

    kind: str  # "query" | "event"
    arrival_s: float  # virtual seconds from the start of the run
    thread: Thread


def _arrivals(rng: np.random.Generator, n: int, cfg: TrafficConfig):
    """Bursty arrival offsets in [0, duration_s)."""
    times = rng.uniform(0.0, cfg.duration_s, size=n)
    if cfg.n_bursts and cfg.burst_fraction > 0:
        centres = rng.uniform(0.0, cfg.duration_s, size=cfg.n_bursts)
        in_burst = rng.random(n) < cfg.burst_fraction
        which = rng.integers(0, cfg.n_bursts, size=n)
        jitter = rng.laplace(0.0, max(cfg.burst_width_s, 1e-9), size=n)
        burst_times = centres[which] + jitter
        times = np.where(in_burst, burst_times, times)
    eps = np.finfo(float).eps * cfg.duration_s
    return np.clip(times, 0.0, cfg.duration_s - eps)


def generate_traffic(
    dataset: ForumDataset, config: TrafficConfig | None = None
) -> list[TrafficRequest]:
    """Build the seeded request schedule, sorted by arrival time.

    Queries come from fresh asker ids above every id in ``dataset`` (so
    an asker never excludes itself from the candidate set); events are
    new answered threads whose askers and answerers are sampled from
    the historical populations, keeping refits feasible during load.
    Bodies are resampled from the dataset's own posts so the fitted
    topic model stays in-vocabulary.
    """
    cfg = config or TrafficConfig()
    if len(dataset) == 0:
        raise ValueError("traffic generation needs a non-empty dataset")
    if cfg.scenario:
        rng = derive_rng(cfg.seed, f"traffic/{cfg.scenario}")
    else:
        rng = np.random.default_rng(cfg.seed)

    users = sorted(
        {t.asker for t in dataset} | {a for t in dataset for a in t.answerers}
    )
    answerers = sorted({a for t in dataset for a in t.answerers})
    askers = sorted({t.asker for t in dataset})
    question_bodies = [t.question.body for t in dataset]
    answer_bodies = [a.body for t in dataset for a in t.answers]
    if not answer_bodies:
        answer_bodies = question_bodies

    next_user = max(users) + 1
    next_thread = max(t.thread_id for t in dataset) + 1
    next_post = max(p.post_id for t in dataset for p in t.posts) + 1
    t0_hours = max(t.created_at for t in dataset)

    n = cfg.n_askers + cfg.n_events
    arrivals = _arrivals(rng, n, cfg)
    kinds = np.array(
        ["query"] * cfg.n_askers + ["event"] * cfg.n_events, dtype=object
    )
    # Pre-draw per-request randomness in schedule order so the output
    # depends only on the seed, not on sort incidentals.
    order = np.argsort(arrivals, kind="stable")
    arrivals, kinds = arrivals[order], kinds[order]

    query_askers = next_user + rng.permutation(cfg.n_askers)
    requests: list[TrafficRequest] = []
    last_created = t0_hours
    q_idx = 0
    for arrival, kind in zip(arrivals, kinds):
        created = t0_hours + float(arrival) * cfg.hours_per_second
        created = max(created, last_created)  # guard's stream clock
        last_created = created
        thread_id = next_thread
        next_thread += 1
        if kind == "query":
            author = int(query_askers[q_idx])
            q_idx += 1
            body = question_bodies[rng.integers(len(question_bodies))]
            question = Post(
                post_id=next_post,
                thread_id=thread_id,
                author=author,
                timestamp=created,
                votes=0,
                body=body,
                is_question=True,
            )
            next_post += 1
            requests.append(
                TrafficRequest("query", float(arrival), Thread(question))
            )
            continue
        author = int(askers[rng.integers(len(askers))])
        question = Post(
            post_id=next_post,
            thread_id=thread_id,
            author=author,
            timestamp=created,
            votes=int(rng.integers(0, 4)),
            body=question_bodies[rng.integers(len(question_bodies))],
            is_question=True,
        )
        next_post += 1
        answers = []
        k = int(rng.integers(1, cfg.max_answers_per_event + 1))
        who = rng.choice(len(answerers), size=min(k, len(answerers)),
                         replace=False)
        for u in who:
            answers.append(
                Post(
                    post_id=next_post,
                    thread_id=thread_id,
                    author=int(answerers[int(u)]),
                    timestamp=created + float(rng.exponential(6.0)),
                    votes=int(rng.integers(0, 6)),
                    body=answer_bodies[rng.integers(len(answer_bodies))],
                    is_question=False,
                )
            )
            next_post += 1
        requests.append(
            TrafficRequest("event", float(arrival), Thread(question, answers))
        )
    return requests

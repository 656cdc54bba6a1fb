"""Golden digests of exact feature matrices.

``feature_matrix`` output is pinned bit for bit: the sha256 of
``feature_matrix(pairs).tobytes()`` for three pair populations must
match ``tests/golden/feature_digests.json``.

* ``table1`` — the Table-I training pairs (every positive plus one
  sampled negative each); every positive runs the in-window
  leakage guard.
* ``serving`` — fresh re-asked questions, each scored against every
  candidate of a warmed :class:`ServingCore`, one block per question as
  the serving path featurizes them.
* ``mixed`` — positives, negatives and asker self-pairs together with
  unseen users and unseen threads, interleaved so rows of one thread
  are split by rows of another and row order is checked.

Any change to a feature value, its column or its row changes a digest.
Regenerate deliberately with ``REPRO_REGEN_GOLDEN=1 pytest
tests/core/test_feature_digests.py`` and commit the diff.
"""

import dataclasses
import hashlib
import itertools
import json
import os
from pathlib import Path

import pytest

from repro.core.serving.service import OnlineReport
from repro.forum.models import Thread

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "feature_digests.json"
)
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

N_REASKED = 12


def digest(x) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()


def reasked(threads, dataset):
    """Question-only copies of ``threads`` under fresh thread/post ids."""
    next_tid = max(t.thread_id for t in dataset) + 1
    next_post = max(p.post_id for t in dataset for p in t.posts) + 1
    return [
        Thread(
            dataclasses.replace(
                t.question, thread_id=next_tid + i, post_id=next_post + i
            )
        )
        for i, t in enumerate(threads)
    ]


def table1_pairs(dataset):
    records = dataset.answer_records()
    pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
    pairs += [
        (u, dataset.thread(tid))
        for u, tid in dataset.sample_negative_pairs(len(records), seed=0)
    ]
    return pairs


def mixed_interleaved(dataset):
    records = dataset.answer_records()[:120]
    seen = [(r.user, dataset.thread(r.thread_id)) for r in records]
    seen += [
        (u, dataset.thread(tid))
        for u, tid in dataset.sample_negative_pairs(120, seed=3)
    ]
    seen += [(t.asker, t) for t in dataset.threads[:40]]
    fresh = reasked(dataset.threads[-20:], dataset)
    users = sorted(dataset.answerers)[:15]
    unseen = [(999_000 + i, t) for i, t in enumerate(dataset.threads[:20])]
    unseen += [(u, t) for t, u in zip(fresh, itertools.cycle(users))]
    unseen += [(u, t) for t in fresh[:5] for u in users[:3]]
    unseen += [(998_000 + i, t) for i, t in enumerate(fresh)]
    pairs = []
    for a, b in itertools.zip_longest(seen, unseen):
        pairs += [p for p in (a, b) if p is not None]
    return pairs


def serving_digest(core, dataset) -> str:
    h = hashlib.sha256()
    report = OnlineReport()
    extractor = core._predictor.extractor
    for question in reasked(dataset.threads[-N_REASKED:], dataset):
        prepared, status = core.prepare_query(
            question, dataset.duration_hours, report
        )
        assert status == "ok"
        pairs = [(u, question) for u in prepared.rank_candidates]
        h.update(extractor.feature_matrix(pairs).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def computed(dataset, extractor, serving_core):
    return {
        "table1": digest(extractor.feature_matrix(table1_pairs(dataset))),
        "serving": serving_digest(serving_core, dataset),
        "mixed": digest(extractor.feature_matrix(mixed_interleaved(dataset))),
    }


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize("name", ["table1", "serving", "mixed"])
def test_feature_digest_matches_golden(computed, name):
    if REGEN:
        GOLDEN_PATH.write_text(
            json.dumps({"digests": computed}, indent=1, sort_keys=True)
            + "\n"
        )
        pytest.skip("regenerated golden feature digests")
    assert computed[name] == golden()[name], (
        f"feature matrix of the {name!r} pairs changed; if intended, "
        "regenerate with REPRO_REGEN_GOLDEN=1"
    )

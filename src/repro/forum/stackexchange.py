"""Loaders for real Stack Exchange data.

The paper collected its dataset through the Stack Exchange API
(questions with the "Python" tag over 30 days).  These loaders accept
the two standard offline formats so the pipeline can run on real data
when it is available:

* :func:`load_posts_xml` — the ``Posts.xml`` file from the official
  Stack Exchange data dump (``PostTypeId`` 1 = question, 2 = answer);
* :func:`load_api_json` — the JSON returned by the API's ``/questions``
  endpoint with the ``withbody`` filter and answers nested per
  question.

Both produce a :class:`~repro.forum.dataset.ForumDataset` with
timestamps converted to hours since the earliest question, matching
the synthetic generator's conventions.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path

from .dataset import ForumDataset
from .models import Post, Thread

__all__ = ["load_posts_xml", "load_api_json"]

_ANONYMOUS_USER = -1


def _parse_dump_timestamp(value: str) -> float:
    """Stack Exchange dump timestamps: ``2018-06-03T10:01:02.347``."""
    dt = datetime.fromisoformat(value)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _tags_match(tags_attr: str, required_tag: str | None) -> bool:
    if required_tag is None:
        return True
    # Dump format: "<python><pandas>"; be tolerant of bare "python|pandas".
    tags = tags_attr.replace("><", "|").strip("<>").split("|") if tags_attr else []
    return required_tag.lower() in (t.lower() for t in tags)


def load_posts_xml(
    path: str | Path, *, required_tag: str | None = None
) -> ForumDataset:
    """Load a data-dump ``Posts.xml`` into a forum dataset.

    Questions missing an owner, and answers whose parent question was
    filtered out or missing, are skipped.  Timestamps are rebased to
    hours after the earliest kept question.
    """
    path = Path(path)
    questions: dict[int, dict] = {}
    answers: list[dict] = []
    for _, elem in ET.iterparse(str(path), events=("end",)):
        if elem.tag != "row":
            continue
        post_type = elem.get("PostTypeId")
        try:
            record = {
                "post_id": int(elem.get("Id")),
                "epoch": _parse_dump_timestamp(elem.get("CreationDate")),
                "votes": int(elem.get("Score", "0")),
                "body": elem.get("Body", ""),
                "author": int(elem.get("OwnerUserId", _ANONYMOUS_USER)),
            }
        except (TypeError, ValueError):
            elem.clear()
            continue
        if post_type == "1":
            if _tags_match(elem.get("Tags", ""), required_tag):
                questions[record["post_id"]] = record
        elif post_type == "2":
            parent = elem.get("ParentId")
            if parent is not None:
                record["parent_id"] = int(parent)
                answers.append(record)
        elem.clear()
    if not questions:
        return ForumDataset([])
    origin = min(q["epoch"] for q in questions.values())

    def hours(epoch: float) -> float:
        return max((epoch - origin) / 3600.0, 0.0)

    threads: dict[int, Thread] = {}
    for qid, q in questions.items():
        threads[qid] = Thread(
            question=Post(
                post_id=q["post_id"],
                thread_id=qid,
                author=q["author"],
                timestamp=hours(q["epoch"]),
                votes=q["votes"],
                body=q["body"],
                is_question=True,
            )
        )
    for a in answers:
        thread = threads.get(a["parent_id"])
        if thread is None:
            continue
        thread.add_answer(
            Post(
                post_id=a["post_id"],
                thread_id=a["parent_id"],
                author=a["author"],
                timestamp=hours(a["epoch"]),
                votes=a["votes"],
                body=a["body"],
                is_question=False,
            )
        )
    return ForumDataset(threads.values())


def load_api_json(path: str | Path) -> ForumDataset:
    """Load Stack Exchange API ``/questions`` JSON (answers nested).

    Expects the standard envelope ``{"items": [...]}`` or a bare list
    of question objects, each carrying ``question_id``,
    ``creation_date`` (epoch seconds), ``score``, ``body``,
    ``owner.user_id`` and optionally ``answers`` with the same fields
    (``answer_id`` instead of ``question_id``).  A question without
    ``question_id`` raises ``ValueError`` naming its index.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    items = payload.get("items", payload) if isinstance(payload, dict) else payload
    if not isinstance(items, list):
        raise ValueError("expected a list of questions or an 'items' envelope")
    if not items:
        return ForumDataset([])
    origin = min(float(q["creation_date"]) for q in items)

    def hours(epoch: float) -> float:
        return max((epoch - origin) / 3600.0, 0.0)

    def owner_id(obj: dict) -> int:
        owner = obj.get("owner") or {}
        return int(owner.get("user_id", _ANONYMOUS_USER))

    threads = []
    for index, q in enumerate(items):
        if "question_id" not in q:
            raise ValueError(f"question record {index} has no 'question_id'")
        qid = int(q["question_id"])
        thread = Thread(
            question=Post(
                post_id=qid,
                thread_id=qid,
                author=owner_id(q),
                timestamp=hours(float(q["creation_date"])),
                votes=int(q.get("score", 0)),
                body=str(q.get("body", "")),
                is_question=True,
            )
        )
        for a in q.get("answers", []):
            thread.add_answer(
                Post(
                    post_id=int(a["answer_id"]),
                    thread_id=qid,
                    author=owner_id(a),
                    timestamp=hours(float(a["creation_date"])),
                    votes=int(a.get("score", 0)),
                    body=str(a.get("body", "")),
                    is_question=False,
                )
            )
        threads.append(thread)
    return ForumDataset(threads)

"""Tests for repro.forum.stackexchange — real-data loaders."""

import json

import pytest

from repro.forum.stackexchange import load_api_json, load_posts_xml

POSTS_XML = """<?xml version="1.0" encoding="utf-8"?>
<posts>
  <row Id="1" PostTypeId="1" CreationDate="2018-06-03T10:00:00.000"
       Score="5" Body="&lt;p&gt;How do I sort a list?&lt;/p&gt;"
       OwnerUserId="10" Tags="&lt;python&gt;&lt;sorting&gt;" />
  <row Id="2" PostTypeId="2" ParentId="1"
       CreationDate="2018-06-03T11:30:00.000" Score="3"
       Body="&lt;p&gt;Use &lt;code&gt;sorted()&lt;/code&gt;&lt;/p&gt;"
       OwnerUserId="11" />
  <row Id="3" PostTypeId="1" CreationDate="2018-06-04T09:00:00.000"
       Score="0" Body="&lt;p&gt;CSS question&lt;/p&gt;" OwnerUserId="12"
       Tags="&lt;css&gt;" />
  <row Id="4" PostTypeId="2" ParentId="3"
       CreationDate="2018-06-04T10:00:00.000" Score="1"
       Body="&lt;p&gt;some answer&lt;/p&gt;" OwnerUserId="13" />
  <row Id="5" PostTypeId="2" ParentId="999"
       CreationDate="2018-06-04T10:00:00.000" Score="1"
       Body="&lt;p&gt;orphan answer&lt;/p&gt;" OwnerUserId="14" />
</posts>
"""

API_JSON = {
    "items": [
        {
            "question_id": 100,
            "creation_date": 1528020000,
            "score": 7,
            "body": "<p>What is a decorator?</p>",
            "owner": {"user_id": 20},
            "answers": [
                {
                    "answer_id": 101,
                    "creation_date": 1528023600,
                    "score": 4,
                    "body": "<p>A function wrapper.</p>",
                    "owner": {"user_id": 21},
                }
            ],
        },
        {
            "question_id": 200,
            "creation_date": 1528027200,
            "score": 1,
            "body": "<p>Another question</p>",
            "owner": {"user_id": 22},
        },
    ]
}


@pytest.fixture
def posts_xml_path(tmp_path):
    path = tmp_path / "Posts.xml"
    path.write_text(POSTS_XML)
    return path


class TestPostsXml:
    def test_loads_questions_and_answers(self, posts_xml_path):
        ds = load_posts_xml(posts_xml_path)
        assert len(ds) == 2
        thread = ds.thread(1)
        assert thread.asker == 10
        assert thread.answerers == [11]
        assert thread.question.votes == 5
        assert "sorted()" in thread.answer_by(11).body

    def test_timestamps_rebased_to_hours(self, posts_xml_path):
        ds = load_posts_xml(posts_xml_path)
        thread = ds.thread(1)
        assert thread.created_at == 0.0
        assert thread.answer_by(11).timestamp == pytest.approx(1.5)
        assert ds.thread(3).created_at == pytest.approx(23.0)

    def test_tag_filter(self, posts_xml_path):
        ds = load_posts_xml(posts_xml_path, required_tag="python")
        assert len(ds) == 1
        assert 1 in ds and 3 not in ds

    def test_tag_filter_case_insensitive(self, posts_xml_path):
        assert len(load_posts_xml(posts_xml_path, required_tag="Python")) == 1

    def test_orphan_answers_skipped(self, posts_xml_path):
        ds = load_posts_xml(posts_xml_path)
        all_answer_ids = {a.post_id for t in ds for a in t.answers}
        assert 5 not in all_answer_ids

    def test_empty_when_nothing_matches(self, posts_xml_path):
        ds = load_posts_xml(posts_xml_path, required_tag="golang")
        assert len(ds) == 0


class TestApiJson:
    @pytest.fixture
    def api_path(self, tmp_path):
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(API_JSON))
        return path

    def test_loads_envelope(self, api_path):
        ds = load_api_json(api_path)
        assert len(ds) == 2
        thread = ds.thread(100)
        assert thread.asker == 20
        assert thread.answerers == [21]
        assert thread.question.votes == 7

    def test_hours_rebased(self, api_path):
        ds = load_api_json(api_path)
        assert ds.thread(100).created_at == 0.0
        assert ds.thread(100).answer_by(21).timestamp == pytest.approx(1.0)
        assert ds.thread(200).created_at == pytest.approx(2.0)

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(API_JSON["items"]))
        assert len(load_api_json(path)) == 2

    def test_missing_owner_is_anonymous(self, tmp_path):
        payload = {
            "items": [
                {
                    "question_id": 1,
                    "creation_date": 1528020000,
                    "score": 0,
                    "body": "",
                }
            ]
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(payload))
        ds = load_api_json(path)
        assert ds.thread(1).asker == -1

    def test_non_list_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"items": "nope"}))
        with pytest.raises(ValueError):
            load_api_json(path)

    def test_missing_question_id_names_record(self, tmp_path):
        items = [dict(q) for q in API_JSON["items"]]
        del items[1]["question_id"]
        path = tmp_path / "no_id.json"
        path.write_text(json.dumps({"items": items}))
        with pytest.raises(ValueError, match="record 1 has no 'question_id'"):
            load_api_json(path)

    def test_pipeline_integration(self, api_path):
        """Loaded real-format data flows through preprocessing."""
        ds = load_api_json(api_path)
        clean, report = ds.preprocess()
        assert len(clean) == 1  # question 200 has no answers
        assert report.questions_dropped_unanswered == 1

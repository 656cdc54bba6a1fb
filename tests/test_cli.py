"""Tests for repro.cli — the end-to-end command-line workflow."""

import pytest

from repro.cli import build_parser, main
from repro.forum import load_dataset


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "forum.jsonl"
    code = main(
        [
            "generate",
            "--output",
            str(path),
            "--questions",
            "250",
            "--users",
            "200",
            "--topics",
            "4",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_path(dataset_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "predictor.npz"
    code = main(
        [
            "train",
            "--input",
            str(dataset_path),
            "--model",
            str(path),
            "--topics",
            "4",
            "--betweenness-samples",
            "80",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_loadable_dataset(self, dataset_path):
        dataset = load_dataset(dataset_path)
        assert len(dataset) > 50
        # Default (non --raw) output is preprocessed: every thread answered.
        assert all(t.answers for t in dataset)

    def test_raw_keeps_unanswered(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        main(
            [
                "generate", "--output", str(path),
                "--questions", "100", "--users", "80", "--raw",
            ]
        )
        dataset = load_dataset(path)
        assert any(not t.answers for t in dataset)


class TestStats:
    def test_prints_summary(self, dataset_path, capsys):
        assert main(["stats", "--input", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "questions:" in out
        assert "density:" in out
        assert "graph qa:" in out


class TestTrainAndRoute:
    def test_model_file_created(self, model_path):
        assert model_path.exists()

    def test_route_prints_ranking(self, dataset_path, model_path, capsys):
        dataset = load_dataset(dataset_path)
        qid = dataset.threads[-1].thread_id
        code = main(
            [
                "route",
                "--input", str(dataset_path),
                "--model", str(model_path),
                "--question-id", str(qid),
                "--epsilon", "0.2",
            ]
        )
        out = capsys.readouterr().out
        if code == 0:
            assert "user" in out
            assert len(out.strip().splitlines()) >= 2
        else:
            assert "no eligible" in out

    def test_route_unknown_question(self, dataset_path, model_path, capsys):
        code = main(
            [
                "route",
                "--input", str(dataset_path),
                "--model", str(model_path),
                "--question-id", "99999999",
            ]
        )
        assert code == 1


class TestReplayFaults:
    def test_fault_spec_parsed(self):
        from repro.cli import _parse_fault_plan

        plan = _parse_fault_plan("seed=7,dup=0.05,ooo=0.1,nan=0.02")
        assert plan.seed == 7
        assert plan.duplicate_rate == 0.05
        assert plan.out_of_order_rate == 0.1
        assert plan.missing_field_rate == 0.02
        assert plan.truncate_rate == 0.0

    def test_bad_fault_spec_rejected(self):
        from repro.cli import _parse_fault_plan

        with pytest.raises(ValueError, match="bad --faults entry"):
            _parse_fault_plan("seed=7,bogus=1")

    def test_bad_spec_exits_with_usage_error(self, dataset_path, capsys):
        code = main(
            [
                "replay",
                "--input", str(dataset_path),
                "--faults", "nonsense",
            ]
        )
        assert code == 2
        assert "faults" in capsys.readouterr().err

    @pytest.mark.slow
    def test_faulted_replay_prints_degradation(self, dataset_path, capsys):
        code = main(
            [
                "replay",
                "--input", str(dataset_path),
                "--topics", "2",
                "--betweenness-samples", "50",
                "--refit-interval", "96",
                "--window", "360",
                "--warmup", "96",
                "--faults", "seed=7,dup=0.1,ooo=0.1,nan=0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation:" in out
        assert "faults injected:" in out


@pytest.mark.slow
class TestServe:
    def test_load_run_prints_latency_and_admission(self, dataset_path, capsys):
        code = main(
            [
                "serve",
                "--input",
                str(dataset_path),
                "--askers",
                "150",
                "--events",
                "30",
                "--duration",
                "20",
                "--seed",
                "3",
                "--topics",
                "4",
                "--betweenness-samples",
                "80",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "150 queries + 30 events" in out
        assert "query latency (simulated): p50 " in out
        assert "admission: " in out
        assert "batching: " in out
        assert "health: ok" in out


class TestEvaluate:
    def test_prints_table(self, dataset_path, capsys):
        code = main(
            [
                "evaluate",
                "--input", str(dataset_path),
                "--folds", "3",
                "--topics", "4",
                "--betweenness-samples", "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a_uq" in out and "v_uq" in out and "r_uq" in out


class TestValidate:
    def test_clean_dataset_ok(self, dataset_path, capsys):
        assert main(["validate", "--input", str(dataset_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_strict_fails_on_violations(self, tmp_path, capsys):
        import json

        from repro.forum.io import thread_to_dict
        from repro.forum.models import Post, Thread

        bad = Thread(
            question=Post(
                post_id=0, thread_id=0, author=1, timestamp=5.0,
                votes=0, body="<p>q</p>", is_question=True,
            ),
            answers=[
                Post(
                    post_id=1, thread_id=0, author=1, timestamp=3.0,
                    votes=0, body="<p>a</p>", is_question=False,
                )
            ],
        )
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(thread_to_dict(bad)) + "\n")
        assert main(["validate", "--input", str(path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "self_answer" in out
        assert "answer_before_question" in out

    def test_repair_to_writes_clean_copy(self, tmp_path, capsys):
        import json

        from repro.forum.io import thread_to_dict
        from repro.forum.models import Post, Thread

        bad = Thread(
            question=Post(
                post_id=0, thread_id=0, author=1, timestamp=5.0,
                votes=0, body="<p>q</p>", is_question=True,
            ),
            answers=[
                Post(
                    post_id=1, thread_id=0, author=1, timestamp=6.0,
                    votes=0, body="<p>a</p>", is_question=False,
                ),
                Post(
                    post_id=2, thread_id=0, author=3, timestamp=7.0,
                    votes=0, body="<p>b</p>", is_question=False,
                ),
            ],
        )
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(thread_to_dict(bad)) + "\n")
        fixed = tmp_path / "fixed.jsonl"
        code = main(
            ["validate", "--input", str(path), "--repair-to", str(fixed)]
        )
        assert code == 0
        repaired = load_dataset(fixed)
        assert repaired.thread(0).answerers == [3]  # self-answer dropped


class TestScale:
    def test_streams_and_prints_report(self, capsys):
        code = main(
            [
                "scale",
                "--users",
                "2000",
                "--questions",
                "1500",
                "--chunk-questions",
                "500",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streamed 1500 questions" in out
        assert "answer rows" in out
        assert "peak RSS" in out

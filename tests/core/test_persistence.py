"""Tests for repro.core.persistence — predictor save/load."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.persistence import (
    CheckpointCorruptError,
    load_checkpoint,
    load_predictor,
    save_predictor,
    write_checkpoint,
)
from repro.core.pipeline import ForumPredictor


@pytest.fixture(scope="module")
def fitted(dataset, predictor_config):
    return ForumPredictor(predictor_config).fit(dataset)


class TestRoundTrip:
    def test_predictions_identical(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        loaded = load_predictor(path, dataset)
        users = list(dataset.answerers)[:5]
        thread = dataset.threads[0]
        # Topic distributions are re-inferred on load (transform vs. the
        # training-run gamma), so tiny numeric differences are expected.
        for user in users:
            orig = fitted.predict(user, thread)
            back = loaded.predict(user, thread)
            assert back.answer_probability == pytest.approx(
                orig.answer_probability, abs=1e-3
            )
            assert back.votes == pytest.approx(orig.votes, abs=1e-2)
            assert back.response_time == pytest.approx(
                orig.response_time, rel=1e-2
            )

    def test_config_preserved(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        loaded = load_predictor(path, dataset)
        assert loaded.config == fitted.config

    def test_batch_predictions_match(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        loaded = load_predictor(path, dataset)
        pairs = [(u, dataset.threads[1]) for u in list(dataset.answerers)[:6]]
        a = fitted.predict_batch(pairs)
        b = loaded.predict_batch(pairs)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], rtol=0.05, atol=0.01)

    def test_unfitted_rejected(self, predictor_config, tmp_path):
        with pytest.raises(ValueError, match="not fitted"):
            save_predictor(ForumPredictor(predictor_config), tmp_path / "x.npz")

    def test_file_is_single_archive(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        assert path.exists()
        assert path.stat().st_size > 1000


class TestWindowFingerprint:
    """Format v2 pins the archive to the exact feature window."""

    def test_wrong_thread_count_rejected(self, fitted, dataset, tmp_path):
        from repro.core.persistence import WindowMismatchError

        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        truncated = dataset.subset(
            t.thread_id for t in dataset.threads[: len(dataset) - 3]
        )
        with pytest.raises(WindowMismatchError, match="threads"):
            load_predictor(path, truncated)

    def test_same_count_different_threads_rejected(
        self, fitted, dataset, tmp_path
    ):
        import dataclasses

        from repro.core.persistence import WindowMismatchError
        from repro.forum.dataset import ForumDataset

        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        # Same thread count, but one question nudged in time: the count
        # check passes and the fingerprint catches the difference.
        first = dataset.threads[0]
        nudged = dataclasses.replace(
            first,
            question=dataclasses.replace(
                first.question, timestamp=first.question.timestamp + 0.5
            ),
        )
        tampered = ForumDataset([nudged] + dataset.threads[1:])
        assert len(tampered) == len(dataset)
        with pytest.raises(WindowMismatchError, match="fingerprint"):
            load_predictor(path, tampered)

    def test_exact_window_accepted(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        loaded = load_predictor(path, dataset)
        assert loaded.extractor.window_fingerprint == dataset.fingerprint()


class TestCrashConsistentCheckpoint:
    """write_checkpoint rotates generations; load_checkpoint verifies
    the digest and falls back to the previous snapshot on corruption."""

    @pytest.fixture()
    def checkpointed(self, fitted, tmp_path):
        path = tmp_path / "model.npz"
        write_checkpoint(fitted, path)
        write_checkpoint(fitted, path)  # second generation -> .prev exists
        return path

    def test_save_leaves_no_temp_files(self, fitted, dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_predictor(fitted, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_rotation_keeps_both_generations(self, checkpointed):
        names = sorted(p.name for p in checkpointed.parent.iterdir())
        assert names == [
            "model.manifest.json",
            "model.npz",
            "model.prev.manifest.json",
            "model.prev.npz",
        ]

    def test_clean_load_uses_current(self, checkpointed, dataset):
        result = load_checkpoint(checkpointed, dataset)
        assert not result.fallback_used
        assert result.diagnostic == ""
        assert result.predictor.extractor is not None

    def test_torn_write_falls_back_to_previous(self, checkpointed, dataset):
        data = checkpointed.read_bytes()
        checkpointed.write_bytes(data[: len(data) // 2])  # torn write
        result = load_checkpoint(checkpointed, dataset)
        assert result.fallback_used
        assert "previous snapshot" in result.diagnostic
        user = next(iter(dataset.answerers))
        prediction = result.predictor.predict(user, dataset.threads[0])
        assert np.isfinite(prediction.answer_probability)

    def test_digest_mismatch_detected(self, checkpointed, dataset):
        # Same-size bit flip: only the content digest can catch it.
        data = bytearray(checkpointed.read_bytes())
        data[len(data) // 2] ^= 0xFF
        checkpointed.write_bytes(bytes(data))
        result = load_checkpoint(checkpointed, dataset)
        assert result.fallback_used

    def test_both_generations_corrupt_raises(self, checkpointed, dataset):
        checkpointed.write_bytes(b"garbage")
        prev = checkpointed.with_name("model.prev.npz")
        prev.write_bytes(b"garbage")
        with pytest.raises(CheckpointCorruptError, match="no loadable"):
            load_checkpoint(checkpointed, dataset)

    def test_window_mismatch_not_swallowed(self, checkpointed, dataset):
        from repro.core.persistence import WindowMismatchError

        truncated = dataset.subset(
            t.thread_id for t in dataset.threads[: len(dataset) - 3]
        )
        with pytest.raises(WindowMismatchError):
            load_checkpoint(checkpointed, truncated)

    def test_single_generation_torn_raises(self, fitted, dataset, tmp_path):
        path = tmp_path / "model.npz"
        write_checkpoint(fitted, path)  # no .prev yet
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, dataset)


def _rewrite_meta(path, edit):
    """Apply ``edit`` to an archive's JSON metadata in place."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    edit(meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def _downgrade_to_v1(path):
    """Rewrite a v2 archive in the version-1 layout (no window block,
    bare vocabulary token list, minimal LDA header)."""

    def edit(meta):
        meta["version"] = 1
        del meta["window"]
        meta["vocabulary"] = meta["vocabulary"]["tokens"]
        meta["lda"].pop("vocab_size", None)

    _rewrite_meta(path, edit)


class TestFormatV1BackCompat:
    def test_v1_archive_loads(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        _downgrade_to_v1(path)
        loaded = load_predictor(path, dataset)
        assert loaded.config == fitted.config
        user = next(iter(dataset.answerers))
        thread = dataset.threads[0]
        assert loaded.predict(user, thread).answer_probability == pytest.approx(
            fitted.predict(user, thread).answer_probability, abs=1e-3
        )

    def test_v1_skips_window_check(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        _downgrade_to_v1(path)
        truncated = dataset.subset(
            t.thread_id for t in dataset.threads[: len(dataset) - 3]
        )
        loaded = load_predictor(path, truncated)  # no fingerprint to check
        assert loaded.extractor is not None

    def test_unknown_version_rejected(self, fitted, dataset, tmp_path):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)
        _rewrite_meta(path, lambda meta: meta.update(version=99))
        with pytest.raises(ValueError, match="version"):
            load_predictor(path, dataset)


class TestEngineTagBackCompat:
    """Archives written while two training engines existed record
    ``config["training_engine"]`` and ``lda["e_step"]``."""

    def _tagged(self, fitted, tmp_path, engine, e_step):
        path = tmp_path / "predictor.npz"
        save_predictor(fitted, path)

        def edit(meta):
            meta["config"]["training_engine"] = engine
            meta["lda"]["e_step"] = e_step

        _rewrite_meta(path, edit)
        return path

    @pytest.mark.parametrize("e_step", ["batched", "perdoc"])
    def test_fused_archive_loads_identically(
        self, fitted, dataset, tmp_path, e_step
    ):
        plain = tmp_path / "plain.npz"
        save_predictor(fitted, plain)
        tagged = self._tagged(fitted, tmp_path, "fused", e_step)
        a = load_predictor(plain, dataset)
        b = load_predictor(tagged, dataset)
        assert b.config == fitted.config
        pairs = [(u, dataset.threads[2]) for u in list(dataset.answerers)[:6]]
        expected, got = a.predict_batch(pairs), b.predict_batch(pairs)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])

    @pytest.mark.parametrize(
        "engine, e_step, field",
        [
            ("reference", "batched", "training_engine"),
            ("fused", "global", "e_step"),
        ],
    )
    def test_other_engines_rejected(
        self, fitted, dataset, tmp_path, engine, e_step, field
    ):
        path = self._tagged(fitted, tmp_path, engine, e_step)
        with pytest.raises(ValueError, match=field):
            load_predictor(path, dataset)


def _flat_weights(predictor):
    nets = [
        predictor.vote_model.network,
        predictor.timing_model.process.excitation_net,
        predictor.timing_model.process.decay_net,
    ]
    return [net.flat_parameters().copy() for net in nets if net is not None]


class TestWarmRefitAfterLoad:
    def test_loaded_warm_refit_matches_in_memory(
        self, dataset, predictor_config, tmp_path
    ):
        # A non-default seed and budgets: the loaded models must take
        # them from the saved config, as the in-memory ones did.
        config = replace(
            predictor_config,
            seed=5,
            vote_epochs=20,
            timing_epochs=20,
            warm_epochs=10,
        )
        in_memory = ForumPredictor(config).fit(dataset)
        path = tmp_path / "predictor.npz"
        save_predictor(in_memory, path)
        loaded = load_predictor(path, dataset)
        before = _flat_weights(loaded)
        in_memory.fit(dataset, warm_start=True)
        loaded.fit(dataset, warm_start=True)
        for old, new, expected in zip(
            before, _flat_weights(loaded), _flat_weights(in_memory)
        ):
            assert not np.array_equal(old, new)  # the refit trained
            np.testing.assert_array_equal(new, expected)

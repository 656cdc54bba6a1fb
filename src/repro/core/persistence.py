"""Persistence for trained predictors.

``save_predictor`` stores everything learned — the three task models'
weights, the scalers, the topic model and the configuration — in a
single ``.npz`` archive.  ``load_predictor`` restores the predictor
*without retraining*; it only needs the feature-window dataset back
(datasets have their own serialization in :mod:`repro.forum.io`), from
which the feature extractor's aggregates and graphs are rebuilt
deterministically.

Format v2 additionally snapshots a fingerprint of the feature window
(thread count plus a digest of the (thread_id, created_at) pairs, see
:func:`repro.forum.dataset.fingerprint_threads`); loading verifies the
supplied window against it, so a predictor can no longer be silently
rebuilt over the wrong threads.  Version-1 archives predate the
fingerprint and still load, without the check.

Writes are crash-consistent: archives land in a temporary file and are
moved into place with ``os.replace``, so a crash mid-save never leaves
a torn archive at the target path.  :func:`write_checkpoint` layers
rotation on top — the previous checkpoint is kept at ``<name>.prev.npz``
and each archive gets a content-digest manifest — and
:func:`load_checkpoint` verifies the digest before deserializing,
falling back to the previous snapshot when the current one is torn or
tampered rather than raising mid-serve.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..ml.network import MLP
from ..ml.scaler import StandardScaler
from ..topics.lda import LdaVariational
from ..topics.vocabulary import Vocabulary
from .features import FeatureExtractor
from .pipeline import ForumPredictor, PredictorConfig
from .topic_context import TopicModelContext

__all__ = [
    "save_predictor",
    "load_predictor",
    "WindowMismatchError",
    "CheckpointCorruptError",
    "CheckpointLoadResult",
    "write_checkpoint",
    "load_checkpoint",
]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class WindowMismatchError(ValueError):
    """The dataset supplied at load time is not the saved feature window."""


class CheckpointCorruptError(ValueError):
    """Neither the current nor the previous checkpoint could be loaded."""


def _mlp_arrays(prefix: str, net: MLP, meta: dict, arrays: dict) -> None:
    layer_meta = []
    for i, layer in enumerate(net.layers):
        arrays[f"{prefix}_w{i}"] = layer.weight
        arrays[f"{prefix}_b{i}"] = layer.bias
        layer_meta.append(
            {
                "in_dim": layer.in_dim,
                "out_dim": layer.out_dim,
                "activation": layer.activation.name,
            }
        )
    meta[prefix] = {"layers": layer_meta, "l2": net.l2}


def _mlp_from_arrays(prefix: str, meta: dict, arrays) -> MLP:
    layer_meta = meta[prefix]["layers"]
    sizes = [layer_meta[0]["in_dim"]] + [lm["out_dim"] for lm in layer_meta]
    hidden_act = layer_meta[0]["activation"] if len(layer_meta) > 1 else "identity"
    output_act = layer_meta[-1]["activation"]
    net = MLP(
        sizes,
        hidden_activation=hidden_act,
        output_activation=output_act,
        l2=meta[prefix]["l2"],
    )
    # Copy into the layers' arrays, which are views of the network's flat
    # parameter vector: rebinding them would leave the optimizer stepping
    # a detached vector on the next (warm) fit.
    for i, layer in enumerate(net.layers):
        layer.weight[...] = arrays[f"{prefix}_w{i}"]
        layer.bias[...] = arrays[f"{prefix}_b{i}"]
    return net


def _scaler_arrays(prefix: str, scaler: StandardScaler, meta: dict, arrays: dict):
    arrays[f"{prefix}_mean"] = scaler.mean_
    arrays[f"{prefix}_scale"] = scaler.scale_
    meta[prefix] = {"clip": scaler.clip}


def _scaler_from_arrays(prefix: str, meta: dict, arrays) -> StandardScaler:
    scaler = StandardScaler(clip=meta[prefix]["clip"])
    scaler.mean_ = arrays[f"{prefix}_mean"]
    scaler.scale_ = arrays[f"{prefix}_scale"]
    return scaler


def save_predictor(predictor: ForumPredictor, path: str | Path) -> None:
    """Persist a fitted predictor to a ``.npz`` archive (format v2)."""
    if predictor.extractor is None:
        raise ValueError("predictor is not fitted")
    topics = predictor.topics
    if not isinstance(topics.model, LdaVariational):
        raise ValueError(
            "only variational-LDA predictors can be persisted (the default)"
        )
    lda_meta, lda_lambda = topics.model.to_state()
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": _FORMAT_VERSION,
        "config": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in predictor.config.__dict__.items()
        },
        "window": {
            "n_threads": len(predictor.extractor.window),
            "fingerprint": predictor.extractor.window_fingerprint,
        },
        "horizon_reference": predictor._horizon_reference,
        "max_train_time": predictor.timing_model._max_train_time,
        "timing_predictor": predictor.timing_model.predictor,
        "omega": predictor.timing_model.process.omega,
        "vocabulary": topics.vocabulary.to_state(),
        "lda": lda_meta,
        "answer_intercept": predictor.answer_model.classifier.intercept_,
        "answer_l2": predictor.answer_model.classifier.l2,
    }
    arrays["lda_lambda"] = lda_lambda
    # The per-post topic cache is model state, not derived state: the
    # training posterior comes from warm-started E-steps whose history a
    # cold ``transform`` at load time cannot replay, so the distributions
    # are stored rather than re-inferred.
    if topics._post_topics:
        post_ids = sorted(topics._post_topics)
        arrays["post_topic_ids"] = np.asarray(post_ids, dtype=np.int64)
        arrays["post_topic_dists"] = np.stack(
            [topics._post_topics[pid] for pid in post_ids]
        )
    arrays["answer_coef"] = predictor.answer_model.classifier.coef_
    _scaler_arrays("answer_scaler", predictor.answer_model.scaler, meta, arrays)
    _scaler_arrays("vote_scaler", predictor.vote_model.scaler, meta, arrays)
    _scaler_arrays("timing_scaler", predictor.timing_model.scaler, meta, arrays)
    _mlp_arrays("vote_net", predictor.vote_model.network, meta, arrays)
    _mlp_arrays(
        "excitation_net", predictor.timing_model.process.excitation_net, meta, arrays
    )
    if predictor.timing_model.process.decay_net is not None:
        _mlp_arrays(
            "decay_net", predictor.timing_model.process.decay_net, meta, arrays
        )
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = _npz_path(path)
    # Write-temp + rename: np.savez appends ".npz" unless the name
    # already carries it, so the temporary name must end in ".npz" for
    # the replace to target the file actually written.
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez_compressed(tmp, **arrays)
    os.replace(tmp, path)


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _digest(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _prev_path(path: Path) -> Path:
    return path.with_name(path.stem + ".prev.npz")


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.stem + ".manifest.json")


def _write_json_atomic(payload: dict, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def write_checkpoint(predictor: ForumPredictor, path: str | Path) -> Path:
    """Save a rotating, digest-verified checkpoint of ``predictor``.

    The archive is written to a temporary file first, the previously
    current checkpoint (and its manifest) rotate to ``<name>.prev.*``,
    and only then does the new archive move into place — at every
    instant the path set contains at least one complete archive, so a
    crash at any step leaves :func:`load_checkpoint` something to serve.
    Returns the final archive path.
    """
    path = _npz_path(path)
    tmp = path.with_name(path.name + ".rotate.tmp.npz")
    save_predictor(predictor, tmp)
    manifest = {
        "digest": _digest(tmp),
        "size": tmp.stat().st_size,
        "format_version": _FORMAT_VERSION,
    }
    if path.exists():
        prev_manifest = _manifest_path(path)
        if prev_manifest.exists():
            os.replace(prev_manifest, _manifest_path(_prev_path(path)))
        os.replace(path, _prev_path(path))
    os.replace(tmp, path)
    _write_json_atomic(manifest, _manifest_path(path))
    perf.incr("resilience.checkpoints_written")
    return path


@dataclass(frozen=True)
class CheckpointLoadResult:
    """What :func:`load_checkpoint` served, and how degraded it is."""

    predictor: ForumPredictor
    fallback_used: bool = False
    diagnostic: str = ""


def _verify_manifest(path: Path) -> None:
    manifest_path = _manifest_path(path)
    if not manifest_path.exists():
        return  # archives written by bare save_predictor have none
    manifest = json.loads(manifest_path.read_text())
    if path.stat().st_size != manifest["size"]:
        raise CheckpointCorruptError(
            f"{path.name}: size {path.stat().st_size} != manifest "
            f"{manifest['size']} (torn write?)"
        )
    if _digest(path) != manifest["digest"]:
        raise CheckpointCorruptError(
            f"{path.name}: content digest does not match its manifest"
        )


def load_checkpoint(
    path: str | Path, feature_window: ForumDataset
) -> CheckpointLoadResult:
    """Load a checkpoint, falling back to the previous one if torn.

    The current archive is digest-verified against its manifest and
    deserialized; on any corruption (truncated file, digest mismatch,
    unreadable archive) the previous rotation is tried with the same
    checks.  A :class:`WindowMismatchError` is re-raised as-is — a
    wrong ``feature_window`` is a caller error, not disk corruption —
    and :class:`CheckpointCorruptError` is raised only when both
    generations fail.
    """
    path = _npz_path(path)
    failures: list[str] = []
    for candidate, is_fallback in ((path, False), (_prev_path(path), True)):
        if not candidate.exists():
            failures.append(f"{candidate.name}: missing")
            continue
        try:
            _verify_manifest(candidate)
            predictor = load_predictor(candidate, feature_window)
        except WindowMismatchError:
            raise
        except Exception as exc:  # noqa: BLE001 — collect and fall back
            failures.append(f"{candidate.name}: {type(exc).__name__}: {exc}")
            continue
        diagnostic = ""
        if is_fallback:
            perf.incr("resilience.checkpoint_fallbacks")
            diagnostic = (
                "current checkpoint unusable, served previous snapshot "
                f"({'; '.join(failures)})"
            )
        return CheckpointLoadResult(predictor, is_fallback, diagnostic)
    raise CheckpointCorruptError(
        "no loadable checkpoint generation: " + "; ".join(failures)
    )


def _check_window(meta: dict, feature_window: ForumDataset) -> None:
    """Format-v2 guard: the supplied window must be the one saved."""
    saved = meta.get("window")
    if saved is None:
        return  # v1 archive: no fingerprint was recorded
    if len(feature_window) != saved["n_threads"]:
        raise WindowMismatchError(
            f"feature window has {len(feature_window)} threads but the "
            f"predictor was saved over {saved['n_threads']}; pass the "
            "exact dataset the predictor was fitted on"
        )
    fingerprint = feature_window.fingerprint()
    if fingerprint != saved["fingerprint"]:
        raise WindowMismatchError(
            "feature window fingerprint mismatch: the supplied dataset "
            "holds different (thread_id, created_at) pairs than the one "
            "the predictor was saved over"
        )


def _topics_from_meta(meta: dict, arrays) -> TopicModelContext:
    """Restore the topic context from either archive format."""
    if meta["version"] >= 2:
        vocabulary = Vocabulary.from_state(meta["vocabulary"])
        lda = LdaVariational.from_state(meta["lda"], arrays["lda_lambda"])
    else:
        # v1 stored the bare token list and a minimal LDA header.
        vocabulary = Vocabulary.from_state({"tokens": meta["vocabulary"]})
        lda_meta = dict(meta["lda"])
        lda_meta.setdefault("vocab_size", len(vocabulary))
        lda = LdaVariational.from_state(lda_meta, arrays["lda_lambda"])
    post_topics: dict[int, np.ndarray] = {}
    if "post_topic_ids" in arrays:
        post_topics = {
            int(pid): dist
            for pid, dist in zip(
                arrays["post_topic_ids"], arrays["post_topic_dists"]
            )
        }
    return TopicModelContext(vocabulary, lda, post_topics=post_topics)


def load_predictor(
    path: str | Path, feature_window: ForumDataset
) -> ForumPredictor:
    """Restore a predictor saved by :func:`save_predictor`.

    ``feature_window`` must be the same dataset the predictor was fitted
    on (feature aggregates and graphs are rebuilt from it; the learned
    weights and topic model come from the archive).  Format-v2 archives
    carry the window's fingerprint and raise :class:`WindowMismatchError`
    when the supplied dataset does not match.
    """
    with np.load(Path(path)) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    if meta["version"] not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported predictor format version {meta['version']}")
    _check_window(meta, feature_window)
    config_dict = dict(meta["config"])
    # Archives from before the single training engine record it; only the
    # engine that is left ("fused") trained what today's code trains.
    engine = config_dict.pop("training_engine", "fused")
    if engine != "fused":
        raise ValueError(
            f"training_engine {engine!r} archives are no longer supported; "
            "refit the predictor"
        )
    for key in ("vote_hidden", "excitation_hidden"):
        config_dict[key] = tuple(config_dict[key])
    config = PredictorConfig(**config_dict)
    predictor = ForumPredictor(config)

    predictor.topics = _topics_from_meta(meta, arrays)
    predictor.extractor = FeatureExtractor(
        feature_window,
        predictor.topics,
        betweenness_sample_size=config.betweenness_sample_size,
        seed=config.seed,
    )
    predictor._horizon_reference = float(meta["horizon_reference"])

    # Answer model.
    from .answer_model import AnswerModel

    answer = AnswerModel(l2=meta["answer_l2"])
    answer.scaler = _scaler_from_arrays("answer_scaler", meta, arrays)
    answer.classifier.coef_ = arrays["answer_coef"]
    answer.classifier.intercept_ = float(meta["answer_intercept"])
    predictor.answer_model = answer

    # Vote model.
    from .vote_model import VoteModel

    vote = VoteModel(
        arrays["vote_net_w0"].shape[0],
        hidden=config.vote_hidden,
        epochs=config.vote_epochs,
        seed=config.seed,
    )
    vote.scaler = _scaler_from_arrays("vote_scaler", meta, arrays)
    vote.network = _mlp_from_arrays("vote_net", meta, arrays)
    vote._fitted = True
    predictor.vote_model = vote

    # Timing model.
    from .timing_model import TimingModel

    timing = TimingModel(
        arrays["excitation_net_w0"].shape[0],
        excitation_hidden=config.excitation_hidden,
        decay=config.decay,
        omega=float(meta["omega"]),
        predictor=meta["timing_predictor"],
        epochs=config.timing_epochs,
        seed=config.seed,
    )
    timing.scaler = _scaler_from_arrays("timing_scaler", meta, arrays)
    timing.process.excitation_net = _mlp_from_arrays(
        "excitation_net", meta, arrays
    )
    if "decay_net_w0" in arrays:
        timing.process.decay_net = _mlp_from_arrays("decay_net", meta, arrays)
    else:
        timing.process.decay_net = None
    timing._max_train_time = float(meta["max_train_time"])
    timing._fitted = True
    predictor.timing_model = timing
    return predictor

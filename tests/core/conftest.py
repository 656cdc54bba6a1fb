"""Shared fixtures for core tests: a small preprocessed forum + extractor."""

from dataclasses import replace

import pytest

from repro.core import (
    OnlineConfig,
    PredictorConfig,
    build_extractor,
    build_pair_dataset,
)
from repro.core.serving import RecommendationService, ServingCore
from repro.forum import ForumConfig, generate_forum
from repro.topics.lda import LdaVariational

SMALL_CONFIG = ForumConfig(n_users=250, n_questions=320, activity_tail=1.4)
PREDICTOR_CONFIG = PredictorConfig(
    n_topics=4,
    vote_epochs=60,
    timing_epochs=60,
    betweenness_sample_size=100,
)


@pytest.fixture(scope="session")
def forum():
    return generate_forum(SMALL_CONFIG, seed=7)


@pytest.fixture(scope="session")
def dataset(forum):
    clean, _ = forum.dataset.preprocess()
    return clean


@pytest.fixture(scope="session")
def predictor_config():
    return PREDICTOR_CONFIG


@pytest.fixture(scope="session")
def extractor(dataset):
    return build_extractor(dataset, PREDICTOR_CONFIG)


@pytest.fixture(scope="session")
def pairs(dataset, extractor):
    return build_pair_dataset(dataset, extractor, seed=0)


@pytest.fixture(scope="session")
def serving_core(dataset):
    """A ServingCore warmed on the whole forum (short model fits: the
    features do not depend on the heads)."""
    cfg = replace(PREDICTOR_CONFIG, vote_epochs=5, timing_epochs=5)
    core = ServingCore(cfg, OnlineConfig())
    RecommendationService(core).warm(dataset)
    assert core.warmed
    return core


@pytest.fixture
def transform_sizes(monkeypatch):
    """Batch size of every ``LdaVariational.transform`` call the test
    makes (clear it to start counting later)."""
    sizes: list[int] = []
    original = LdaVariational.transform

    def counting(self, docs):
        sizes.append(len(docs))
        return original(self, docs)

    monkeypatch.setattr(LdaVariational, "transform", counting)
    return sizes

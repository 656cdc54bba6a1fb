"""Golden-replay and differential regression tests for the scenario matrix.

Two layers of protection for the full serving stack:

* **Golden replays** — every preset is replayed once at a pinned
  (seed, scale) through the guarded replay with its own fault plan; the
  sha256 digest of every routing decision and degradation record must
  match ``tests/golden/scenario_digests.json``.  Any behavioural drift
  anywhere in the stack (generation, distortion, featurization, refit
  scheduling, ranking, LP routing, guard decisions) changes a digest.
  Regenerate deliberately with ``REPRO_REGEN_GOLDEN=1 pytest
  tests/test_scenario_regression.py`` and commit the diff.

* **Differential replays** — on a clean stream (no fault plan) the
  hardened path must be bit-identical to the plain path for every
  preset.  This is the guarded==plain contract of
  :mod:`repro.core.online` extended across every scenario regime.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import ResilienceConfig, ServingCore
from repro.core import replay as replay_stream
from repro.forum.scenarios import build_scenario, list_scenarios, scenario_digest
from repro.forum.scenarios.runner import SCENARIO_ONLINE, SCENARIO_PREDICTOR

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "scenario_digests.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

SEED = 11
SCALE = 0.3
ALL_PRESETS = list_scenarios()


def replay(dataset, fault_plan=None, *, guarded=True):
    core = ServingCore(
        SCENARIO_PREDICTOR,
        SCENARIO_ONLINE,
        ResilienceConfig() if guarded else None,
    )
    return replay_stream(core, dataset, fault_plan)


@pytest.fixture(scope="module")
def scenario_data():
    return {
        name: build_scenario(name, seed=SEED, scale=SCALE)
        for name in ALL_PRESETS
    }


@pytest.fixture(scope="module")
def pinned_digests(scenario_data):
    """Digest of each preset's guarded replay under its own fault plan."""
    digests = {}
    for name, data in scenario_data.items():
        report = replay(data.dataset, data.preset.fault_plan)
        digests[name] = scenario_digest(report)
    return digests


class TestGoldenReplays:
    def test_golden_file_exists(self):
        if REGEN:
            pytest.skip("regenerating golden digests")
        assert GOLDEN_PATH.exists(), (
            "tests/golden/scenario_digests.json missing; generate it with "
            "REPRO_REGEN_GOLDEN=1 pytest tests/test_scenario_regression.py"
        )

    def test_digests_match_golden(self, pinned_digests):
        if REGEN:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(
                    {"seed": SEED, "scale": SCALE, "digests": pinned_digests},
                    indent=1,
                    sort_keys=True,
                )
                + "\n"
            )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden["seed"] == SEED and golden["scale"] == SCALE
        assert golden["digests"] == pinned_digests, (
            "scenario replay drifted from the committed golden digests; if "
            "the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
            "and commit the new digests"
        )

    def test_every_preset_is_pinned(self, pinned_digests):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert sorted(golden["digests"]) == sorted(ALL_PRESETS)
        # Distinct regimes must not collapse onto one digest.
        assert len(set(pinned_digests.values())) == len(pinned_digests)


def assert_reports_identical(plain, other):
    assert plain.n_questions_seen == other.n_questions_seen
    assert plain.n_routed == other.n_routed
    assert plain.n_refits == other.n_refits
    assert len(plain.rankings) == len(other.rankings)
    for (ranked_a, actual_a), (ranked_b, actual_b) in zip(
        plain.rankings, other.rankings
    ):
        assert ranked_a == ranked_b
        assert actual_a == actual_b
    assert plain.routed_scores == other.routed_scores


class TestDifferentialReplays:
    """Guarded-no-faults == plain on every preset."""

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_guarded_equals_plain(self, scenario_data, name):
        dataset = scenario_data[name].dataset
        plain = replay(dataset, guarded=False)
        guarded = replay(dataset, guarded=True)
        assert_reports_identical(plain, guarded)
        assert guarded.degradation is not None
        assert guarded.degradation.ok, (
            f"{name}: clean scenario stream triggered guard actions "
            f"{guarded.degradation.summary()}"
        )

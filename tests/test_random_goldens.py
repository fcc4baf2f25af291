"""Byte-identity gate for generated workloads: the structured report and
final digest of `random_scenario(s, steps=40)` on one replica, for a few
seeds, must match tests/golden_random_reports.json.  Acceptance 8 pins the
shipped corpus; this pins the generator's mixed-kind runs, so a refactor
that should not change behaviour is checked here rather than by hand."""

import json
import os

import pytest

from conftest import random_scenario
from pvx.scenario import run_scenario
from test_acceptance import golden_entry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_random_reports.json")
SEEDS = range(6)
STEPS = 40


def _entry(seed: int) -> dict:
    return golden_entry(run_scenario(random_scenario(seed, steps=STEPS)))


def _goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_goldens_cover_the_seeds():
    assert sorted(_goldens()) == sorted(f"random-{s}" for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scenario_matches_golden(seed):
    assert _entry(seed) == _goldens()[f"random-{seed}"]


if __name__ == "__main__":
    # regenerate the goldens (only for a deliberate, explained report change):
    #   PYTHONPATH=src python tests/test_random_goldens.py > tests/golden_random_reports.json
    print(json.dumps({f"random-{s}": _entry(s) for s in SEEDS},
                     indent=2, sort_keys=True))

"""Byte-identity gate for generated workloads: the structured report and
final digest of `random_scenario(s, steps=40)` must match
tests/golden_random_reports.json.  Acceptance 8 pins the shipped corpus;
this pins the generator's mixed-kind runs, so a refactor that should not
change behaviour is checked here rather than by hand.

Each seed runs on one replica, and a few also run replicated over a lossy
network: no shipped scenario drops messages, so these are the goldens that
cover view changes and catch-ups.  The report carries the network's
per-type message counts and every replica's view and height, so it pins the
message schedule too."""

import json
import os
from dataclasses import replace

import pytest

from conftest import random_scenario
from pvx.scenario import run_scenario
from test_acceptance import golden_entry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_random_reports.json")
SEEDS = range(6)
STEPS = 40
# (seed, n, f, drop)
LOSSY = [(s, 4, 1, 0.1) for s in range(4)] + [(s, 7, 2, 0.2) for s in range(2)]


def _key(seed: int, n: int = 1, f: int = 0, drop: float = 0.0) -> str:
    return f"random-{seed}" + (f"-n{n}-f{f}-drop{drop}" if n > 1 else "")


def _entry(seed: int, n: int = 1, f: int = 0, drop: float = 0.0) -> dict:
    sc = random_scenario(seed, steps=STEPS)
    if n > 1:
        sc = replace(sc, consensus=replace(sc.consensus, n=n, f=f, drop=drop))
    return golden_entry(run_scenario(sc))


def _goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_goldens_cover_the_seeds():
    assert sorted(_goldens()) == sorted(
        [_key(s) for s in SEEDS] + [_key(*run) for run in LOSSY])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_scenario_matches_golden(seed):
    assert _entry(seed) == _goldens()[_key(seed)]


@pytest.mark.parametrize("run", LOSSY, ids=[_key(*run) for run in LOSSY])
def test_lossy_replicated_run_matches_golden(run):
    assert _entry(*run) == _goldens()[_key(*run)]


if __name__ == "__main__":
    # regenerate the goldens (only for a deliberate, explained report change):
    #   PYTHONPATH=src python tests/test_random_goldens.py > tests/golden_random_reports.json
    runs = [(s,) for s in SEEDS] + LOSSY
    print(json.dumps({_key(*run): _entry(*run) for run in runs},
                     indent=2, sort_keys=True))

"""Fast self-test of the benchmark: every workload, both run modes and the
correctness checks, at tiny sizes (`run.py --quick`)."""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=120, check=False)


@pytest.mark.parametrize("name,trace", [
    ("conservation", 0), ("federation_lossy", 0), ("federation_lossy", 1),
    ("linkability", 0), ("linkability", 1)])
def test_workload_reports_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    # linkability's repeated key images are counted as failed spends
    assert (result["failed"] > 0) == (name == "linkability")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(result["metrics"])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "conservation", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generator_is_deterministic_and_never_repeats_transparent_txs():
    a = gen.federation_scenario(random.Random(3), 60)
    b = gen.federation_scenario(random.Random(3), 60)
    assert a == b
    doc, _ = gen.conservation_scenario(random.Random(9), "mediated", 200)
    keys = [(s["op"], s.get("from"), s["to"], s["amount"], s.get("fee"))
            for s in doc["steps"] if s["op"] in ("transfer", "issue")]
    assert len(keys) == len(set(keys))


def test_scenario_checks_reject_a_wrong_book():
    from pvx.scenario import _Runner, parse_scenario

    doc, book = gen.conservation_scenario(random.Random(4), "supported", 12)
    runner = _Runner(parse_scenario(json.dumps(doc)))
    result = runner.run()
    assert workload.check_scenario(result, runner, book, 12) == 0
    for field, wrong in (("balances", {**book.balances, "acme.acct": 0}),
                         ("issued", book.issued + 1), ("fees", book.fees + 1),
                         ("txs", book.txs - 1),
                         ("notes", {**book.notes, "alice": [1]})):
        with pytest.raises(workload.CheckFailed):
            workload.check_scenario(
                result, runner, dataclasses.replace(book, **{field: wrong}), 12)


def test_corpus_checks_reject_a_wrong_attack_report():
    from pvx import get_profile
    from pvx.observer import make_spend_corpus, run_link_attack
    from pvx.txbuild import make_sampler

    corpus = make_spend_corpus(get_profile("test"), 200, workload.LINK_RING,
                               make_sampler("age-biased"), seed=72)
    attacks = {h: run_link_attack(corpus, h) for h in workload.HEURISTICS}
    assert workload.check_corpus(corpus, 200, attacks, "age-biased") >= 0
    newest = attacks["newest-member"]
    attacks["newest-member"] = dataclasses.replace(newest,
                                                   correct=newest.correct + 1)
    with pytest.raises(workload.CheckFailed):
        workload.check_corpus(corpus, 200, attacks, "age-biased")

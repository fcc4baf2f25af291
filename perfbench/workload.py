"""One workload in one process: set-up, timed rounds, correctness checks.

`run.py` starts this file once per set-up sample and once for the run:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --role setup|run [--quick]

With `--role setup` it stops after set-up.  The last line it prints is one
JSON object: the monotonic time set-up finished, and for a run the raw
figures `run.py` turns into metrics.  A failed check prints its reason to
standard error and sets `correct` to false; an exception from the program
(a `SafetyViolation`, a failed conservation audit) is not caught and ends
the process with a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

SIZES = {
    "full": {"conservation_steps": 50, "federation_steps": 60,
             "link_trials": 10_000, "min_steps": 240},
    "quick": {"conservation_steps": 12, "federation_steps": 24,
              "link_trials": 300, "min_steps": 0},
}
LINK_RING = 11
# fixed corpus seeds: the calibration checks are 3-sigma tests (README "Seeds")
LINK_SEEDS = {"uniform": 71, "age-biased": 72}
HEURISTICS = ("uniform-guess", "newest-member", "key-image-graph")
# the benchmark's own list, so the set of per-layer metrics stays fixed
LEDGER_VERDICTS = ("accept", "RingSignature", "DoubleSpend", "RangeProof",
                   "BalanceProof", "InsufficientFunds", "UnknownAccount",
                   "MalformedTransaction", "DuplicateOnetime",
                   "MediationRequired", "BusinessToStoreForbidden",
                   "Blacklisted", "CredentialRequired", "CredentialReused",
                   "ThresholdIdentificationRequired", "IssuerNotAuthorized")

perf = time.perf_counter


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# per-step stamps


class StepClock:
    """Wall-clock and virtual-clock stamps at step boundaries.

    These are the only wrappers an untraced run carries: the start of a
    scenario run, the runner's per-step outcome record, client submission
    to the replicas, and (for linkability) each signed spend.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.sequences: list[list[float]] = []   # step ms, per scenario/corpus
        self.virtual_ms: list[float] = []
        self.resubmits = 0
        self.runners: list = []
        self._last = 0.0
        self._first_submit = None
        self._submits = 0
        self._undo: list = []

    def begin(self) -> None:
        self.sequences.append([])
        self._last = perf()

    def _stamp(self) -> None:
        now = perf()
        self.sequences[-1].append((now - self._last) * 1e3)
        self._last = now
        if self.tracer is not None:
            self.tracer.step += 1

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "StepClock":
        from pvx import consensus, observer, scenario

        clock = self
        run, record = scenario._Runner.run, scenario._Runner._record
        submit = consensus.World.submit_client_tx
        sign = observer.ring_sign

        def stamped_run(runner):
            clock.runners.append(runner)
            clock.begin()
            return run(runner)

        def stamped_record(runner, index, step, outcome):
            record(runner, index, step, outcome)
            clock._stamp()
            if clock._first_submit is not None:
                clock.virtual_ms.append(
                    (runner.world.net.time - clock._first_submit) / 1e3)
                clock.resubmits += clock._submits - 1
                clock._first_submit = None
                clock._submits = 0

        def stamped_submit(world, node_id, tx, at=None):
            if clock._first_submit is None:
                clock._first_submit = world.net.time
            clock._submits += 1
            return submit(world, node_id, tx, at)

        def stamped_sign(*args, **kwargs):
            sig = sign(*args, **kwargs)
            clock._stamp()
            return sig

        self._patch(scenario._Runner, "run", stamped_run)
        self._patch(scenario._Runner, "_record", stamped_record)
        self._patch(consensus.World, "submit_client_tx", stamped_submit)
        self._patch(observer, "ring_sign", stamped_sign)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Instruments:
    """The clock and, in a traced run, the tracer; paused around checks."""

    def __init__(self, traced: bool):
        self.tracer = None
        if traced:
            from tracing import Tracer
            self.tracer = Tracer()
        self.clock = StepClock(self.tracer)

    def install(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
        self.clock.install()

    def uninstall(self) -> None:
        self.clock.uninstall()
        if self.tracer is not None:
            self.tracer.uninstall()


# ---------------------------------------------------------------------------
# scenario workloads


def write_input(name: str, doc: dict) -> None:
    os.makedirs(os.path.join(OUT_DIR, "inputs"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "inputs", name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def scenario_inputs(workload: str, seed: int, round_no: int, sizes: dict):
    """[(scenario document, book)] for one round."""
    rng = random.Random(f"pvx-bench/{workload}/{seed}/{round_no}")
    if workload == "conservation":
        pairs = [gen.conservation_scenario(rng, mode, sizes["conservation_steps"])
                 for mode in ("supported", "mediated")]
    else:
        pairs = [gen.federation_scenario(rng, sizes["federation_steps"])]
    if round_no == 0:
        for i, (doc, _) in enumerate(pairs):
            write_input(f"{workload}-seed{seed}-{i}.json", doc)
    return pairs


def check_scenario(result, runner, book: gen.Book, steps: int) -> int:
    """Checks one finished scenario; returns the number of failed steps."""
    failed = sum(1 for o in result.outcomes if o.outcome != "accept")
    require(len(result.outcomes) == steps, "every step has an outcome")
    require(not result.mismatches, f"expectations met: {result.mismatches[:3]}")
    ledger = runner.reference.ledger
    require(ledger.balances == book.balances, "final account balances")
    require(ledger.total_issued == book.issued, "total issued supply")
    require(ledger.fees_accrued == book.fees, "fees accrued")
    require(sum(len(b.txs) for b in runner.reference.chain) == book.txs,
            "committed transactions")
    for person in gen.PEOPLE:
        values = [n.value for n in runner.wallets[person].notes]
        require(values == book.notes[person], f"{person}'s wallet notes")
    world = runner.world
    live = [world.nodes[nid] for nid in world.honest_ids()
            if not world.nodes[nid].fault.crashed(world.net.time)]
    for node in live[1:]:
        require(node.chain == live[0].chain,
                f"{node.node_id} holds the chain of {live[0].node_id}")
        require(node.ledger.digest() == live[0].ledger.digest(),
                f"{node.node_id} ledger digest")
    return failed


def scenario_round(workload, seed, round_no, sizes, inst):
    from pvx import scenario

    inputs = scenario_inputs(workload, seed, round_no, sizes)
    texts = [json.dumps(doc) for doc, _ in inputs]
    results = []
    first_seq = len(inst.clock.sequences)
    start = perf()
    for text in texts:
        results.append(scenario.run_scenario(scenario.parse_scenario(text)))
    elapsed = perf() - start

    inst.uninstall()
    runners = inst.clock.runners[-len(inputs):]
    del inst.clock.runners[-len(inputs):]
    failed = 0
    for (doc, book), result, runner in zip(inputs, results, runners):
        failed += check_scenario(result, runner, book, len(doc["steps"]))
        if len(runner.world.nodes) > 1 and round_no == 0:
            single = dict(doc, consensus={"n": 1, "f": 0,
                                          "seed": doc["consensus"]["seed"]})
            single_result = scenario.run_scenario(scenario.parse_scenario(single))
            require(single_result.final_digest == result.final_digest,
                    "replicated ledger digest equals the single-replica run")
    inst.install()
    books = [book for _, book in inputs]
    return {"elapsed": elapsed, "attempted": sum(len(r.outcomes) for r in results),
            "failed": failed, "txs": sum(b.txs for b in books),
            "spends": sum(b.spends for b in books),
            "outputs": sum(b.outputs for b in books),
            "steps": inst.clock.sequences[first_seq:],
            "runners": [RunnerSummary(r) for r in runners]}


class RunnerSummary:
    """What the per-layer figures need from a finished runner."""

    def __init__(self, runner):
        self.stats = runner.world.stats_summary()
        self.view_changes = sum(n.stats.view_changes
                                for n in runner.world.nodes.values())
        self.blocks = runner.reference.executed


# ---------------------------------------------------------------------------
# linkability


def link_setup():
    from pvx import get_profile, observer, txbuild
    return observer.make_spend_corpus(get_profile("test"), 0, LINK_RING,
                                      txbuild.make_sampler("uniform"),
                                      seed=LINK_SEEDS["uniform"])


def check_corpus(corpus, trials: int, attacks: dict, sampler: str) -> int:
    """Checks one corpus and its attacks; returns the number of spends whose
    key image repeats an earlier spend's (see README "Failed operations")."""
    spends = corpus.spends
    require(len(spends) == trials, "every spend synthesised")
    for s in spends:
        require(len(s.ring_ids) == LINK_RING
                and list(s.ring_ids) == sorted(set(s.ring_ids))
                and 0 <= s.true_position < LINK_RING, "ring shape")
    spent = [s.ring_ids[s.true_position] for s in spends]
    require(len(set(spent)) == len(spent), "no output spent twice")
    repeated = len(spends) - len({s.key_image for s in spends})
    newest = sum(1 for s in spends if s.true_position == LINK_RING - 1)
    require(attacks["newest-member"].correct == newest,
            "newest-member accuracy from ground truth")
    base = 1.0 / LINK_RING
    sigma = (base * (1 - base) / trials) ** 0.5
    for name, stats in attacks.items():
        require(stats.trials == trials, f"{name} trial count")
        require(abs(stats.accuracy - stats.correct / trials) < 1e-12,
                f"{name} accuracy")
        z = (stats.correct / trials - base) / sigma
        require(abs(stats.z_score - z) < 1e-9, f"{name} z score")
        if sampler == "uniform":
            require(abs(z) <= 3.0, f"uniform sampler {name}: |z| = {abs(z):.2f} > 3")
    if sampler == "age-biased":
        z = (newest / trials - base) / sigma
        require(z > 5.0, f"age-biased newest-member z = {z:.2f} <= 5")
    return repeated


def link_round(seed, round_no, sizes, inst):
    from pvx import get_profile, observer, txbuild

    trials = sizes["link_trials"]
    group = get_profile("test")
    corpora, build_s = [], 0.0
    first_seq = len(inst.clock.sequences)
    start = perf()
    for sampler_name in ("uniform", "age-biased"):
        sampler = txbuild.make_sampler(sampler_name)
        inst.clock.begin()
        t0 = perf()
        corpus = observer.make_spend_corpus(group, trials, LINK_RING, sampler,
                                            seed=LINK_SEEDS[sampler_name])
        build_s += perf() - t0
        attacks = {h: observer.run_link_attack(corpus, h) for h in HEURISTICS}
        corpora.append((sampler_name, corpus, attacks))
    elapsed = perf() - start
    inst.uninstall()
    failed = sum(check_corpus(corpus, trials, attacks, sampler_name)
                 for sampler_name, corpus, attacks in corpora)
    inst.install()
    return {"elapsed": elapsed, "attempted": 2 * trials, "failed": failed,
            "txs": 0, "spends": 2 * trials, "outputs": 0, "runners": [],
            "steps": inst.clock.sequences[first_seq:], "build_s": build_s}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, rounds) -> dict:
    """Every end-to-end metric but setup_s, which run.py adds.

    Every round counts.  Step times are medians; the round time and the
    rates come from the run's totals over its measured time (README
    "Steadiness and bounds").
    Peak RSS is taken after the first round: the program's caches keep
    growing with every round, and the number of rounds depends on the host.
    """
    measured = sum(r["elapsed"] for r in rounds)
    seqs = [seq for r in rounds for seq in r["steps"]]
    steps = [ms for seq in seqs for ms in seq]
    late = [ms for seq in seqs for ms in seq[len(seq) * 3 // 4:]]
    spends = sum(r["spends"] for r in rounds)
    if workload == "linkability":
        done, spend_rate = spends, spends / sum(r["build_s"] for r in rounds)
    else:
        done, spend_rate = sum(r["txs"] for r in rounds), spends / measured
    return {
        "wall_s": measured / len(rounds),
        "tx_per_s": done / measured,
        "step_ms_p50": statistics.median(steps),
        "step_ms_p95": percentile(steps, 95),
        "late_step_ms_p50": statistics.median(late),
        "spends_per_s": spend_rate,
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
    }


def per_layer(rounds, inst, cache_delta) -> dict:
    tracer, clock = inst.tracer, inst.clock
    n = len(rounds)
    calls, self_s = tracer.calls, tracer.self_s
    txs = sum(r["txs"] for r in rounds)
    outputs = sum(r["outputs"] for r in rounds)
    summaries = [s for r in rounds for s in r["runners"]]
    blocks = sum(s.blocks for s in summaries)
    sent = sum(s.stats["sent"] for s in summaries)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "group.power.fixed_base_calls": tracer.fixed_base_powers / n,
        "group.power.var_base_calls":
            (calls["group.power"] - tracer.fixed_base_powers) / n,
    }
    for name in ("group.power", "group.inv", "group.is_element",
                 "group.tagged_hash", "pedersen.commit",
                 "rangeproof.prove_range", "rangeproof.verify_range",
                 "stealth.make_onetime_output", "stealth.recover_spend_secret",
                 "ringsig.dual_ring_sign", "ringsig.dual_ring_verify",
                 "ringsig.ring_sign", "blindsig.issuer_keygen",
                 "blindsig.credential_verify", "ledger.transaction_digest",
                 "ledger.validate_transaction", "ledger.apply_transaction",
                 "ledger.state_digest", "ledger.conservation_audit",
                 "txbuild.build", "policy.authorize", "entityreg.registry",
                 "consensus.block_digest", "consensus.check_safety",
                 "consensus.compute_mac", "consensus.handlers",
                 "observer.make_spend_corpus", "observer.run_link_attack",
                 "scenario.parse_scenario", "scenario.runner_setup",
                 "scenario.runner"):
        if name != "group.power":
            m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.self_s"] = self_s[name] / n
    hits, misses = cache_delta
    m.update({
        "rangeproof.verify_range.per_output":
            ratio(calls["rangeproof.verify_range"], outputs),
        "ringsig.image_base.hit_ratio": ratio(hits, hits + misses),
        "ledger.transaction_digest.per_tx":
            ratio(calls["ledger.transaction_digest"], txs),
        "ledger.validate_transaction.per_tx":
            ratio(calls["ledger.validate_transaction"], txs),
        "simnet.events": calls["simnet.events"] / n,
        "simnet.sent": sent / n,
        "simnet.delivered": sum(s.stats["delivered"] for s in summaries) / n,
        "simnet.dropped": sum(s.stats["dropped"] for s in summaries) / n,
        "simnet.msgs_per_tx": ratio(sent, txs),
        "consensus.block_digest.per_block":
            ratio(calls["consensus.block_digest"], blocks),
        "consensus.view_changes": sum(s.view_changes for s in summaries) / n,
        "consensus.catchups":
            sum(s.stats["by_type"].get("CatchUp", 0) for s in summaries) / n,
        "consensus.blocks": blocks / n,
        "consensus.virtual_commit_ms_p50":
            statistics.median(clock.virtual_ms) if clock.virtual_ms else 0.0,
        "scenario.resubmits": clock.resubmits / n,
    })
    for code in LEDGER_VERDICTS:
        m[f"ledger.verdict.{code}"] = tracer.verdicts[code] / n
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("conservation", "federation_lossy", "linkability"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    sizes = SIZES["quick" if args.quick else "full"]

    # set-up: import, first inputs, parsing, world construction
    from pvx import ringsig, scenario
    if args.workload == "linkability":
        link_setup()
    else:
        doc, _ = scenario_inputs(args.workload, args.seed, 0, sizes)[0]
        parsed = scenario.parse_scenario(json.dumps(doc))
        scenario.run_scenario(dataclasses.replace(parsed, steps=()))
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    inst = Instruments(traced=bool(args.trace))
    cache_before = ringsig._image_base.cache_info()
    inst.install()
    rounds = []
    try:
        # whole rounds until --seconds of measured time (checks excluded),
        # and enough steps that step_ms_p95 has at least 12 beyond it
        while (not rounds or sum(r["elapsed"] for r in rounds) < args.seconds
               or sum(len(seq) for r in rounds for seq in r["steps"])
               < sizes["min_steps"]):
            if args.workload == "linkability":
                rounds.append(link_round(args.seed, len(rounds), sizes, inst))
            else:
                rounds.append(scenario_round(args.workload, args.seed,
                                             len(rounds), sizes, inst))
            rounds[-1]["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        correct = True
    except CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}",
              file=sys.stderr)
        correct = False
    finally:
        inst.uninstall()
    cache_after = ringsig._image_base.cache_info()
    out = {"ready": ready, "correct": correct,
           "attempted": sum(r["attempted"] for r in rounds),
           "failed": sum(r["failed"] for r in rounds)}
    if correct:
        out["end_to_end"] = end_to_end(args.workload, rounds)
        if inst.tracer is not None:
            delta = (cache_after.hits - cache_before.hits,
                     cache_after.misses - cache_before.misses)
            out["per_layer"] = per_layer(rounds, inst, delta)
            os.makedirs(OUT_DIR, exist_ok=True)
            inst.tracer.write(
                os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "rounds": len(rounds),
                 "traced_wall_s": out["end_to_end"]["wall_s"],
                 "per_layer": out["per_layer"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts recorded from outside the program.

`Tracer.install()` replaces public functions and methods of `pvx` modules
with timing wrappers: in the module that defines each function and in every
`pvx` module that imported it by name.  Nothing in `src/pvx` changes, and
`uninstall()` puts the originals back.

Each wrapped call adds its duration to its name's total and subtracts it
from its caller's self time, so `self_s` is span time minus the time of the
child spans inside it.  Calls of the hottest leaf functions (group
arithmetic, hashing, digests, MACs) are counted and timed but not kept as
individual spans, which bounds memory; every other call is kept as a span
with an id, a name, a start, an end, its parent span and the step it ran in.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (name, module, attribute, kept as spans)
FUNCTIONS = (
    ("group.tagged_hash", "pvx.group", "tagged_hash", False),
    ("pedersen.commit", "pvx.pedersen", "commit", False),
    ("rangeproof.prove_range", "pvx.rangeproof", "prove_range", True),
    ("rangeproof.verify_range", "pvx.rangeproof", "verify_range", True),
    ("stealth.make_onetime_output", "pvx.stealth", "make_onetime_output", True),
    ("stealth.recover_spend_secret", "pvx.stealth", "recover_spend_secret", True),
    ("ringsig.ring_sign", "pvx.ringsig", "ring_sign", True),
    ("ringsig.dual_ring_sign", "pvx.ringsig", "dual_ring_sign", True),
    ("ringsig.dual_ring_verify", "pvx.ringsig", "dual_ring_verify", True),
    ("blindsig.issuer_keygen", "pvx.blindsig", "issuer_keygen", True),
    ("blindsig.credential_verify", "pvx.blindsig", "credential_verify", True),
    ("ledger.transaction_digest", "pvx.ledger", "transaction_digest", False),
    ("ledger.validate_transaction", "pvx.ledger", "validate_transaction", True),
    ("ledger.apply_transaction", "pvx.ledger", "apply_transaction", True),
    ("ledger.conservation_audit", "pvx.ledger", "conservation_audit", True),
    ("txbuild.build", "pvx.txbuild", "build_transparent_transfer", True),
    ("txbuild.build", "pvx.txbuild", "build_issue", True),
    ("txbuild.build", "pvx.txbuild", "build_shield", True),
    ("txbuild.build", "pvx.txbuild", "build_unshield", True),
    ("txbuild.build", "pvx.txbuild", "build_shielded_transfer", True),
    ("txbuild.build", "pvx.txbuild", "build_mediated_batch", True),
    ("policy.authorize", "pvx.policy", "authorize", True),
    ("consensus.block_digest", "pvx.consensus", "block_digest", False),
    ("consensus.compute_mac", "pvx.consensus", "compute_mac", False),
    ("observer.make_spend_corpus", "pvx.observer", "make_spend_corpus", True),
    ("observer.run_link_attack", "pvx.observer", "run_link_attack", True),
    ("scenario.parse_scenario", "pvx.scenario", "parse_scenario", True),
)

# (name, module, class, method, kept as spans)
METHODS = (
    ("group.power", "pvx.group", "GroupParams", "power", False),
    ("group.inv", "pvx.group", "GroupParams", "inv", False),
    ("group.is_element", "pvx.group", "GroupParams", "is_element", False),
    ("ledger.state_digest", "pvx.ledger", "LedgerState", "digest", True),
    ("entityreg.registry", "pvx.entityreg", "Registry", "lookup_account", False),
    ("entityreg.registry", "pvx.entityreg", "Registry", "entity", False),
    ("entityreg.registry", "pvx.entityreg", "Registry", "accounts_of", False),
    ("entityreg.registry", "pvx.entityreg", "Registry", "mediation_fee", False),
    ("simnet.events", "pvx.simnet", "SimNetwork", "pop", False),
    ("consensus.check_safety", "pvx.consensus", "World", "check_safety", True),
    ("consensus.handlers", "pvx.consensus", "PBFTNode", "on_message", True),
    ("consensus.handlers", "pvx.consensus", "PBFTNode", "on_timer", True),
    ("consensus.handlers", "pvx.consensus", "PBFTNode", "on_client_tx", True),
    ("scenario.runner", "pvx.scenario", "_Runner", "run", True),
    ("scenario.runner_setup", "pvx.scenario", "_Runner", "_setup", True),
)


class Tracer:
    """Wraps `pvx` functions in place; one tracer per process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.verdicts: Counter = Counter()
        self.fixed_base_powers = 0
        self.step = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._frames: list[list] = []   # [child seconds, span id]
        self._next_id = 1
        self._spans = {"id": array("q"), "name": array("i"),
                       "start": array("d"), "end": array("d"),
                       "parent": array("q"), "step": array("q")}
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, keep: bool, after=None):
        perf = time.perf_counter
        frames, calls, self_s = self._frames, self.calls, self.self_s
        spans = self._spans
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)

        def traced(*args, **kwargs):
            parent = frames[-1][1] if frames else 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            frames.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if frames:
                    frames[-1][0] += elapsed
                if keep:
                    spans["id"].append(span_id)
                    spans["name"].append(name_id)
                    spans["start"].append(start - self._t0)
                    spans["end"].append(end - self._t0)
                    spans["parent"].append(parent)
                    spans["step"].append(self.step)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        if name == "ledger.validate_transaction":
            def count_verdict(args, verdict):
                self.verdicts[verdict.code or "accept"] += 1
            return count_verdict
        return None

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pvx" or n.startswith("pvx.")]
        for name, module, attr, keep in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(original, name, keep, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)
        for name, module, cls_name, method, keep in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            if name == "group.power":
                traced = self._wrap_power(original)
            else:
                traced = self._wrap(original, name, keep)
            self._replace(cls, method, traced)
        return self

    def _wrap_power(self, original):
        traced = self._wrap(original, "group.power", False)

        def power(group, base, exp):
            if base == group.g or base == group.h:
                self.fixed_base_powers += 1
            return traced(group, base, exp)

        return power

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["names"] = self._names
        doc["spans"] = {key: list(col) for key, col in self._spans.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

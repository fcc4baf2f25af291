"""pvx benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload conservation|federation_lossy|linkability \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`, nothing is installed).  Each workload runs in its own
single-threaded process.  With `--trace 0` the command first starts
SETUP_PROBES short processes that only set up, then the measured run, and
prints every end-to-end metric; with `--trace 1` it prints the per-layer
metrics of a traced run and writes its spans to `perfbench/out/`.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 only when every check held; a check that fails, or an
exception from the program, exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("conservation", "federation_lossy", "linkability")
SETUP_PROBES = 6
DEADLINE_S = 170

UNITS = {"setup_s": "s", "wall_s": "s", "tx_per_s": "tx/s",
         "step_ms_p50": "ms", "step_ms_p95": "ms", "late_step_ms_p50": "ms",
         "spends_per_s": "spend/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class RunFailed(RuntimeError):
    pass


def spawn(args, role: str, deadline: float) -> tuple[float, dict]:
    """Runs one workload process; returns (seconds to set-up end, its report)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role] + (["--quick"] if args.quick else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - started), check=False)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{role} process ran past the deadline") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{role} process exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    return report["ready"] - started, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and one set-up probe (self-test only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "pvx", "scenario.py")):
        print("error: run from a pvx source checkout (src/pvx not found)",
              file=sys.stderr)
        return 2
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(1 if args.quick else SETUP_PROBES):
                setup_samples.append(spawn(args, "setup", deadline)[0])
        setup_s, report = spawn(args, "run", deadline)
    except RunFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": {}}
    if report["correct"]:
        if args.trace:
            units = per_layer_units()
            values = report["per_layer"]
        else:
            units = UNITS
            values = dict(report["end_to_end"],
                          setup_s=statistics.median(setup_samples + [setup_s]))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in units.items()}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

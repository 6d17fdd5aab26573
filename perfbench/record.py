"""Record the expected op digests the benchmark checks its outputs against.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 0-31 [--workload NAME ...]

Runs one full-size pass of each workload per seed that is one of the
workload's input seeds and writes the ops' digests to
``perfbench/expected.json``, keeping the entries not re-recorded.  Re-record only when a change is meant to alter
simulated results; the benchmark never writes this file itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import EXPECTED_PATH, op_sequence  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,3,5")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    payload = {"format": 1, "workloads": {}}
    if EXPECTED_PATH.is_file():
        payload = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    store_root = ROOT / ".perfbench" / f"record-{os.getpid()}"
    try:
        for name in args.workload or list(WORKLOADS):
            recorded = payload["workloads"].setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                workload = make_workload(name, seed, store_root=store_root)
                if workload.input_seed != seed:
                    continue  # the workload has no input set for this seed
                workload.setup()
                try:
                    outcome = workload.run_pass()
                finally:
                    workload.close()
                problems = [op.key for op in outcome.ops if op.problem or op.digest is None]
                if problems:
                    print(f"{name} seed {seed}: ops with problems, not recorded: {problems[:5]}")
                    return 1
                recorded[str(seed)] = op_sequence(outcome.ops)
                print(f"{name} seed {seed}: {len(outcome.ops)} ops", flush=True)
            payload["workloads"][name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
        try:
            store_root.parent.rmdir()
        except OSError:
            pass
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record, or recheck, the simulated metrics of every workload on the
default seed and on a held-out seed.

    python3 perfbench/heldout.py           # rewrite perfbench/heldout.json
    python3 perfbench/heldout.py --check   # compare with the record

A change that only speeds the simulator up must leave every value equal.
Tune on the default seed; recheck a claim on the held-out one, which no
change should be written against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEEDS = {"default": 1, "held_out": 2}
RECORD = HERE / "heldout.json"


def measure() -> dict:
    out = {}
    for workload in run.WORKLOADS:
        for role, seed in SEEDS.items():
            rep = run.run_rep(workload, seed, False, float("inf"))
            out.setdefault(workload, {})[role] = {
                "seed": seed, **rep["sim"], "sim_events": rep["sim_events"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the record instead of rewriting it")
    args = ap.parse_args(argv)
    now = measure()
    if not args.check:
        RECORD.write_text(json.dumps(now, indent=2) + "\n")
        return 0
    recorded = json.loads(RECORD.read_text())
    diffs = [f"{w} {role} {k}: {recorded[w][role][k]} -> {v}"
             for w, roles in now.items() for role, vals in roles.items()
             for k, v in vals.items() if recorded[w][role].get(k) != v]
    print("\n".join(diffs) or "simulated metrics equal the record")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

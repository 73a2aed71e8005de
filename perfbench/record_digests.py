"""Record the report digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-29

Writes ``baseline_digests.json`` beside this file. ``run.py`` prints the
recorded digest next to the one it computes, so a change that must not alter
the program's output can show that it does not. Record on the commit whose
output is the reference, and again whenever ``gen.py`` changes.
"""

from __future__ import annotations

import argparse
import json

from run import BASELINE, WORKLOADS, make_workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    digests: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        digests[name] = {}
        for seed in seeds:
            rep = make_workload(name, seed).rep()
            if rep.problems:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(rep.problems)}")
            digests[name][str(seed)] = rep.digest
            print(f"{name} {seed} {rep.digest}", flush=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

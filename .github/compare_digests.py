"""Fail when an artifact that two checkouts both write differs in bytes.

    python3 .github/compare_digests.py BASE_TREE HEAD_TREE WORKLOAD...

Each tree must already hold ``.bench_results/<workload>-seed1-trace0.json``,
written there by

    python3 benchmark/run.py --workload <workload> --seed 1 --seconds 1 --trace 0

run from that tree's root. The ``digests`` entry of that file maps each
artifact to its sha256. Every artifact that both trees write must have the
same digest; the names of those that differ are printed and the script
exits 1. An artifact that only one tree writes is not compared, so a
change may add or retire a file.
"""

from __future__ import annotations

import json
import os
import sys


def digests(tree: str, workload: str) -> dict:
    path = os.path.join(tree, ".bench_results", f"{workload}-seed1-trace0.json")
    with open(path, encoding="utf-8") as fh:
        found = json.load(fh)["digests"]
    if not found:
        raise SystemExit(f"{path}: no operation passed, so there are no digests to compare")
    return found


def main(argv) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_tree, head_tree, workloads = argv[0], argv[1], argv[2:]
    differ = []
    for workload in workloads:
        base, head = digests(base_tree, workload), digests(head_tree, workload)
        shared = sorted(base.keys() & head.keys())
        changed = [name for name in shared if base[name] != head[name]]
        print(f"{workload}: {len(shared) - len(changed)} of {len(shared)} shared artifacts identical")
        differ += [f"{workload}/{name}" for name in changed]
    if differ:
        print("artifacts whose bytes differ from the base commit:", *differ, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Checks the perf smoke's output digests against the committed goldens.

Run from the repository root after `perf/run.sh --smoke` (seed 42):

  python3 tools/check_perf_goldens.py [--results DIR] [--golden FILE]

Reads the newest build-perf/results/*-all-seed42-smoke.json and compares
the untraced and the traced digest of every workload listed in
tests/golden/perf_smoke_digests.json. A change in behaviour then shows up
as a reviewed diff of the golden file.

Exit code 0 = every digest matches, 1 = a mismatch or a missing workload,
2 = no smoke result or an unreadable file. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", default=str(ROOT / "build-perf" / "results"))
    parser.add_argument(
        "--golden", default=str(ROOT / "tests" / "golden" / "perf_smoke_digests.json"))
    args = parser.parse_args()

    try:
        golden = json.loads(pathlib.Path(args.golden).read_text())
        seed = int(golden["seed"])
        want = golden["digests"]
        # Result names start with a UTC timestamp, so the last sorts newest.
        found = sorted(pathlib.Path(args.results).glob(
            f"*-all-seed{seed}-smoke.json"))
        if not found:
            print(f"check_perf_goldens: no *-all-seed{seed}-smoke.json in "
                  f"{args.results}; run perf/run.sh --smoke first",
                  file=sys.stderr)
            return 2
        result = json.loads(found[-1].read_text())
        workloads = result["workloads"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"check_perf_goldens: {e}", file=sys.stderr)
        return 2

    print(f"results: {found[-1]}")
    failures = 0
    for workload, digest in want.items():
        for mode in ("untraced", "traced"):
            got = workloads.get(workload, {}).get(mode, {}).get("digest")
            if got == digest:
                print(f"  ok   {workload}.{mode} {got}")
                continue
            failures += 1
            print(f"  FAIL {workload}.{mode}: golden {digest}, got "
                  f"{got if got is not None else 'missing'}")
    print("golden digests match" if failures == 0
          else f"{failures} digest(s) differ from {args.golden}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

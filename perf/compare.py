#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

  python3 perf/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by perf/run.py, or directories
of them (build-perf/results/ of each checkout). Runs of each side are paired
in the order they were made; make them alternately, parent first in one pair
and change first in the next, with the same --seconds on both sides.

For every workload and end-to-end metric of BENCHMARK.json it reports:

  gain        the change is better in at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the distance
              between the parent's quartiles; needs at least 10 pairs;
  REGRESSION  otherwise, the change's median is worse than the parent's by
              more than the metric's bound;
  unresolved  otherwise, the parent's own spread (quartile distance over
              median) is wider than the bound, and not every change run
              beats every parent run;
  ok          none of the above: no regression beyond the bound.

Simulated statistics repeat bit for bit for a seed, so runs of the two sides
with the same seed are also compared by output digest; a change that is only
a performance change must leave every digest unchanged.

Prints one row per workload. Exits 1 on a regression. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load_runs(path):
    """{workload: [untraced report, ...]} in the order the runs were made."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        result = json.loads(f.read_text())
        for workload, modes in result.get("workloads", {}).items():
            if "untraced" in modes:
                runs.setdefault(workload, []).append(modes["untraced"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(metric, parent, change):
    """Verdict and a short note for one metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    p_iqr = p_q3 - p_q1
    spread = p_iqr / p_med if p_med else 0.0
    delta = (c_med - p_med) / p_med if p_med else 0.0

    def better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    all_better = all(better(c, p) for c in change for p in parent)
    worse_by = delta if lower else -delta

    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and better(c_med, p_med) and abs(c_med - p_med) > p_iqr):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "REGRESSION"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    note = (f"{metric['name']}: parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
            f" change {c_med:.6g}, {delta:+.2%}, wins {wins}/{len(pairs)},"
            f" spread {spread:.2%} vs bound {bound:.0%}")
    return verdict, delta, note


def digest_check(parent, change):
    """(shared inputs, inputs whose output digests differ); the inputs are
    fixed by the seed and the smoke preset."""
    p = {(r["seed"], r["smoke"]): r["digest"] for r in parent}
    c = {(r["seed"], r["smoke"]): r["digest"] for r in change}
    shared = sorted(set(p) & set(c))
    return len(shared), [s for s in shared if p[s] != c[s]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    metrics = spec["end_to_end"]
    header = ["workload", "pairs"] + [m["name"] for m in metrics] + ["digest"]
    rows, notes = [], []
    regression = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent = parent_runs[workload]
        change = change_runs[workload]
        n = min(len(parent), len(change))
        row = [workload, str(n)]
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in parent[:n]]
            c = [r["metrics"][m["name"]]["value"] for r in change[:n]]
            verdict, delta, note = judge(m, p, c)
            regression = regression or verdict == "REGRESSION"
            row.append(f"{delta:+.1%} {verdict}")
            notes.append(f"{workload}  {note}  -> {verdict}")
        shared, differ = digest_check(parent, change)
        row.append(f"{len(differ)}/{shared} differ" if shared
                   else "no shared seed")
        rows.append(row)
        if n < MIN_PAIRS:
            notes.append(f"{workload}  only {n} pairs: no gain can be claimed"
                         f" (needs {MIN_PAIRS})")

    if not rows:
        print("compare.py: no workload appears on both sides", file=sys.stderr)
        return 2
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    print()
    for note in notes:
        print(note)
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())

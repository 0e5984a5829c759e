#!/usr/bin/env python3
"""Build arvis_perf and run the end-to-end benchmark.

Run from the repository root. Two ways to call it:

  python3 perf/run.py [--seed N] [--seconds S] [--smoke]
      The full report: each workload in its own untraced process, then one
      traced process per workload. Checks every output, prints every metric
      by name with its unit, the per-layer table, the phase split and the
      machine stamp, and writes the results to build-perf/results/. Exits 1
      if a check fails.

  python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
      One process of one workload. The last line of stdout is one JSON
      object {"correct", "attempted", "failed", "metrics"} holding the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1).

perf/run.sh is the same program. Only the standard library is used.
"""

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-perf"
RESULTS = BUILD / "results"
BINARY = BUILD / "arvis_perf"
WORKLOADS = ("dense", "dense_t4", "churn", "chaos")
# One process measures for --seconds plus about four repetitions of warm-up
# and checks; it must end well inside three minutes.
PROCESS_TIMEOUT_S = 170


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds arvis_perf in Release. Build output goes
    to stderr so stdout stays the benchmark's."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perf"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "arvis_perf",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, traced, smoke):
    """Runs one arvis_perf process and returns its JSON report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("arvis_perf failed: " + " ".join(cmd))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("arvis_perf printed nothing: " + " ".join(cmd))
    return json.loads(lines[-1])


def cache_entry(name):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(name + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def first_line(cmd, **kwargs):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    except OSError:
        return "unknown"
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else "unknown"


def machine_stamp():
    compiler = cache_entry("CMAKE_CXX_COMPILER")
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the benchmark runs from an exported tree.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"]),
        "build_type": cache_entry("CMAKE_BUILD_TYPE"),
        "commit": first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             env=git_env),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "loadavg_start": list(os.getloadavg()),
    }


def save(result, tag):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%fZ")
    path = RESULTS / f"{stamp}-{tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def run_one(args):
    """The single-process form: one workload, one mode, one JSON line."""
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    stamp = machine_stamp()
    report = run_binary(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.smoke)
    metrics = {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    mode = "traced" if args.trace else "untraced"
    save({"stamp": stamp, "seed": args.seed, "seconds": args.seconds,
          "smoke": args.smoke,
          "workloads": {args.workload: {mode: report}}},
         f"{args.workload}-{mode}-seed{args.seed}")
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


def fmt(value):
    if value == 0:
        return "0"
    if 1e-3 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                        for i, (c, w) in enumerate(zip(r, widths))))


def metric_rows(workloads, mode, section, names=None):
    """[name, unit, value per workload] for each metric of one report
    section, in the order of `names` or of the first workload's report."""
    first = workloads[WORKLOADS[0]][mode][section]
    rows = []
    for name in names or first:
        rows.append([name, first[name]["unit"]] + [
            fmt(workloads[w][mode][section][name]["value"])
            for w in WORKLOADS])
    return rows


def run_all(args):
    """The full report over every workload."""
    spec = benchmark_spec()
    seconds = 0 if args.smoke else (
        args.seconds if args.seconds is not None else spec["run_seconds"])
    print("building arvis_perf (Release) ...", flush=True)
    build()
    stamp = machine_stamp()
    workloads = {}
    for traced in (False, True):
        for w in WORKLOADS:
            mode = "traced" if traced else "untraced"
            print(f"running {w} ({mode}) ...", flush=True)
            workloads.setdefault(w, {})[mode] = run_binary(
                w, args.seed, seconds, traced, args.smoke)

    checks = {}
    for w, runs in workloads.items():
        for mode, report in runs.items():
            for name, ok in report["checks"].items():
                checks[f"{w}.{mode}.{name}"] = ok
        checks[f"{w}.traced_digest_equals_untraced"] = (
            runs["traced"]["digest"] == runs["untraced"]["digest"])
    checks["dense_t4_digest_equals_dense"] = (
        workloads["dense_t4"]["untraced"]["digest"] ==
        workloads["dense"]["untraced"]["digest"])
    correct = all(checks.values())

    print()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"seed {args.seed}, {seconds} s per process"
          + (", smoke preset" if args.smoke else ""))
    header = ["metric", "unit"] + list(WORKLOADS)

    print("\nend-to-end (untraced; timings from the fastest timed repetition,"
          " setup_s and run_s medians)")
    rows = metric_rows(workloads, "untraced", "metrics",
                       [m["name"] for m in spec["end_to_end"]])
    rows += [[f"{r[0]} (ungated)"] + r[1:]
             for r in metric_rows(workloads, "untraced", "ungated")]
    for count in ("reps_timed", "slot_samples", "slots_per_rep",
                  "session_slots", "arrived_attempts"):
        rows.append([count, "count"] + [
            fmt(workloads[w]["untraced"][count]) for w in WORKLOADS])
    print_table(header, rows)

    print("\nper layer (traced; median over traced repetitions)")
    rows = metric_rows(workloads, "traced", "metrics")
    rows.append(["reps_traced", "count"] + [
        fmt(workloads[w]["traced"]["reps_traced"]) for w in WORKLOADS])
    print_table(header, rows)

    print("\nphase split (traced; ns per session·slot, share of the sum)")
    phases = workloads[WORKLOADS[0]]["traced"]["phase_ns_per_session_slot"]
    totals = {w: sum(p["value"] for p in workloads[w]["traced"]
                     ["phase_ns_per_session_slot"].values())
              for w in WORKLOADS}
    rows = []
    for name in phases:
        row = [name, "ns"]
        for w in WORKLOADS:
            value = workloads[w]["traced"]["phase_ns_per_session_slot"][name][
                "value"]
            row.append(f"{fmt(value)} ({100 * value / totals[w]:.1f}%)")
        rows.append(row)
    rows.append(["sum", "ns"] + [fmt(totals[w]) for w in WORKLOADS])
    print_table(["phase"] + header[1:], rows)

    print("\nchecks")
    for name, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    path = save({"stamp": stamp, "seed": args.seed, "seconds": seconds,
                 "smoke": args.smoke, "workloads": workloads,
                 "checks": checks, "correct": correct},
                f"all-seed{args.seed}" + ("-smoke" if args.smoke else ""))
    print(f"\nresults: {path.relative_to(ROOT)}")
    print("all checks passed" if correct else "SOME CHECKS FAILED")
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and not 0 <= args.seconds <= 120:
        parser.error("--seconds must be in [0, 120]")
    try:
        if args.workload is None:
            return run_all(args)
        if args.seconds is None or args.trace is None:
            parser.error("--workload needs --seconds and --trace")
        return run_one(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

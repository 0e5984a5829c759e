#!/usr/bin/env python3
"""Hot-path invariant linter for the serving runtime.

The decide/schedule/drain slot loop earns its throughput from a short list
of structural promises: no per-slot allocation, no virtual dispatch inside
kernels, no iostream flushing, dense arrays instead of node-based
containers. Sanitizers cannot see these regressions (an accidental
std::function capture is perfectly well-defined — just slow), so this
linter makes the promises executable: it scans the hot-path translation
units for banned constructs and fails CI on any hit that is not covered by
the documented allowlist (tools/lint_allowlist.txt).

Checks run on comment- and string-stripped source, so prose like
"brand-new session" never trips the `new` rule.

Usage: python3 tools/lint_invariants.py [--repo-root DIR]
Exit code 0 = clean, 1 = violations (or a stale allowlist), 2 = bad setup.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# The hot-path TU set: the session arena + decide kernel, the record chunks
# drain writes and the chunk arena that hands them out, the manager's
# decide/drain slot loop, the schedulers, the event calendar, and the
# telemetry record path. Everything here runs per slot (or per session·slot)
# in the serving benchmark.
HOT_PATH_FILES = [
    "src/serving/session_store.hpp",
    "src/serving/session_store.cpp",
    "src/serving/session_trace.hpp",
    "src/serving/session_trace.cpp",
    "src/serving/session_manager.hpp",
    "src/serving/session_manager.cpp",
    "src/serving/scheduler.hpp",
    "src/serving/scheduler.cpp",
    "src/serving/driver/calendar.hpp",
    "src/serving/driver/calendar.cpp",
    "src/serving/telemetry/flight_recorder.hpp",
    "src/serving/telemetry/flight_recorder.cpp",
    "src/serving/telemetry/registry.hpp",
    "src/serving/telemetry/registry.cpp",
    "src/serving/telemetry/tracer.hpp",
    "src/serving/telemetry/tracer.cpp",
]

# rule name -> (regex on stripped code, why it is banned here)
RULES = {
    "naked-new": (
        re.compile(r"\bnew\b"),
        "heap allocation on the hot path; preallocate or use the arena",
    ),
    "make-unique": (
        re.compile(r"\bstd::make_(?:unique|shared)\b"),
        "heap allocation on the hot path; construction-time factories only",
    ),
    "std-function": (
        re.compile(r"\bstd::function\b"),
        "type-erased callables allocate and defeat inlining; use templates",
    ),
    "virtual": (
        re.compile(r"\bvirtual\b"),
        "virtual dispatch inside kernels defeats inlining; per-slot "
        "polymorphism must stay at phase granularity",
    ),
    "std-endl": (
        re.compile(r"\bstd::endl\b"),
        "endl flushes; hot paths must not do stream I/O at all",
    ),
    "node-container": (
        re.compile(
            r"\bstd::(?:map|multimap|set|multiset|list|forward_list|"
            r"unordered_map|unordered_multimap|unordered_set|"
            r"unordered_multiset)\s*<"
        ),
        "node-based containers allocate per insert; use dense vectors",
    ),
    "stream-header": (
        re.compile(r'#\s*include\s*<(?:iostream|sstream|fstream|strstream)>'),
        "iostream machinery in a hot-path TU (static init + code bloat); "
        "format at the export layer instead",
    ),
}

PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)


def strip_comments_and_strings(text: str) -> str:
    """Replaces comments and string/char literal *contents* with spaces,
    preserving line structure so reported line numbers stay true."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_allowlist(path: pathlib.Path) -> dict[tuple[str, str], int]:
    """Parses `file:rule:max_count` lines; '#' starts a comment."""
    budgets: dict[tuple[str, str], int] = {}
    if not path.exists():
        return budgets
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(":")
        if len(parts) != 3:
            sys.exit(f"error: {path}:{lineno}: expected file:rule:max_count")
        file, rule, count = parts
        if rule not in RULES:
            sys.exit(f"error: {path}:{lineno}: unknown rule {rule!r}")
        budgets[(file.strip(), rule.strip())] = int(count)
    return budgets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo-root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.repo_root

    budgets = load_allowlist(root / "tools" / "lint_allowlist.txt")

    failures = 0
    counts: dict[tuple[str, str], int] = {}
    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.exists():
            print(f"error: hot-path file missing: {rel} "
                  "(update HOT_PATH_FILES if it moved)")
            return 2
        text = path.read_text()
        stripped = strip_comments_and_strings(text)

        if rel.endswith(".hpp") and not PRAGMA_ONCE.search(text):
            print(f"{rel}: header-hygiene: missing #pragma once")
            failures += 1

        for rule, (pattern, why) in RULES.items():
            hits = []
            for m in pattern.finditer(stripped):
                line = stripped.count("\n", 0, m.start()) + 1
                hits.append(line)
            counts[(rel, rule)] = len(hits)
            budget = budgets.get((rel, rule), 0)
            if len(hits) > budget:
                for line in hits:
                    print(f"{rel}:{line}: {rule}: {why}"
                          + (f" (allowlist budget {budget})" if budget else ""))
                failures += len(hits) - budget

    # A shrunk count means the allowlist is stale: tighten it so the budget
    # cannot silently re-inflate later.
    for (file, rule), budget in budgets.items():
        actual = counts.get((file, rule), 0)
        if actual < budget:
            print(f"tools/lint_allowlist.txt: stale budget {file}:{rule}:"
                  f"{budget} (actual {actual}) — tighten it")
            failures += 1

    if failures:
        print(f"\nlint_invariants: {failures} violation(s). Either fix the "
              "construct or, for a lifecycle-edge use that provably never "
              "runs per slot, add a justified tools/lint_allowlist.txt entry.")
        return 1
    print(f"lint_invariants: clean "
          f"({len(HOT_PATH_FILES)} files, {len(RULES) + 1} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks a smoke's *_SUMMARY and *_JSON lines against the committed goldens.

Run from the repository root on the saved stdout of one smoke:

  ./build/examples/trace_replay --slo-strict --faults > chaos-smoke.txt
  python3 tools/check_replay_goldens.py chaos chaos-smoke.txt [--golden FILE]

A golden file holds one section per smoke: a "[name] flags" header line,
then the summary lines that run prints, in order. Every line of the output
that starts with an upper-case word ending in _SUMMARY or _JSON is
compared, in order, with the named section. A change in behaviour then
shows up as a reviewed diff of the golden file. The default file,
tests/golden/trace_replay_summaries.txt, holds examples/trace_replay's
smokes (which print no _JSON line);
tests/golden/driver_churn_summaries.txt holds bench/bench_driver_churn's
legs.

Exit code 0 = the lines match, 1 = they differ, 2 = an unknown section or
an unreadable file. Standard library only.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUMMARY = re.compile(r"^[A-Z]+(?:_[A-Z]+)*_(?:SUMMARY|JSON) ")


def read_sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        header = re.match(r"^\[([a-z0-9_-]+)\]", line)
        if header:
            current = sections.setdefault(header.group(1), [])
        elif current is None:
            raise ValueError(f"summary line outside a section: {line!r}")
        else:
            current.append(line)
    return sections


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("smoke", help="section name in the golden file")
    parser.add_argument("output", help="saved stdout of that smoke's run")
    parser.add_argument(
        "--golden",
        default=str(ROOT / "tests" / "golden" / "trace_replay_summaries.txt"))
    args = parser.parse_args()

    try:
        sections = read_sections(pathlib.Path(args.golden).read_text())
        got = [line for line in pathlib.Path(args.output).read_text().splitlines()
               if SUMMARY.match(line)]
    except (OSError, ValueError) as e:
        print(f"check_replay_goldens: {e}", file=sys.stderr)
        return 2
    if args.smoke not in sections:
        print(f"check_replay_goldens: no [{args.smoke}] section in "
              f"{args.golden}", file=sys.stderr)
        return 2

    want = sections[args.smoke]
    failures = 0
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else "(none)"
        g = got[i] if i < len(got) else "(none)"
        if w == g:
            print(f"  ok   {g}")
            continue
        failures += 1
        print(f"  FAIL golden: {w}\n       got:    {g}")
    print(f"[{args.smoke}] summaries match" if failures == 0
          else f"[{args.smoke}] {failures} line(s) differ from {args.golden}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

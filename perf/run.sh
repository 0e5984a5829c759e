#!/usr/bin/env bash
# End-to-end benchmark: builds build-perf/arvis_perf in Release, runs every
# workload, checks the outputs and prints every metric. Run from the
# repository root:
#
#   perf/run.sh [--seed N] [--seconds S] [--smoke]
#
# The arguments and the single-workload form are documented in perf/run.py.
exec python3 "$(dirname "$0")/run.py" "$@"

#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload: the form BENCHMARK.json's `command` takes
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       the whole set, every workload untraced and traced, one process each
#   benchmark/run.sh --selfcheck
#       the whole set twice on one build; fails if the two disagree
#
# It always builds first (a no-op when nothing changed) and only then
# runs, so nothing is timed in the process that compiled. What a compile
# leaves behind in the machine shows in the calibration readings around
# the passes that follow, which scale them.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/plab-benchmark"
PLAB_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PLAB_BENCH_COMMIT

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
*) exec python3 benchmark/suite.py "$bin" "$@" ;;
esac

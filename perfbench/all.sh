#!/usr/bin/env bash
# Run every workload once and print each one's report:
#
#   bash perfbench/all.sh [SEED] [SECONDS]
#
# Exits non-zero if any workload found a wrong answer or failed.
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
seconds="${2:-25}"
status=0
for w in serve_ycsb cold_eth wiki_history; do
  bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
done
exit "$status"

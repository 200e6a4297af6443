#!/usr/bin/env bash
# Runs every workload once with tracing off and prints its end-to-end
# metrics (scan_s, setup_s, execs_per_s, peak_rss_mb, failed_share).
# Usage, from the repository root: bash gadgetbench/run-all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for w in deep-fuzz gadget-triage fleet-sweep; do
    echo "== $w"
    bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
        grep -E '^(scan_s|setup_s|execs_per_s|peak_rss_mb|failed_share) = '
done

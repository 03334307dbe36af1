#!/bin/sh
# `report` must count every evaluation a journaled tune ran, including the
# ones compaction (every 64 evaluations by default) folded into a snapshot:
# the total Tells row equals the sum of the Evals column tune printed.
#
#   tests/cli_report_totals.sh path/to/tunekit_cli
set -u
CLI=$1
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# Four 5-parameter searches of 66 evaluations each: past one compaction.
"$CLI" tune --app synth:case1 --cutoff 0.25 --variations 10 \
    --session-scheduler --checkpoint-dir "$DIR/ckpt" \
    --evals-per-param 1 --min-evals 66 --seed 1 > "$DIR/tune.out" 2>&1 || {
  cat "$DIR/tune.out"; echo "FAIL: tune exited nonzero"; exit 1; }
"$CLI" report --session "$DIR/ckpt" > "$DIR/report.out" 2>&1 || {
  cat "$DIR/report.out"; echo "FAIL: report exited nonzero"; exit 1; }

evals=$(awk -F'|' '$3 ~ /session-/ { s += $4 } END { print s + 0 }' "$DIR/tune.out")
smallest=$(awk -F'|' '$3 ~ /session-/ && (m == "" || $4 + 0 < m) { m = $4 + 0 } END { print m + 0 }' "$DIR/tune.out")
tells=$(awk -F'|' '$2 ~ /^ *total *$/ { print $4 + 0 }' "$DIR/report.out")
cat "$DIR/report.out"
echo "evaluations run: $evals, tells reported: ${tells:-none}"
[ "$smallest" -gt 64 ] || { echo "FAIL: a search ended before its first compaction"; exit 1; }
[ "$evals" = "${tells:-}" ] || { echo "FAIL: report miscounts"; exit 1; }
echo OK

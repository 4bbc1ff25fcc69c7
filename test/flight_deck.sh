#!/bin/sh
# Prints the flight deck of one audited run: the live windowed-metrics
# snapshot (`run --metrics-out`), the report that `report JOURNAL
# --metrics SNAPSHOT` renders from it (stdout, JSON, markdown), and the
# online/offline gate failing on a tampered snapshot and on a mismatched
# window width.  It also pins the same cell's registry exports
# (`--metrics-prom`, `--metrics-json`) with the phase table, and the
# markdown report of a run whose staleness rule fires on every lag.
# test/golden_flight_deck.txt pins it.
# Usage: flight_deck.sh CLI
set -e
cli=$1
case $cli in /*) ;; *) cli=$(pwd)/$cli ;; esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
echo "=== run --scheme continuous --level global --txns 20 --update-period 10"
"$cli" run --scheme continuous --level global --txns 20 --update-period 10 \
  --journal-out j.jsonl --metrics-interval 50 --metrics-out m.jsonl \
  --alerts-out a.jsonl
echo "=== m.jsonl"
cat m.jsonl
echo "=== report j.jsonl --metrics m.jsonl --window 50"
"$cli" report j.jsonl --metrics m.jsonl --window 50 --json r.json --md r.md
echo "=== r.json"
cat r.json
echo
echo "=== r.md"
cat r.md
echo "=== report j.jsonl --metrics (window 0 begun changed) --window 50"
sed '2s/"begun":[0-9]*/"begun":999/' m.jsonl > tampered.jsonl
status=0
"$cli" report j.jsonl --metrics tampered.jsonl --window 50 \
  --json t.json 2>&1 >/dev/null || status=$?
echo "exit $status"
echo "=== report j.jsonl --metrics m.jsonl --window 100"
status=0
"$cli" report j.jsonl --metrics m.jsonl --window 100 \
  --json w.json 2>&1 >/dev/null || status=$?
echo "exit $status"
echo "=== run --scheme continuous --level global --txns 20 --update-period 10 (registry)"
"$cli" run --scheme continuous --level global --txns 20 --update-period 10 \
  --metrics-prom p.prom --metrics-json p.json
echo "=== p.prom"
cat p.prom
echo "=== p.json"
cat p.json
echo "=== run --scheme continuous --level global --txns 20 --update-period 10 --staleness-versions 0"
"$cli" run --scheme continuous --level global --txns 20 --update-period 10 \
  --staleness-versions 0 --journal-out ja.jsonl --alerts-out a.jsonl \
  > run-a.txt
grep -v -e '^ALERT ' -e '^RESOLVED ' run-a.txt
echo "=== report ja.jsonl --staleness-versions 0"
"$cli" report ja.jsonl --staleness-versions 0 --md rs.md
cat rs.md

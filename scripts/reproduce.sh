#!/bin/sh
# Reproduce the paper's evaluation end to end. Usage:
#   scripts/reproduce.sh [scale] [outdir]
# Scale defaults to 0.05 (minutes on a laptop); 1.0 is paper-scale
# (hours). Results land in outdir (default ./results) as text tables and
# CSVs; EXPERIMENTS.md explains how to read them.
set -eu

SCALE="${1:-0.05}"
OUT="${2:-results}"
mkdir -p "$OUT"

echo "building parapll-bench..."
go build -o "$OUT/parapll-bench" ./cmd/parapll-bench
B="$OUT/parapll-bench"

echo "Tables 3-4 (intra-node static/dynamic) at scale $SCALE..."
"$B" -exp table3 -scale "$SCALE" -csv "$OUT/table3.csv" > "$OUT/table3.txt"
"$B" -exp table4 -scale "$SCALE" -csv "$OUT/table4.csv" > "$OUT/table4.txt"

echo "query-latency comparison..."
"$B" -exp query -scale "$SCALE" > "$OUT/query.txt"

echo "Figure 5 (degree distributions)..."
"$B" -exp fig5 -scale "$SCALE" -csv "$OUT/fig5.csv" > "$OUT/fig5.txt"

echo "Figure 6 (label-addition CDFs)..."
"$B" -exp fig6 -scale "$SCALE" -csv "$OUT/fig6.csv" > "$OUT/fig6.txt"

echo "ablations..."
"$B" -exp ablations -scale "$SCALE" > "$OUT/ablations.txt"

# The cluster experiments multiply work by label redundancy; run them a
# notch smaller so the whole script stays tractable.
CSCALE=$(awk "BEGIN{print $SCALE * 0.6}")
echo "Table 5 (cluster scaling) at scale $CSCALE..."
"$B" -exp table5 -scale "$CSCALE" -threads-per-node 2 -csv "$OUT/table5.csv" > "$OUT/table5.txt"

echo "Figure 7 (sync-frequency sweep) at scale $CSCALE..."
"$B" -exp fig7 -scale "$CSCALE" -datasets Wiki-Vote,Gnutella,CondMat,DE-USA,Epinions \
    -csv "$OUT/fig7.csv" > "$OUT/fig7.txt"

echo "done; see $OUT/"

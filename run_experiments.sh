#!/bin/bash
# Runs every experiment binary at full scale, writing tables to results/.
set -u
cd "$(dirname "$0")"
BIN=target/release
OUT=${1:-results}
for exp in table1 table2 fig07 fig13 fig14 fig15 fig16 large_graph large_patterns ablation_decompose ablation_cmap ablation_bounded engine_floor; do
  echo "=== running $exp ==="
  start=$SECONDS
  if "$BIN/$exp" --threads 20 --out "$OUT"; then
    echo "[$exp took $((SECONDS-start))s]"
  else
    echo "[$exp FAILED]"
  fi
done
echo "=== all done ==="

#!/usr/bin/env bash
# The whole pipeline through the command line: generate -> learn -> infer -> sweep,
# plus the graph-metric and MDS utilities. Everything lands in a scratch directory,
# removed on exit.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

cat > "$work/scenario.json" <<'JSON'
{"kind": "ranking", "n": 500, "rho": 5, "preset": "heterogeneous",
 "n_low": 4, "n_high": 3, "seed": 42}
JSON

uws generate --scenario "$work/scenario.json" --out "$work/data"
head -4 "$work/data/dataset.csv"

uws learn --dataset "$work/data" --model "$work/model.json"
python3 - "$work/model.json" <<'PY'
import json, sys
model = json.load(open(sys.argv[1]))
print("learned concentrations:", [round(t, 2) for t in model["thetas"]])
PY

for rule in mv weighted; do
  uws infer --dataset "$work/data" --model "$work/model.json" \
      --out "$work/pred_$rule" --rule "$rule" --truth "$work/data/truth.csv"
  echo "$rule metrics: $(cat "$work/pred_$rule/metrics.json" | tr -d '\n ')"
done

cat > "$work/sweep.json" <<'JSON'
{"kind": "ranking", "seed": 7, "replicates": 2,
 "base": {"rho": 4, "thetas": [1.5, 1.0, 0.7, 0.5]},
 "grid": {"n": [200, 400], "m": [3, 4]}, "rules": ["mv", "weighted"]}
JSON
uws sweep --scenario "$work/sweep.json" --out "$work/sweep"
head -5 "$work/sweep/results.csv"

printf '0 1\n1 2\n2 3\n3 0\n1 3\n' > "$work/edges.txt"
uws graph-metric --edges "$work/edges.txt" --out "$work/dist.csv"
uws mds --dist "$work/dist.csv" --dim 2 --out "$work/embedding"
cat "$work/embedding.json"

echo "done"

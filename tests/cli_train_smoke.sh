#!/bin/sh
# In-memory training round trip, and telemetry does not perturb the model.
#
#   sh cli_train_smoke.sh HCP_CLI
#
# Trains the default model on one design at HCP_THREADS=1, then again at
# --threads 2 with a run report (telemetry on); the two model files must
# match byte for byte, and the second must load and predict another design.
set -eu
abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
cli=$(abspath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

HCP_THREADS=1 "$cli" train serial.hcp spam_filter > train.log 2>&1 ||
  { cat train.log; exit 1; }
"$cli" train parallel.hcp spam_filter --threads 2 --report report.json \
  > train.log 2>&1 || { cat train.log; exit 1; }
[ -s report.json ] || { echo "FAIL: no run report"; exit 1; }
cmp serial.hcp parallel.hcp
"$cli" predict parallel.hcp face_detection > predict.log 2>&1 ||
  { cat predict.log; exit 1; }
echo "train/predict round trip ok; model identical with telemetry on"

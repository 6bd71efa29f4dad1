#!/usr/bin/env bash
# One-command entry point of the end-to-end benchmark; see e2e.py for the
# modes:
#   bench/e2e/run.sh --seed=7 --out=DIR [--trace]
#   bench/e2e/run.sh --workload cell_cnn --seed 7 --seconds 20 --trace 0
#   bench/e2e/run.sh compare --parent DIR... --change DIR...
exec python3 "$(dirname "$0")/e2e.py" "$@"

#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Arguments go
# to the benchmark unchanged:
#   bash perfbench/run.sh --workload fig11-bitflip --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/vulfi ]; then
  echo "perfbench: $root holds no VULFI source tree to build" >&2
  exit 1
fi
# No shared dune cache: every build artefact stays in the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Builds the benchmark into build-bench/ and runs it from the repository root.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1] [--smoke]
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result. Exits non-zero when a check fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src || ! -f weights/DroNet.weights ]]; then
  echo "run.sh: $root is not a full source tree (needs CMakeLists.txt, src/ and weights/)" >&2
  exit 2
fi
build=build-bench
if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --parallel "$(nproc)" --target dronet_benchmark serve_worker >&2
commit=unknown
if [[ -e .git ]]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi
exec "$build/dronet_benchmark" --commit "$commit" "$@"

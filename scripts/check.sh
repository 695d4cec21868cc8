#!/usr/bin/env bash
# Full local gate: configure, build, and run the test suite under both
# the Release preset and the ASan+UBSan preset, then run emc-lint over
# the exported compile_commands.json and lint the docs (dangling
# relative links). Run from the repo root:
#
#   scripts/check.sh            # both presets + emc-lint + docs
#   scripts/check.sh default    # Release only (+ emc-lint + docs)
#   scripts/check.sh sanitize   # sanitizers only (+ emc-lint + docs)
#
# The sanitize preset is also the build that runs the engine's portable
# ucontext fiber switch (x86-64 Release builds use the register-only
# one), so it cannot be dropped without losing that coverage.
#
# Exits non-zero on the first configure/build/test/lint/docs failure.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default sanitize)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> [$preset] test"
  ctest --preset "$preset" -j "$jobs"
done

# emc-lint over the TU set of the first preset built above (every
# preset exports compile_commands.json; the TU list is identical).
case "${presets[0]}" in
  default) lint_db=build/compile_commands.json ;;
  *)       lint_db="build-${presets[0]}/compile_commands.json" ;;
esac
echo "==> emc-lint ($lint_db)"
python3 scripts/emc_lint.py --compile-commands "$lint_db"

echo "==> docs"
scripts/check_docs.sh

echo "==> all presets green: ${presets[*]}"

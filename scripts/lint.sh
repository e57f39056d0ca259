#!/bin/sh
# The repo's lint pass, also exposed as `cmake --build build --target lint`:
#   1. scripts/lint_rko.py --self-test — the linter's own embedded cases,
#      so a regression in its comment/string scanner or CFG tracking fails
#      the stage instead of silently passing everything.
#   2. scripts/lint_rko.py — project-specific determinism/idiom rules
#      (host threading, wall clock, raw RNG, raw assert, SpinLock across
#      await, unnamed guards, local RwLock guards). Always runs; pure
#      python3.
#   3. clang-tidy — only when installed (it is optional tooling, not a
#      build dependency). Uses the compile database from build/ if present.
# Exit status is non-zero when any stage reports findings.
set -e
cd "$(dirname "$0")/.."

python3 scripts/lint_rko.py --self-test
python3 scripts/lint_rko.py

if command -v clang-tidy >/dev/null 2>&1; then
  BUILD_DIR="${BUILD_DIR:-build}"
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  # Library sources only: tests/benches inherit the config via .clang-tidy
  # but are not gating.
  find src tools -name '*.cpp' -print | xargs clang-tidy -p "$BUILD_DIR" --quiet
  echo "lint.sh: clang-tidy clean"
else
  echo "lint.sh: clang-tidy not installed; skipped (lint_rko.py ran)"
fi

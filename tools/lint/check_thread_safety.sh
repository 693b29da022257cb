#!/usr/bin/env bash
# Clang Thread Safety Analysis gate: -Wthread-safety -Werror over every
# src/ TU (headers are checked through their includers). GCC does not
# implement the analysis, so this gate needs clang; environments without
# one skip (77) and CI enforces with the pinned clang-18.
#
# Usage: check_thread_safety.sh [clang++-binary]
#
# Exit codes: 0 clean, 1 violations (or the misannotated canary NOT
#             caught), 2 usage/config error,
#             77 clang++ unavailable (ctest SKIP_RETURN_CODE).
set -u -o pipefail

CXX="${1:-${CLANGXX:-}}"
if [ -z "$CXX" ]; then
  for c in clang++-18 clang++; do
    if command -v "$c" >/dev/null 2>&1; then CXX="$c"; break; fi
  done
fi
if [ -z "${CXX:-}" ] || ! command -v "$CXX" >/dev/null 2>&1; then
  echo "check_thread_safety: 'clang++-18'/'clang++' not found; skipping" \
       "(install clang or set CLANGXX; CI runs the pinned clang-18)" >&2
  exit 77
fi

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$ROOT" || exit 2

# Both feature gates ON so the annotated fault/trace code is analyzed too.
FLAGS=(-std=c++20 -fsyntax-only -Isrc
       -DPPSCAN_TRACE_ENABLED=1 -DPPSCAN_FAULTS_ENABLED=1
       -Wthread-safety -Werror=thread-safety)

echo "check_thread_safety: $("$CXX" --version | head -1)"

STATUS=0
CHECKED=0
while IFS= read -r tu; do
  if ! "$CXX" "${FLAGS[@]}" "$tu"; then
    echo "$tu:1: [thread-safety] -Wthread-safety violations (see above)"
    STATUS=1
  fi
  CHECKED=$((CHECKED + 1))
done < <(git ls-files 'src/*.cpp' | sort -u)

if [ "$CHECKED" -eq 0 ]; then
  echo "check_thread_safety: no src/ TUs found (run from a git checkout)" >&2
  exit 2
fi

# Negative control: the deliberately misannotated TU must fail to compile.
# If clang accepts it, the flag set above has silently stopped checking
# anything (wrong include path, renamed warning group, macros compiled
# out, ...) and the gate itself is broken.
CANARY="tools/lint/testdata/threadsafety/misannotated.cpp"
if "$CXX" "${FLAGS[@]}" "$CANARY" 2>/dev/null; then
  echo "$CANARY:1: [thread-safety] canary compiled clean — the" \
       "-Wthread-safety gate is not catching violations"
  STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
  echo "check_thread_safety: clean ($CHECKED TUs, canary caught)"
fi
exit "$STATUS"

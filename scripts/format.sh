#!/usr/bin/env bash
# Format verification for the htd tree (never reformats; there is no
# bulk-apply mode on purpose — see DESIGN.md §11).
#
#   scripts/format.sh --check     # the gate: portable whitespace checks,
#                                 # plus clang-format --dry-run when the
#                                 # tool is installed
#
# The portable checks (tabs, trailing whitespace, CRLF, missing final
# newline) always run and always gate — they hold on any machine. The
# clang-format pass runs only where clang-format exists; on toolchains
# without it (the default GCC container) it is skipped with a notice so
# the gate stays deterministic across environments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 || "$1" != "--check" ]]; then
    echo "usage: scripts/format.sh --check" >&2
    exit 2
fi

# Tracked C++ sources plus the build/tooling text files we gate.
mapfile -t files < <(git ls-files '*.cpp' '*.hpp' '*.sh' 'CMakeLists.txt' \
    '*/CMakeLists.txt' '*.cmake')

fail=0

report() {
    echo "format.sh: $1" >&2
    fail=1
}

for f in "${files[@]}"; do
    [[ -f "$f" ]] || continue
    if grep -qP '\t' "$f"; then
        report "$f: tab characters (4-space indent only)"
    fi
    if grep -qE ' +$' "$f"; then
        report "$f: trailing whitespace"
    fi
    if grep -qP '\r' "$f"; then
        report "$f: CRLF line endings"
    fi
    if [[ -s "$f" && -n "$(tail -c 1 "$f")" ]]; then
        report "$f: missing final newline"
    fi
done

if command -v clang-format > /dev/null 2>&1; then
    echo "format.sh: clang-format $(clang-format --version | grep -oE '[0-9]+' | head -1) over ${#files[@]} files"
    for f in "${files[@]}"; do
        [[ "$f" == *.cpp || "$f" == *.hpp ]] || continue
        if ! clang-format --style=file --dry-run --Werror "$f" > /dev/null 2>&1; then
            report "$f: clang-format drift (clang-format --style=file \"$f\" to inspect)"
        fi
    done
else
    echo "format.sh: clang-format not found; skipping style pass (whitespace checks still gate)"
fi

if [[ $fail -ne 0 ]]; then
    echo "format.sh: FAILED" >&2
    exit 1
fi
echo "format.sh: clean"

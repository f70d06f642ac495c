#!/usr/bin/env bash
# Non-test line counts of the library crates, the measure ROADMAP.md's
# "net-negative" rule uses: the non-blank lines that do not start with `//`
# (after indentation), above each file's first `#[cfg(test)]` at column 0.
# An indented `#[cfg(test)]` (a test-only method inside an impl) does not
# end the count; a column-0 one does, wherever it stands.
#
# Prints one `<count> <file>` line per source file of `crates/*/src`, then
# one `<total> <crate dir> (total)` line per crate.
#
# Usage: scripts/nontest_lines.sh [repo root, default: this script's parent]
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

for crate in crates/*/; do
    crate="${crate%/}"
    [ -d "$crate/src" ] || continue
    total=0
    while IFS= read -r file; do
        count=$(awk '
            /^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*$/ { next }
            /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }
        ' "$file")
        printf '%6d %s\n' "$count" "$file"
        total=$((total + count))
    done < <(find "$crate/src" -name '*.rs' | LC_ALL=C sort)
    printf '%6d %s (total)\n' "$total" "$crate"
done

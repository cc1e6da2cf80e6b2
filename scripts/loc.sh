#!/usr/bin/env bash
# Production lines of Rust, per directory and in total: the one instrument
# for "less code".
#
#   scripts/loc.sh [ROOT]        # ROOT defaults to the repo this script is in
#
# Rule: every `*.rs` under `crates/*/src`, `crates/bench/benches`, the root
# package's `src` (the library facade and the `mosaic-flow` CLI) and
# `vendor/*/src`, read from the top down to its first `#[cfg(test)]` — the
# inline test module, which every file here keeps last; a `#[cfg(test)]
# mod x;` declaration does not end the file, and it and the `*tests.rs` file
# it names are skipped; blank lines and lines holding only a `//` comment
# (doc comments included) are not counted. So moving code into a test
# module, deleting comments or reflowing blank lines changes nothing.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() { # production lines of one file
    awk '
        pending {                       # the line after a #[cfg(test)]
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) { pending = 0; next }
            exit
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

total=0
printf '%-28s %8s\n' "directory" "lines"
for dir in crates/*/src crates/bench/benches src vendor/*/src; do
    [ -d "$dir" ] || continue
    sum=0
    while IFS= read -r f; do
        case "$f" in *tests.rs) continue ;; esac
        sum=$((sum + $(count "$f")))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-28s %8d\n' "$dir" "$sum"
    total=$((total + sum))
done
printf '%-28s %8d\n' "total" "$total"

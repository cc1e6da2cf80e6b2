#!/usr/bin/env bash
# A/B two revisions on one mf-benchmark workload, the way choosing-metrics
# §8 asks for: alternating pairs, medians, quartiles and pair wins.
#
#   scripts/ab_bench.sh <ref-a> <ref-b> <workload> [pairs=10]
#
# <ref-a> is the parent, <ref-b> the change; either may be `.` for the
# working tree as it is (tracked and untracked files, uncommitted edits
# included). Each side is checked out into a directory of its own and built
# into a target directory of its own, so neither build sees the other's
# artefacts. Pair k runs both sides on seed k as the driver runs them
# (`--workload W --seed k --seconds 10 --trace 0`, plus `--ledger` so that
# all eight ledger metrics are printed), odd pairs A first, even pairs B
# first. The table gives, per metric, each side's median and quartiles, the
# share of pairs B won (ties count for neither), and whether the medians
# differ by more than A's interquartile range — both must hold before a
# gain is claimed.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
REF_A=$1 REF_B=$2 WORKLOAD=$3 PAIRS=${4:-10}
ROOT=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

checkout() { # <ref> <dir>
    mkdir -p "$2"
    if [ "$1" = . ]; then
        (cd "$ROOT" && git ls-files -co --exclude-standard -z |
            while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
            tar --null -T - -cf -) | tar -xf - -C "$2"
    else
        git -C "$ROOT" archive "$1" | tar -xf - -C "$2"
    fi
}

build() { # <dir>
    (cd "$1" && CARGO_TARGET_DIR="$1/.ab_target" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}

run() { # <side> <dir> <seed>: appends "<metric> <side> <seed> <value>" rows
    (cd "$2" && ./.ab_target/release/mf-benchmark --workload "$WORKLOAD" --seed "$3" \
        --seconds 10 --trace 0 --ledger 2>/dev/null | tail -1) |
        grep -o '"[a-z_.0-9]*": {"value": [-+0-9.eE]*' |
        sed -E 's/"([^"]*)": \{"value": (.*)/\1 '"$1 $3"' \2/' >>"$WORK/rows"
}

echo "A = $REF_A, B = $REF_B, workload $WORKLOAD, $PAIRS pairs, $(nproc) cores" >&2
checkout "$REF_A" "$WORK/a"
checkout "$REF_B" "$WORK/b"
build "$WORK/a"
build "$WORK/b"
# benchmark/README.md: do not measure within a minute of a build.
sleep 60
for k in $(seq 1 "$PAIRS"); do
    if [ $((k % 2)) -eq 1 ]; then
        run A "$WORK/a" "$k"
        run B "$WORK/b" "$k"
    else
        run B "$WORK/b" "$k"
        run A "$WORK/a" "$k"
    fi
    echo "pair $k/$PAIRS done" >&2
done

# Which way is better, from BENCHMARK.json of the B side (`"name": "x", …
# "better": "lower"`); the ledger metrics it lists under per_layer count too.
grep -o '"name": "[a-z_.0-9]*", "unit": "[^"]*", "better": "[a-z]*"' "$WORK/b/BENCHMARK.json" |
    sed -E 's/"name": "([^"]*)", "unit": "[^"]*", "better": "([a-z]*)"/\1 \2/' >"$WORK/better"

sort -k1,1 -k2,2 -k4,4g "$WORK/rows" | awk -v better="$WORK/better" '
function quantile(v, n, q,    pos, lo, frac) {   # v[1..n] ascending
    pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
}
function flush(    a, b, na, nb, s, wins, losses, k, dir, ma, mb, iqr, gain) {
    if (metric == "") return
    na = nb = 0
    for (k = 1; k <= count["A"]; k++) a[++na] = sorted["A", k]
    for (k = 1; k <= count["B"]; k++) b[++nb] = sorted["B", k]
    dir = (metric in way) ? way[metric] : "lower"
    wins = losses = 0
    for (s in byseed_a) if (s in byseed_b) {
        if (byseed_b[s] == byseed_a[s]) continue
        if ((byseed_b[s] < byseed_a[s]) == (dir == "lower")) wins++; else losses++
    }
    ma = quantile(a, na, 0.5); mb = quantile(b, nb, 0.5)
    iqr = quantile(a, na, 0.75) - quantile(a, na, 0.25)
    gain = (dir == "lower") ? ma - mb : mb - ma
    printf "%-16s %-6s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B wins %d/%d  %s\n",
        metric, dir, ma, quantile(a, na, 0.25), quantile(a, na, 0.75),
        mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75), wins, wins + losses,
        (gain > iqr ? "medians differ by more than A'\''s IQR" : "medians within A'\''s IQR")
    delete sorted; delete count; delete byseed_a; delete byseed_b
}
BEGIN { while ((getline line < better) > 0) { split(line, f, " "); way[f[1]] = f[2] } }
$1 != metric { flush(); metric = $1 }
{
    sorted[$2, ++count[$2]] = $4
    if ($2 == "A") byseed_a[$3] = $4; else byseed_b[$3] = $4
}
END { flush() }'

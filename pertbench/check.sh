#!/usr/bin/env bash
# Hold BENCHMARK.json and the bench binary together, then smoke-run the
# bench. Run from anywhere.
#
#   1. BENCHMARK.json is byte-for-byte `pert-bench list --json`, so every
#      workload and metric name is in both, with the same unit, direction
#      and bound.
#   2. Names start with a letter or digit and use [A-Za-z0-9_.-], at most
#      64 characters, each used once; at most 8 workloads, 16 end-to-end
#      and 128 per-layer metrics; bounds at most 0.25; setup_s is there.
#   3. `pert-bench run --rounds 1` passes: every workload runs, digests
#      of each pair match, nothing fails.
#
# Exit 0 when all three hold, 1 otherwise.

set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --quiet --offline --manifest-path pertbench/Cargo.toml \
        --bin pert-bench -- "$@"
}

fail=0

if ! diff -u BENCHMARK.json <(bench list --json); then
    echo "check: BENCHMARK.json differs from \`pert-bench list --json\`" >&2
    echo "check: regenerate it with: cargo run --release --offline --manifest-path" \
        "pertbench/Cargo.toml --bin pert-bench -- list --json > BENCHMARK.json" >&2
    fail=1
fi

bench list | awk '
    { kind = $1; name = $2; n[kind]++ }
    name !~ /^[A-Za-z0-9][A-Za-z0-9_.-]*$/ || length(name) > 64 {
        print "check: bad name " name; bad = 1
    }
    seen[name]++ { print "check: name used twice: " name; bad = 1 }
    kind == "end_to_end" && $5 + 0 > 0.25 { print "check: bound above 0.25: " name; bad = 1 }
    kind == "end_to_end" && name == "setup_s" && $3 == "s" && $4 == "lower" { setup = 1 }
    END {
        if (n["workload"] < 2 || n["workload"] > 8) { print "check: workloads " n["workload"]; bad = 1 }
        if (n["end_to_end"] < 1 || n["end_to_end"] > 16) { print "check: end_to_end " n["end_to_end"]; bad = 1 }
        if (n["per_layer"] < 1 || n["per_layer"] > 128) { print "check: per_layer " n["per_layer"]; bad = 1 }
        if (!setup) { print "check: no setup_s in s, lower"; bad = 1 }
        printf "check: %d workloads, %d end-to-end, %d per-layer metrics\n",
            n["workload"], n["end_to_end"], n["per_layer"]
        exit bad
    }' >&2 || fail=1

if ! bench run --rounds 1; then
    echo "check: smoke run failed" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "check: ok" >&2
exit "$fail"

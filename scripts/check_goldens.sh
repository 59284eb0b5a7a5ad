#!/bin/sh
# Stdout goldens for every experiment binary.
#
# Runs each binary in crates/bench/src/bin at --quick (progress off, the
# default thread count) and compares its stdout byte for byte with
# tests/goldens/quick/<bin>.txt. The goldens were captured at
# --quick --threads 1; every binary's stdout is independent of the
# thread count, so any difference means modelled output moved.
#
# A difference after a change that should not move the model is a bug
# in that change: fix the code, not the golden. After a deliberate model
# change, regenerate the goldens and review the diff with the change:
#
#   cargo build --release --workspace
#   sh scripts/check_goldens.sh --update
#   git diff --stat tests/goldens/quick
#
# Usage:
#   sh scripts/check_goldens.sh            # compare; exit 1 on any difference
#   sh scripts/check_goldens.sh --update   # rewrite every golden at --threads 1
#
# Binaries must already be built: cargo build --release --workspace
set -eu

cd "$(dirname "$0")/.."
goldens=tests/goldens/quick
bindir=target/release
mode="${1:-check}"
out=$(mktemp -d "${TMPDIR:-/tmp}/flatwalk-goldens.XXXXXX")
trap 'rm -rf "$out"' EXIT INT TERM
if [ "$mode" = "--update" ]; then
    mkdir -p "$goldens"
fi

status=0
checked=0
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    if [ ! -x "$bindir/$bin" ]; then
        echo "check_goldens: $bindir/$bin not built (cargo build --release --workspace)" >&2
        exit 1
    fi
    started=$(date +%s)
    if [ "$mode" = "--update" ]; then
        FLATWALK_PROGRESS=0 "$bindir/$bin" --quick --threads 1 >"$goldens/$bin.txt"
        echo "wrote $goldens/$bin.txt ($(($(date +%s) - started)) s)"
        continue
    fi
    if [ ! -f "$goldens/$bin.txt" ]; then
        echo "check_goldens: no golden for $bin at $goldens/$bin.txt" >&2
        status=1
        continue
    fi
    checked=$((checked + 1))
    if ! FLATWALK_PROGRESS=0 "$bindir/$bin" --quick >"$out/$bin.txt" 2>"$out/$bin.err"; then
        echo "FAIL $bin: exited non-zero"
        tail -n 20 "$out/$bin.err"
        status=1
    elif cmp -s "$goldens/$bin.txt" "$out/$bin.txt"; then
        echo "ok   $bin ($(($(date +%s) - started)) s)"
    else
        echo "DIFF $bin: stdout differs from $goldens/$bin.txt"
        diff "$goldens/$bin.txt" "$out/$bin.txt" | head -n 20 || true
        status=1
    fi
done

if [ "$mode" = "--update" ]; then
    exit 0
fi
echo "check_goldens: $checked binaries compared with $goldens"
exit "$status"

#!/usr/bin/env sh
# Tagged-lock lint for the per-cell and per-request paths.
#
# The files below are the ones every grid cell or served request goes
# through: the scheduler, the setup cache, the serve result cache and
# store, and the memory model (EXPERIMENTS.md, "Hot-path concurrency
# rules"). A lock there is allowed, but it must say how often it is
# taken: any `.lock()` in these files without a `// lock-ok: <reason>`
# tag on the same line fails this lint. The reason names the lock's
# traffic (once per cell, per served cell or per job) or why it is off
# the hot path (panic reporting, test plumbing), so a lock taken per
# simulated operation cannot slip in unremarked. `RwLock` is never
# permitted.
#
# Run from the repository root: sh scripts/lint_lockfree.sh

set -eu

HOT_PATH_FILES="
crates/sync/src/steal.rs
crates/sync/src/prefetch.rs
crates/sim/src/setup.rs
crates/sim/src/runner.rs
crates/serve/src/rcache.rs
crates/serve/src/store.rs
crates/mem/src/numa.rs
crates/mem/src/dram.rs
"

status=0
for f in $HOT_PATH_FILES; do
    # Strip test modules? No — stress tests also must not lock around
    # the primitives they exercise; the tag requirement applies there
    # too.
    untagged=$(grep -n '\.lock()' "$f" | grep -v 'lock-ok:' || true)
    if [ -n "$untagged" ]; then
        echo "untagged .lock() on a lock-free hot-path file: $f" >&2
        echo "$untagged" | sed "s|^|  $f:|" >&2
        status=1
    fi
    # RwLock never appears on these paths at all (readers of a RwLock
    # still serialize against writers); no tag can excuse it.
    if grep -n 'RwLock' "$f" >&2; then
        echo "RwLock is not permitted on lock-free hot-path file: $f" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "lock-free hot-path lint OK ($(echo $HOT_PATH_FILES | wc -w) files)"
fi
exit $status

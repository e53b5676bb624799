#!/usr/bin/env bash
# The executable mutation ledger. Each tests/mutants/NN-<name>.patch is a
# small deliberate bug; its header's `Test: <cargo test arguments>` line
# names the test that must catch it. In a throwaway `git worktree` of HEAD
# this script checks once per named test that the unpatched tree passes it,
# then, per patch, applies the patch, builds, and expects the test to fail.
# It exits non-zero when a patch does not apply, does not build, or
# survives (its test still passes).
#
#   tests/mutants/run.sh                 every patch
#   tests/mutants/run.sh PATCH...        only these
set -euo pipefail
root="$(git rev-parse --show-toplevel)"
cd "$root"
if [ "$#" -gt 0 ]; then patches=("$@"); else patches=(tests/mutants/*.patch); fi
for i in "${!patches[@]}"; do patches[i]="$(realpath "${patches[i]}")"; done

work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
tree="$work/tree"
cleanup() {
    git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" HEAD
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

test_of() { sed -n 's/^Test: //p' "$1" | head -n 1; }
run_test() { (cd "$tree" && eval "cargo test -q $1" >"$work/log" 2>&1); }

status=0
declare -A baseline=()
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    args="$(test_of "$patch")"
    if [ -z "$args" ]; then
        echo "FAIL    $name: no 'Test:' line in its header"
        status=1
        continue
    fi
    if [ -z "${baseline[$args]:-}" ]; then
        if ! run_test "$args"; then
            echo "FAIL    unpatched tree fails 'cargo test $args':"
            tail -n 20 "$work/log"
            exit 1
        fi
        baseline[$args]=passed
    fi
    if ! git -C "$tree" apply "$patch"; then
        echo "FAIL    $name: does not apply to HEAD"
        status=1
        continue
    fi
    if ! (cd "$tree" && eval "cargo test -q --no-run $args" >"$work/log" 2>&1); then
        echo "FAIL    $name: does not build"
        status=1
    elif run_test "$args"; then
        echo "SURVIVE $name: 'cargo test $args' still passes"
        status=1
    else
        echo "killed  $name"
    fi
    git -C "$tree" checkout --quiet -- .
done
exit "$status"

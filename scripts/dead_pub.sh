#!/usr/bin/env bash
# Unreferenced public surface: every `pub fn` defined under crates/*/src
# (the offline shims under crates/shims/ excluded — their surface is the
# upstream crate's) whose name occurs exactly once, as a whole word, in
# the Rust sources under crates/ tests/ examples/ src/ — i.e. nothing but
# its own definition mentions it: no caller, no test, no doc link.
#
# The count is a ratchet: the script fails when it exceeds RATCHET below.
# Delete the function (or use it) rather than raising RATCHET.
#
#   scripts/dead_pub.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

RATCHET=0

dead=$(
    {
        # every identifier occurrence in the tree, one per line
        grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates tests examples src |
            sed 's/^/use /'
        # every `pub fn` name, with where it is defined
        grep -rnoE --include='*.rs' --exclude-dir=shims 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
            sed -E 's/^([^:]+:[0-9]+):pub fn (.*)$/def \2 \1/'
    } | awk '
        $1 == "use" { uses[$2]++ }
        $1 == "def" { at[$2] = $3 }
        END { for (name in at) if (uses[name] == 1) print at[name], name }' | sort
)
n=$(printf '%s' "$dead" | grep -c . || true)
[ -z "$dead" ] || printf '%s\n' "$dead"
printf 'dead pub fns: %d  (ratchet %d)\n' "$n" "$RATCHET"
if [ "$n" -gt "$RATCHET" ]; then
    echo "dead pub census: $n pub fn names are referenced nowhere but their definition (ratchet $RATCHET)" >&2
    exit 1
fi

#!/usr/bin/env bash
# Public settings: the `pub` fields of every `pub struct *Options` /
# `pub struct *Config` defined under crates/*/src (the offline shims under
# crates/shims/ and the benchmark crate excluded), each file cut at its
# first `#[cfg(test)]` as in net_loc.sh. Prints each struct with its field
# count, then the total.
#
# The total is a ratchet: the script fails when it exceeds RATCHET below.
# A setting that every caller leaves at one value is a constant, not a
# knob; lower RATCHET whenever a PR removes one, and give a reason in
# CHANGES.md for raising it.
#
#   scripts/knob_census.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

RATCHET=13

census=$(
    find crates/*/src -name '*.rs' -not -path 'crates/shims/*' -not -path 'crates/bench/*' -print0 |
        sort -z | xargs -0 awk '
            FNR == 1 { cut = 0; open = "" }
            /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
            cut || /^[[:space:]]*\/\// { next }
            match($0, /^pub struct [A-Za-z0-9_]*(Options|Config) \{/) {
                open = FILENAME ": " substr($0, 12, RLENGTH - 13)
                n[open] = 0
                next
            }
            open != "" && /^\}/ { open = ""; next }
            open != "" && /^[[:space:]]+pub [a-z_][a-z0-9_]*:/ { n[open]++ }
            END { for (s in n) printf "%-60s %3d\n", s, n[s] }' | sort
)
total=$(printf '%s\n' "$census" | awk '{ t += $NF } END { print t + 0 }')
[ -z "$census" ] || printf '%s\n' "$census"
printf '%-60s %3d  (ratchet %d)\n' "public settings" "$total" "$RATCHET"
if [ "$total" -gt "$RATCHET" ]; then
    echo "knob census: $total public *Options / *Config fields exceed the ratchet of $RATCHET" >&2
    exit 1
fi

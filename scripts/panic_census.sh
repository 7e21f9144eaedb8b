#!/usr/bin/env bash
# ROADMAP 8e's census: non-test lines of crates/*/src/**/*.rs that can
# panic on purpose — `expect(`, `panic!`, `unreachable!` — with the same
# file cut as net_loc.sh (each file stops at its first `#[cfg(test)]`,
# comment lines are skipped), per crate, plus the
# `engine+txn+columnar+core+exec` total the roadmap tracks.
#
# The total is a ratchet: the script fails when it exceeds RATCHET below.
# Lower RATCHET whenever a PR brings the total down; raising it needs a
# reason in CHANGES.md.
#
#   scripts/panic_census.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

RATCHET=104

total=0
for crate in crates/*/; do
    [ -d "$crate/src" ] || continue
    name=$(basename "$crate")
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        cut || /^[[:space:]]*\/\// { next }
        /expect\(|panic!|unreachable!/ { n++ }
        END { print n + 0 }')
    printf '%-28s %5d\n' "$name" "$n"
    case $name in
        engine | txn | columnar | core | exec) total=$((total + n)) ;;
    esac
done
printf '%-28s %5d  (ratchet %d)\n' "engine+txn+columnar+core+exec" "$total" "$RATCHET"
if [ "$total" -gt "$RATCHET" ]; then
    echo "panic census: $total non-test expect(/panic!/unreachable! lines exceed the ratchet of $RATCHET" >&2
    exit 1
fi

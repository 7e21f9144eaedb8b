#!/usr/bin/env bash
# The ROADMAP's LOC ledger: non-blank, non-comment lines of
# crates/*/src/**/*.rs, each file cut at its first `#[cfg(test)]`, per
# crate and in total, plus the `engine+txn+core+columnar` subtotal the
# roadmap tracks. With a base ref, also prints that ref's numbers and the
# difference (working tree minus base).
#
#   scripts/net_loc.sh            # working tree only
#   scripts/net_loc.sh HEAD~1     # working tree vs. a commit
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Prints "<crate> <lines>" per crate of the tree rooted at $1.
ledger() {
    local root=$1 crate
    for crate in "$root"/crates/*/; do
        [ -d "$crate/src" ] || continue
        find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$crate")" '
            FNR == 1 { cut = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
            cut || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { print crate, n + 0 }'
    done
}

here=$(ledger .)
if [ $# -ge 1 ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" crates | tar -x -C "$tmp"
    base=$(ledger "$tmp")
else
    base=$here
fi

printf '%s\n' "$here" | awk -v base="$base" -v ref="${1:-}" '
    BEGIN {
        n = split(base, lines, "\n")
        for (i = 1; i <= n; i++) { split(lines[i], f, " "); was[f[1]] = f[2] }
        core["engine"] = core["txn"] = core["core"] = core["columnar"] = 1
    }
    function row(name, now, before) {
        if (ref == "") printf "%-28s %7d\n", name, now
        else printf "%-28s %7d %7d %+7d\n", name, now, before, now - before
    }
    {
        seen[$1] = 1
        row($1, $2, was[$1])
        total += $2; btotal += was[$1]
        if ($1 in core) { sub_now += $2; sub_was += was[$1] }
    }
    END {
        for (c in was) if (!(c in seen)) { row(c, 0, was[c]); btotal += was[c]; if (c in core) sub_was += was[c] }
        row("engine+txn+core+columnar", sub_now, sub_was)
        row("total", total, btotal)
    }'

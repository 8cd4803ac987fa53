#!/usr/bin/env bash
# The line count every simplicity PR quotes: per file under crates/*/src,
# the lines before the first `#[cfg(test)]`, summed per crate and in
# total. A `tests.rs` is skipped whole: its `#[cfg(test)]` sits on the
# `mod tests;` line of its parent, not inside it. Run from anywhere;
# prints `<crate> <lines>` rows and `total`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' ! -name tests.rs -print0 | xargs -0 -n1 awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' |
        awk -v crate="$(basename "$crate")" '{s+=$1} END{print crate, s+0}'
done | awk '{print; t+=$2} END{print "total", t}'

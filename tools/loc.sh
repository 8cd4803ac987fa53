#!/usr/bin/env bash
# The line count every simplicity PR quotes: per file under crates/*/src,
# the lines before the first `#[cfg(test)]`, summed per crate and in
# total. A `tests.rs` is skipped whole: its `#[cfg(test)]` sits on the
# `mod tests;` line of its parent, not inside it. Run from anywhere;
# prints `<crate> <lines>` rows and `total`.
#
# Exits non-zero, naming the file and line, when a top-level item that is
# not itself under `#[cfg(test)]` follows a file's first `#[cfg(test)]`:
# the count would silently skip it. Attributes, doc comments and closing
# delimiters at column 0 are not items.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' ! -name tests.rs -print0 | xargs -0 -n1 awk '
        /^#\[cfg\(test\)\]/ { test = 1; gated = 1; next }
        !test { n++; next }
        /^[^[:space:]#\/})\]]/ {
            if (gated) { gated = 0; next }
            printf "%s:%d: top-level item after the first #[cfg(test)] is not counted: %s\n", FILENAME, FNR, $0 > "/dev/stderr"
            bad = 1
            exit 1
        }
        END { if (bad) exit 1; print n + 0 }' |
        awk -v crate="$(basename "$crate")" '{s+=$1} END{print crate, s+0}'
done | awk '{print; t+=$2} END{print "total", t}'

#!/usr/bin/env bash
# Counts non-test code lines in Rust sources.
#
# Usage: scripts/loc.sh <path>...
#
# Each path is a .rs file or a directory searched for .rs files. A line
# counts when it is not blank, does not start with `//` (comments and doc
# comments), and lies outside every item marked `#[cfg(test)]` — a test
# module, a test-only function, enum variant, match arm or field — wherever
# in the file that item sits. Prints one `<count> <path>` line per path,
# then a total when more than one path is given.
set -euo pipefail

if (($# == 0)); then
    echo "usage: $0 <path>..." >&2
    exit 2
fi

count() {
    # An item ends on the first line that leaves the bracket depth at zero
    # after a `{` has opened, or that ends in `;` or `,` at depth zero
    # (a `use`, a field, a one-line variant or match arm). String and
    # bracket-char literals and trailing comments are dropped before the
    # brackets are counted.
    awk '
        function strip(s) {
            gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
            gsub(/'\''[][{}()]'\''/, "'\'''\''", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        FNR == 1 { skip = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (!skip && index(line, "#[cfg(test)]") == 1) {
                skip = 1; depth = 0; opened = 0
                line = substr(line, 13)
                sub(/^[ \t]+/, "", line)
                if (line == "") next
            }
            if (skip) {
                s = strip(line)
                n = length(s)
                for (i = 1; i <= n; i++) {
                    c = substr(s, i, 1)
                    if (c == "{" || c == "(" || c == "[") { depth++; if (c == "{") opened = 1 }
                    else if (c == "}" || c == ")" || c == "]") depth--
                }
                sub(/[ \t]+$/, "", s)
                if (depth <= 0 && (opened || s ~ /[;,]$/)) skip = 0
                next
            }
            if (line != "" && index(line, "//") != 1) total++
        }
        END { print total + 0 }
    ' "$@"
}

grand=0
for path in "$@"; do
    if [[ -d "$path" ]]; then
        mapfile -t files < <(find "$path" -name '*.rs' -type f | sort)
    elif [[ -f "$path" ]]; then
        files=("$path")
    else
        echo "loc.sh: no such file or directory: $path" >&2
        exit 2
    fi
    n=0
    ((${#files[@]})) && n=$(count "${files[@]}")
    printf '%6d %s\n' "$n" "$path"
    grand=$((grand + n))
done
if (($# > 1)); then
    printf '%6d total\n' "$grand"
fi

#!/usr/bin/env bash
# Program lines per crate, counted by lint.sh's rule: every
# crates/*/src/*.rs and crates/*/src/*/*.rs file up to its first
# `#[cfg(...test` line (the tail-positioned test modules are not program
# code). Blank and comment lines above the cut count. crates/testkit, which
# only tests link, is not program code and is not counted.
#
# Usage: scripts/loc.sh [REV]
#   Without REV, prints the working tree's counts. With REV (any git
#   revision), also prints the counts at REV and the difference.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of stdin before the first test-module line.
program_lines() {
  awk '/^#\[cfg\(.*test/ { exit } { n++ } END { print n + 0 }'
}

# "<crate> <lines>" for each crate of the working tree.
tree_counts() {
  local f
  for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    [[ -e "$f" && "$f" != crates/testkit/* ]] || continue
    f="${f#crates/}"
    echo "${f%%/*} $(program_lines <"crates/$f")"
  done | sum_by_crate
}

# "<crate> <lines>" for each crate at revision $1.
rev_counts() {
  local f
  git ls-tree -r --name-only "$1" -- crates |
    grep -E '^crates/[^/]+/src/([^/]+/)?[^/]+\.rs$' | grep -v '^crates/testkit/' |
    while read -r f; do
      local rel="${f#crates/}"
      echo "${rel%%/*} $(git show "$1:$f" | program_lines)"
    done | sum_by_crate
}

sum_by_crate() {
  awk '{ n[$1] += $2 } END { for (c in n) print c, n[c] }' | sort
}

if [[ $# -eq 0 ]]; then
  tree_counts | awk '
    { printf "%-10s %7d\n", $1, $2; t += $2 }
    END { printf "%-10s %7d\n", "total", t }'
  exit 0
fi

rev="$1"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
  echo "scripts/loc.sh: unknown revision $rev" >&2
  exit 1
}
join -a1 -a2 -e 0 -o 0,1.2,2.2 <(tree_counts) <(rev_counts "$rev") | awk -v rev="$rev" '
  BEGIN { printf "%-10s %7s %7s %7s\n", "crate", "tree", substr(rev, 1, 7), "diff" }
  {
    printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $2 - $3
    t += $2; r += $3
  }
  END { printf "%-10s %7d %7d %+7d\n", "total", t, r, t - r }'

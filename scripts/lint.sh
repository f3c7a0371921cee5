#!/usr/bin/env bash
# Lint gate for the workspace: clippy at -D warnings (default and `sanitize`
# feature builds), three repo-specific grep lints over program code and one
# over the manifests:
#
#   1. no `.unwrap()` in library code — fallible paths must use
#      `?`/`expect` with context or handle the error;
#   2. no float `==` / `!=` against literals — exact-zero fast paths that
#      are genuinely intended need a waiver;
#   3. no public item without a program caller — every `pub fn`, `pub
#      struct`, `pub enum`, `pub trait`, `pub type`, `pub const` and `pub
#      static` in crates/*/src must be named, as a whole word and outside
#      string literals, on some program line other than its own
#      definition. Program lines are the library sources,
#      crates/*/benches, examples/ and benchmark/src;
#      `use` / `pub use` statements do not count (rustc already flags an
#      import nothing uses). rustc's dead_code lint covers private items.
#      The check matches names, not paths: two items that share a name
#      both count as used, so it can miss a dead item; it flags a live
#      one only when every use goes through a `use ... as` rename;
#   4. `hero-testkit` (crates/testkit: the references and fixtures tests
#      share) is only ever a dev-dependency — no `[dependencies]` table of
#      a workspace crate or of benchmark/Cargo.toml names it;
#   5. only the lane layer touches the CPU — no `std::arch`, `core::arch`,
#      `target_feature` or `is_x86_feature_detected` on a program line
#      (library sources, crates/*/benches, examples/, benchmark/src)
#      outside crates/tensor/src/ops/lanes.rs. It takes no waiver.
#
# Program code is each crates/*/src file outside crates/testkit, up to its
# first `#[cfg(test)]` / `#[cfg(all(test, ...))]` line (the repo convention
# is tail-positioned test modules), minus comment lines. Waivers live in scripts/lint-allow.txt
# as tab-separated `file<TAB>substring` lines, each under a `#` comment that
# gives its reason; a flagged line is waived when an entry's file matches
# and the line contains the substring. An entry whose file is missing, or
# whose substring is on no program line of that file, is stale and fails
# the lint, so waivers leave with the code they waived.
#
# Usage: scripts/lint.sh  (invoked by scripts/verify.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

CLIPPY_LINTS=(
  -D warnings
  -D clippy::dbg_macro
  -D clippy::todo
  -D clippy::unimplemented
)

echo "==> clippy -D warnings (default features)"
cargo clippy --workspace --all-targets -- "${CLIPPY_LINTS[@]}"

echo "==> clippy -D warnings (sanitize feature)"
cargo clippy -p hero-tensor -p hero-autodiff -p hero-nn --all-targets --features sanitize \
  -- "${CLIPPY_LINTS[@]}"

ALLOW=scripts/lint-allow.txt

# The library sources of every crate but crates/testkit, which only tests
# link.
lib_sources() {
  local file
  for file in crates/*/src/*.rs crates/*/src/*/*.rs; do
    [[ -e "$file" && "$file" != crates/testkit/* ]] && echo "$file"
  done
  return 0
}

allowed() { # $1 = file, $2 = offending line
  local f pat
  while IFS=$'\t' read -r f pat; do
    [[ -z "$f" || "$f" == \#* ]] && continue
    if [[ "$1" == "$f" && "$2" == *"$pat"* ]]; then
      return 0
    fi
  done <"$ALLOW"
  return 1
}

# program_text <file> — the file's lines up to its first test-module line.
program_text() {
  local cut
  cut=$(grep -n -m1 '^#\[cfg(.*test' "$1" | cut -d: -f1 || true)
  if [[ -n "$cut" ]]; then
    head -n $((cut - 1)) "$1"
  else
    cat "$1"
  fi
}

# scan <regex> <description> — greps non-test library code, honouring the
# allowlist. Prints violations and returns nonzero if any survive.
scan() {
  local re="$1" desc="$2" bad=0 file hits hit line
  for file in $(lib_sources); do
    hits=$(program_text "$file" | grep -nE "$re" |
      grep -vE '^[0-9]+:[[:space:]]*//' || true)
    [[ -z "$hits" ]] && continue
    while IFS= read -r hit; do
      line="${hit#*:}"
      if ! allowed "$file" "$line"; then
        echo "lint.sh: $desc: $file:$hit"
        bad=1
      fi
    done <<<"$hits"
  done
  return $bad
}

fail=0
echo "==> grep lint: no .unwrap() in library code"
scan '\.unwrap\(\)' 'forbidden .unwrap() in library code' || fail=1

echo "==> grep lint: no float literal == / != comparisons"
scan '(==|!=)[[:space:]]*-?[0-9]+\.[0-9]|[0-9]+\.[0-9]*[[:space:]]*(==|!=)' \
  'float equality against a literal' || fail=1

# unreferenced_items — prints each public item of crates/*/src whose name
# is on no program line but its own definition, honouring the allowlist,
# and returns nonzero if any survive.
unreferenced_items() {
  local bad=0 file line def
  local defs
  defs=$(
    for file in $(lib_sources) crates/*/benches/*.rs examples/*.rs benchmark/src/*.rs; do
      [[ -e "$file" ]] || continue
      program_text "$file" | awk -v f="$file" '{ print f "\t" NR "\t" $0 }'
    done | awk -F'\t' '
      { line = substr($0, length($1) + length($2) + 3) }
      line ~ /^[[:space:]]*\/\// { next }
      in_use { if (line ~ /;[[:space:]]*$/) in_use = 0; next }
      line ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ {
        if (line !~ /;[[:space:]]*$/) in_use = 1
        next
      }
      {
        name = ""
        if ($1 ~ /^crates\/[^\/]+\/src\// && match(line, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
          name = substr(line, RSTART, RLENGTH)
          sub(/.*[[:space:]]/, "", name)
        }
        # A name inside a string literal (an error message, an event
        # key) is not a caller.
        words = line
        gsub(/"([^"\\]|\\.)*"/, " ", words)
        gsub(/[^A-Za-z0-9_]+/, " ", words)
        n = split(words, w, " ")
        own = 0
        for (i = 1; i <= n; i++) {
          count[w[i]]++
          if (w[i] == name) own++
        }
        if (name != "") {
          nd++
          def_name[nd] = name
          def_own[nd] = own
          def_at[nd] = $1 "\t" $2 "\t" line
        }
      }
      END {
        for (i = 1; i <= nd; i++)
          if (count[def_name[i]] == def_own[i]) print def_at[i]
      }'
  )
  [[ -z "$defs" ]] && return 0
  while IFS=$'\t' read -r file line def; do
    if ! allowed "$file" "$def"; then
      echo "lint.sh: public item with no program caller: $file:$line:$def"
      bad=1
    fi
  done <<<"$defs"
  return $bad
}

echo "==> grep lint: no public item without a program caller"
unreferenced_items || fail=1

# stale_entries — every allowlist entry must name an existing file and a
# substring found on one of its non-comment program lines.
stale_entries() {
  local f pat bad=0
  while IFS=$'\t' read -r f pat; do
    [[ -z "$f" || "$f" == \#* ]] && continue
    if [[ -z "$pat" ]]; then
      echo "lint.sh: allowlist entry without a substring: $f"
      bad=1
    elif [[ ! -e "$f" ]]; then
      echo "lint.sh: stale allowlist entry, no such file: $f"
      bad=1
    # Not `grep -q`: quitting at the first match would SIGPIPE the
    # producers, which pipefail reports as a miss.
    elif ! program_text "$f" | grep -vE '^[[:space:]]*//' | grep -F -- "$pat" >/dev/null; then
      echo "lint.sh: stale allowlist entry, on no program line of $f: $pat"
      bad=1
    fi
  done <"$ALLOW"
  return $bad
}

echo "==> grep lint: no stale allowlist entries"
stale_entries || fail=1

# testkit_dependents — prints each manifest whose `[dependencies]` table
# (or a target-specific one) names hero-testkit, and returns nonzero if any.
testkit_dependents() {
  local hits
  hits=$(awk '
    /^[[:space:]]*\[/ { deps = ($0 ~ /^[[:space:]]*\[(target\..*\.)?dependencies\][[:space:]]*$/) }
    deps && /^[[:space:]]*hero-testkit[[:space:]]*[=.]/ { print FILENAME ":" FNR ": " $0 }
  ' crates/*/Cargo.toml benchmark/Cargo.toml)
  [[ -z "$hits" ]] && return 0
  echo "lint.sh: hero-testkit in a [dependencies] table (dev-dependencies only):"
  echo "$hits"
  return 1
}

echo "==> manifest lint: hero-testkit is a dev-dependency only"
testkit_dependents || fail=1

LANE_LAYER=crates/tensor/src/ops/lanes.rs

# arch_outside_lanes — prints each program line outside the lane layer
# that names an intrinsic module, a target feature or CPU feature
# detection, and returns nonzero if any.
arch_outside_lanes() {
  local bad=0 file hit
  for file in $(lib_sources) crates/*/benches/*.rs examples/*.rs benchmark/src/*.rs; do
    [[ -e "$file" && "$file" != "$LANE_LAYER" ]] || continue
    while IFS= read -r hit; do
      [[ -z "$hit" ]] && continue
      echo "lint.sh: CPU-specific code outside $LANE_LAYER: $file:$hit"
      bad=1
    done < <(program_text "$file" |
      grep -nE '(std|core)::arch|target_feature|is_x86_feature_detected' |
      grep -vE '^[0-9]+:[[:space:]]*//' || true)
  done
  return $bad
}

echo "==> grep lint: intrinsics and CPU feature detection only in $LANE_LAYER"
arch_outside_lanes || fail=1

if [[ $fail -ne 0 ]]; then
  echo "lint.sh: grep lints FAILED (add a scripts/lint-allow.txt entry, with" \
    "its reason, only for an intentional exact comparison or a measurement" \
    "helper over crate-private state; move test support to the tests or" \
    "crates/testkit; delete code nothing calls; drop entries whose code is gone)"
  exit 1
fi

echo "lint.sh: all lint gates passed"

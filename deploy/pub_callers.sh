#!/usr/bin/env bash
# Every public function has a caller (DESIGN §3).
#
# Lists each `pub fn` in the non-test part of `crates/*/src` that no
# non-test code of another file under `crates/*/src`, `examples/src` or
# `benchmark/src` calls and that `deploy/pub_callers.allow` does not name;
# exits 1 when it lists any. A call is the name in call or path form
# (`name(`, `.name(`, `::name(`, `::name` as a value), so a field, a
# variable or a module path segment of the same name is not one. A file's
# non-test part ends at its first `#[cfg(test)]` (the line-count rule);
# `use` / `pub use` lines and whole-line comments are not callers.
#
#   bash deploy/pub_callers.sh        # from anywhere inside the repo
#
# An allowlist line is `<file> <fn> <category> <reason>`; the categories are
# listed at the top of the allowlist.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=deploy/pub_callers.allow
mapfile -t files < <(find crates/*/src examples/src benchmark/src -name '*.rs' | sort)

awk '
  FNR == 1 { inuse = 0 }
  FILENAME == ALLOW { if ($0 !~ /^[ \t]*(#|$)/) allowed[$1 SUBSEP $2] = 1; next }
  /#\[cfg\(test\)\]/ { nextfile }
  /^[ \t]*\/\// { next }
  inuse { if (/;/) inuse = 0; next }
  /^[ \t]*(pub(\([a-z]+\))? )?use / { if (!/;/) inuse = 1; next }
  {
    if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
        match($0, /pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
      def = substr($0, RSTART, RLENGTH)
      sub(/.* /, "", def)
      defs[FILENAME SUBSEP def] = FNR
    }
    # A caller names the function in call or path form: `name(`,
    # `name::<T>(`, `.name(`, `::name(`, or `::name` passed as a value. A
    # field, a variable, a module path segment or another `fn name(`
    # definition is not a caller.
    line = $0
    t = ""
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      prev = t
      t = substr(line, RSTART, RLENGTH)
      gap = substr(line, 1, RSTART - 1)
      line = substr(line, RSTART + RLENGTH)
      called = line ~ /^(::<[^()]*>)?\(/ && !(prev == "fn" && gap ~ /^[ \t]+$/)
      valued = gap ~ /::$/ && line !~ /^(::|[A-Za-z0-9_])/
      if (!(called || valued) || (t SUBSEP FILENAME) in seen) continue
      seen[t SUBSEP FILENAME] = 1
      files[t]++
      first[t] = FILENAME
    }
  }
  END {
    bad = 0
    for (k in allowed) {
      if (k in defs) continue
      split(k, p, SUBSEP)
      printf "%s: allowlisted pub fn %s is not defined there\n", p[1], p[2]
      bad++
    }
    for (k in defs) {
      split(k, p, SUBSEP)
      f = p[1]; name = p[2]
      if (files[name] >= 2 || (files[name] == 1 && first[name] != f)) continue
      if (k in allowed) continue
      printf "%s:%d: pub fn %s has no caller outside its file\n", f, defs[k], name
      bad++
    }
    if (bad) {
      printf "%d finding(s): delete or unexport each function, or fix its line in %s\n", bad, ALLOW > "/dev/stderr"
      exit 1
    }
  }
' ALLOW="$allow" "$allow" "${files[@]}" | sort

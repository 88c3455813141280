#!/usr/bin/env bash
# Every public function has a caller in another crate, and every function
# has a non-test caller (DESIGN §3). The compiler decides, not name matching.
#
# The script copies the workspace and `benchmark/` to
# `target/pub_callers/tree` (the copy builds into `target/pub_callers/target`,
# which is kept between runs) and, on the copy:
#   1. makes every `pub fn` in the non-test part of `crates/*/src` (above
#      the file's first `#[cfg(test)]`, the line-count rule) `pub(crate)`,
#      except the ones `deploy/pub_callers.allow` names;
#   2. checks the non-test targets (the libraries and binaries of the
#      workspace and of `benchmark/`) and puts `pub` back on each function
#      a privacy error points at, until they compile. A function rustc's
#      `dead_code` lint then names has no non-test caller anywhere: it is a
#      finding unless the allowlist names it;
#   3. makes the allowlisted functions `pub(crate)` too (but for category
#      (d), which a lint requires) and checks every target, tests included,
#      the same way. A function that is still `pub(crate)` at the end is a
#      finding: no other crate names it, so it should not be `pub`.
# A `pub use` that re-exports a function made `pub(crate)` is cut to a
# `pub(crate) use` of it, and restored with the function when another crate
# names it, so a re-export alone does not keep a function public.
#
# Exit 0: no finding. Exit 1: the findings are listed. Exit 2: the copy does
# not compile for a reason visibility does not explain (the errors are
# printed).
#
#   bash deploy/pub_callers.sh        # from anywhere inside the repo
#
# An allowlist line is `<file> <fn> <category> <reason>`; the categories are
# listed at the top of the allowlist.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 -B - <<'PY'
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

started = time.monotonic()
root = Path.cwd()
work = root / "target" / "pub_callers"
tree = work / "tree"
target_dir = work / "target"
ALLOW = "deploy/pub_callers.allow"

allowed = {}  # (file, fn) -> category
for line in (root / ALLOW).read_text().splitlines():
    if line.strip() and not line.lstrip().startswith("#"):
        file, fn, category = line.split()[:3]
        allowed[(file, fn)] = category

# --- the copy ---------------------------------------------------------------
if tree.exists():
    shutil.rmtree(tree)
tree.mkdir(parents=True)
for name in ("Cargo.toml", "Cargo.lock"):
    shutil.copy2(root / name, tree / name)
skip = shutil.ignore_patterns("target", "results")
for name in ("crates", "examples", "tests", "vendor", "benchmark"):
    shutil.copytree(root / name, tree / name, ignore=skip)

DEF = re.compile(r'^(\s*)pub((?:\s+(?:const|unsafe|async|extern\s+"[^"]*"))*\s+fn\s+)([A-Za-z_]\w*)')
PUB_USE = re.compile(r"\bpub\s+use\s+")


class Def:
    def __init__(self, rel, line, name, free):
        self.rel, self.line, self.name, self.free = rel, line, name, free
        self.public = (rel, name) in allowed


class Import:
    """A `pub use` leaf cut to a `pub(crate) use` appended to its file."""

    def __init__(self, line, col_start, col_end, path, slot):
        self.line, self.path, self.slot = line, path, slot
        self.cols = (col_start, col_end)
        self.name = re.split(r"\s+as\s+", path)[0].split("::")[-1]
        self.active = True


orig = {}  # rel -> original lines (each ending in "\n")
defs = {}  # (rel, line) -> Def
imports = {}  # rel -> [Import]; an import's slot is a line after the original text
for path in sorted(tree.glob("crates/*/src/**/*.rs")):
    rel = str(path.relative_to(tree))
    lines = path.read_text().splitlines(keepends=True)
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"
    orig[rel] = lines
    imports[rel] = []
    for n, text in enumerate(lines, 1):
        if "#[cfg(test)]" in text:
            break
        m = DEF.match(text)
        if m:
            defs[(rel, n)] = Def(rel, n, m.group(3), free=m.group(1) == "")

stale = sorted(k for k in allowed if k not in {(d.rel, d.name) for d in defs.values()})


def crate_of(rel):
    return rel.split("/")[1]


def render(rel):
    lines = list(orig[rel])
    for n, text in enumerate(lines, 1):
        d = defs.get((rel, n))
        if d and not d.public:
            lines[n - 1] = DEF.sub(r"\1pub(crate)\2\3", text, count=1)
    for imp in sorted(imports[rel], key=lambda i: -i.cols[0]):
        if imp.active:
            (a, b), text = imp.cols, lines[imp.line - 1]
            lines[imp.line - 1] = text[: a - 1] + "{}" + text[b - 1 :]
    for imp in imports[rel]:
        lines.append(f"pub(crate) use {imp.path};\n" if imp.active else "\n")
    (tree / rel).write_text("".join(lines))


def use_path(rel, line, col, leaf):
    """The full path of the `pub use` leaf `leaf` at (line, col)."""
    text = "".join(orig[rel][: line - 1]) + orig[rel][line - 1][: col - 1]
    starts = list(PUB_USE.finditer(text))
    if not starts:
        return None
    s = text[starts[-1].end() :]
    while True:  # drop the closed groups before the leaf
        t = re.sub(r"\{[^{}]*\}", "", s)
        if t == s:
            break
        s = t
    prefix = "".join(p.split(",")[-1] for p in s.split("{"))
    return re.sub(r"\s+", "", prefix) + leaf


def rel_of(span, base):
    p = Path(span["file_name"])
    p = (p if p.is_absolute() else base / p).resolve()
    try:
        return str(p.relative_to(tree.resolve()))
    except ValueError:
        return None


def spans(diag):
    yield from diag["spans"]
    for child in diag["children"]:
        yield from spans(child)


def check(commands):
    """Runs each cargo check; returns its errors and dead functions."""
    errors, dead = [], []
    for base, args in commands:
        seen = len(errors)
        out = subprocess.run(
            ["cargo", "check", "--offline", "--keep-going", "--message-format=json", *args],
            cwd=base,
            env={**os.environ, "CARGO_TARGET_DIR": str(target_dir)},
            capture_output=True,
            text=True,
        )
        for raw in out.stdout.splitlines():
            msg = json.loads(raw)
            if msg.get("reason") != "compiler-message":
                continue
            diag = msg["message"]
            code = (diag.get("code") or {}).get("code")
            if diag["level"] == "error" and diag["spans"]:
                errors.append((base, diag))
            elif code == "dead_code":
                for sp in diag["spans"]:
                    rel = rel_of(sp, base)
                    if not (sp["is_primary"] and rel in orig):
                        continue
                    t = sp["text"][0]
                    name = t["text"][t["highlight_start"] - 1 : t["highlight_end"] - 1]
                    if re.search(rf"\bfn\s+{re.escape(name)}\b", orig[rel][sp["line_start"] - 1]):
                        dead.append((rel, sp["line_start"], name))
        if out.returncode != 0 and len(errors) == seen:
            print(out.stderr, file=sys.stderr)
            sys.exit(2)
    return errors, sorted(set(dead))


def publish(rel, name):
    """Restores `pub` on the free functions `name` of `rel`'s crate."""
    hit = set()
    for d in defs.values():
        if d.free and d.name == name and crate_of(d.rel) == crate_of(rel) and not d.public:
            d.public = True
            hit.add(d.rel)
    return hit


def converge(commands):
    """Checks until the copy compiles, widening visibility as errors ask."""
    while True:
        errors, dead = check(commands)
        if not errors:
            return dead
        dirty = set()
        for base, diag in errors:
            if (diag.get("code") or {}).get("code") == "E0364":
                # A `pub use` of a function made `pub(crate)`: re-export it
                # within the crate only.
                for sp in diag["spans"]:
                    rel = rel_of(sp, base)
                    line, col = sp["line_start"], sp["column_start"]
                    if not (sp["is_primary"] and rel in orig) or any(
                        (i.line, i.cols[0]) == (line, col) for i in imports[rel]
                    ):
                        continue
                    t = sp["text"][0]
                    leaf = t["text"][t["highlight_start"] - 1 : t["highlight_end"] - 1]
                    path = use_path(rel, line, col, leaf)
                    if path:
                        slot = len(orig[rel]) + len(imports[rel]) + 1
                        imports[rel].append(Import(line, col, sp["column_end"], path, slot))
                        dirty.add(rel)
                continue
            # Any other error that points at a function made `pub(crate)`, or
            # at a re-export cut to `pub(crate) use`, wants it public again.
            for sp in spans(diag):
                rel = rel_of(sp, base)
                if rel not in orig:
                    continue
                for n in range(sp["line_start"], sp["line_end"] + 1):
                    d = defs.get((rel, n))
                    if d and not d.public:
                        d.public = True
                        dirty.add(rel)
                    for imp in imports[rel]:
                        if imp.slot == n and imp.active:
                            imp.active = False
                            dirty.add(rel)
                            dirty |= publish(rel, imp.name)
        if not dirty:
            for _, diag in errors:
                print(diag.get("rendered") or diag["message"], file=sys.stderr)
            print("pub_callers: the copy does not compile, and no visibility change explains it", file=sys.stderr)
            sys.exit(2)
        for rel in sorted(dirty):
            render(rel)


for rel in orig:
    render(rel)
bench = tree / "benchmark"
dead = converge([(tree, ["--workspace", "--lib", "--bins"]), (bench, ["--bins"])])
for d in defs.values():
    if (d.rel, d.name) in allowed:
        d.public = allowed[(d.rel, d.name)] == "(d)"
for rel in orig:
    render(rel)
converge([(tree, ["--workspace", "--all-targets"]), (bench, ["--all-targets"])])

findings = [f"{f}: allowlisted pub fn {n} is not defined there" for f, n in stale]
findings += [f"{f}:{n}: fn {name} has no non-test caller" for f, n, name in dead if (f, name) not in allowed]
findings += [
    f"{d.rel}:{d.line}: pub fn {d.name}: no other crate names it"
    for d in sorted(defs.values(), key=lambda d: (d.rel, d.line))
    if not d.public
]
for line in sorted(findings):
    print(line)
print(f"pub_callers: {len(findings)} finding(s), {time.monotonic() - started:.0f} s", file=sys.stderr)
if findings:
    print(
        f"delete each function nothing calls (or move it under #[cfg(test)] when only its own tests call it), "
        f"make each pub fn no other crate names pub(crate), or fix its line in {ALLOW}",
        file=sys.stderr,
    )
    sys.exit(1)
PY

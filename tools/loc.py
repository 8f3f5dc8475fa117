#!/usr/bin/env python3
"""Count Rust code lines per file, at a git revision and in the working tree.

A code line is a line with something other than whitespace outside
comments. Blank lines, `//` / `///` / `//!` comments, `/* ... */`
blocks and `#[cfg(test)]` modules are not counted; string literals
count as code. Only `.rs` files are counted. Standard library only.

Usage:
    python3 tools/loc.py [--rev REV] [PATH ...]

PATHs (default: `crates src`) are directories or files relative to
the repository root. REV defaults to HEAD. Prints one row per file that
exists on either side — code lines at REV, in the working tree, and
the delta — then the totals.
"""

import argparse
import os
import re
import subprocess
import sys

MOD_RE = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*(\{|;)")


def strip(text):
    """Comments removed, string and char contents blanked to `S`;
    line structure kept, so stripped line `i` is source line `i`."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    if text[i] == "\n":
                        out.append("\n")
                    i += 1
        elif c == "r" and re.match(r'r#*"', text[i:]) and not (
            out and (out[-1].isalnum() or out[-1] == "_") and out[-1] != "b"
        ):
            hashes = len(re.match(r"r(#*)\"", text[i:]).group(1))
            close = '"' + "#" * hashes
            end = text.find(close, i + 2 + hashes)
            end = n if end < 0 else end + len(close)
            out.append(blank(text[i:end]))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(blank(text[i : j + 1]))
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            if nxt == "\\":
                end = text.find("'", i + 2)
                out.append("'S'")
                i = end + 1
            elif i + 2 < n and text[i + 2] == "'":
                out.append("'S'")
                i += 3
            else:
                out.append("'")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank(literal):
    """A string literal with its contents blanked, newlines kept."""
    return "\n".join("S" if part.strip() else "" for part in literal.split("\n"))


def code_lines(text):
    lines = strip(text).split("\n")
    count, i = 0, 0
    while i < len(lines):
        line = lines[i].strip()
        if line == "#[cfg(test)]":
            j = i + 1
            while j < len(lines) and not lines[j].strip():
                j += 1
            m = MOD_RE.match(lines[j]) if j < len(lines) else None
            if m:
                if m.group(3) == ";":
                    i = j + 1
                    continue
                depth = 0
                while j < len(lines):
                    depth += lines[j].count("{") - lines[j].count("}")
                    j += 1
                    if depth <= 0 and "{" in "".join(lines[i + 1 : j]):
                        break
                i = j
                continue
        if line:
            count += 1
        i += 1
    return count


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def counts_at(rev, paths):
    files = git("ls-tree", "-r", "--name-only", rev, "--", *paths).split()
    return {
        f: code_lines(git("show", f"{rev}:{f}")) for f in files if f.endswith(".rs")
    }


def counts_worktree(paths):
    files = git(
        "ls-files", "--cached", "--others", "--exclude-standard", "--", *paths
    ).split()
    out = {}
    for f in files:
        if f.endswith(".rs") and os.path.isfile(f):
            with open(f, encoding="utf-8") as fh:
                out[f] = code_lines(fh.read())
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", default="HEAD", help="git revision to compare against")
    ap.add_argument("paths", nargs="*", default=["crates", "src"])
    args = ap.parse_args()
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    old = counts_at(args.rev, args.paths)
    new = counts_worktree(args.paths)
    files = sorted(set(old) | set(new))
    if not files:
        sys.exit(f"no .rs files under {' '.join(args.paths)}")
    width = max(len(f) for f in files + ["total"])
    rev = args.rev[:12]
    print(f"{'file':<{width}}  {rev:>9}  {'worktree':>9}  {'delta':>7}")
    for f in files:
        a, b = old.get(f, 0), new.get(f, 0)
        print(f"{f:<{width}}  {a:>9}  {b:>9}  {b - a:>+7}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<{width}}  {a:>9}  {b:>9}  {b - a:>+7}")


if __name__ == "__main__":
    main()

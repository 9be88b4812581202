#!/usr/bin/env python3
"""Count non-test Rust lines, per crate and in total.

A line counts when it is in a `.rs` file outside `target/`, `vendor/`,
every `tests/` directory and the benchmark package
(`crates/bench/examples/benchmark/`), and outside every `#[cfg(test)]`
item. Each `#[cfg(test)]` item is dropped together with the doc comments
and attributes directly above it. Every other line counts, blank lines
and comments included.

A crate is the nearest directory above a file that holds a `Cargo.toml`;
the root package is printed as `.`.

Usage: scripts/nontest_lines.py [REPO_ROOT]   (default: the current directory)
"""

import os
import sys

SKIP_DIRS = {"target", "vendor", "tests", ".git", ".bench_build"}
SKIP_PATHS = {os.path.join("crates", "bench", "examples", "benchmark")}


def skip_literal(text, i):
    """Index just past the comment, string or char literal that starts at
    `i`, or `None` when none starts there."""
    if text.startswith("//", i):
        end = text.find("\n", i)
        return len(text) if end < 0 else end
    if text.startswith("/*", i):
        depth, j = 1, i + 2
        while j < len(text) and depth:
            if text.startswith("/*", j):
                depth, j = depth + 1, j + 2
            elif text.startswith("*/", j):
                depth, j = depth - 1, j + 2
            else:
                j += 1
        return j
    starts_word = i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
    if starts_word and text.startswith(("r", "br"), i):
        # A raw string: r"..", r#".."#, br"..".
        j = i + (2 if text[i] == "b" else 1)
        hashes = len(text[j:]) - len(text[j:].lstrip("#"))
        if text.startswith('"', j + hashes):
            end = text.find('"' + "#" * hashes, j + hashes + 1)
            return len(text) if end < 0 else end + 1 + hashes
    if starts_word and text.startswith(("b'", 'b"'), i):
        return skip_literal(text, i + 1)
    if text[i] == '"':
        j = i + 1
        while j < len(text) and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1
    if text[i] == "'":
        # A char literal ('x', '\n', '\u{..}'); anything else is a lifetime.
        if text.startswith("\\", i + 1):
            end = text.find("'", i + 3)
            return None if end < 0 else end + 1
        if text.startswith("'", i + 2):
            return i + 3
    return None


def item_end(text, start):
    """Offset just past the item that begins at `start`: its closing
    brace, or its `;` when it has no body."""
    depth, i = 0, start
    while i < len(text):
        skipped = skip_literal(text, i)
        if skipped is not None:
            i = skipped
            continue
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";" and depth == 0:
            return i + 1
        i += 1
    return len(text)


def nontest_lines(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    dropped = [False] * len(lines)
    offsets, total = [], 0
    for line in lines:
        offsets.append(total)
        total += len(line) + 1
    text = "\n".join(lines) + "\n"
    i = 0
    while i < len(lines):
        if not lines[i].strip().startswith("#[cfg(test)]"):
            i += 1
            continue
        first = i
        while first > 0 and lines[first - 1].strip().startswith(("///", "#[")):
            first -= 1
        # The item starts after the attribute itself (and any attribute
        # lines that follow it).
        after = offsets[i] + lines[i].index("#[cfg(test)]") + len("#[cfg(test)]")
        end = item_end(text, after)
        last = i
        while last + 1 < len(lines) and offsets[last + 1] < end:
            last += 1
        for k in range(first, last + 1):
            dropped[k] = True
        i = last + 1
    return dropped.count(False)


def crate_of(root, rel):
    directory = os.path.dirname(rel)
    while directory and not os.path.exists(os.path.join(root, directory, "Cargo.toml")):
        directory = os.path.dirname(directory)
    return directory or "."


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    counts = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        dirnames[:] = sorted(
            d
            for d in dirnames
            if d not in SKIP_DIRS and os.path.normpath(os.path.join(rel_dir, d)) not in SKIP_PATHS
        )
        for name in sorted(filenames):
            if name.endswith(".rs"):
                rel = os.path.normpath(os.path.join(rel_dir, name))
                crate = crate_of(root, rel)
                counts[crate] = counts.get(crate, 0) + nontest_lines(os.path.join(root, rel))
    width = max(len(c) for c in counts) if counts else 5
    for crate in sorted(counts):
        print(f"{crate:<{width}}  {counts[crate]:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()

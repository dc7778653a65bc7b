#!/usr/bin/env python3
"""Lines added and removed over crates/ + tests/ between two commits,
split into test and non-test code.

    python3 scripts/net_lines.py BASE [HEAD]

HEAD defaults to `HEAD`. A line is test code when it is
  - in a file under a `tests/` directory,
  - in a file brought in by a `#[cfg(test)] mod name;` declaration (or by
    a `mod name;` inside such a file), or
  - in an item a top-level `#[cfg(test)]` is on, from the attribute to the
    `}` in column 0 that closes the item (or the item's `;`).
The last is "from the file's top-level `#[cfg(test)]` onward" wherever the
test module ends the file; it differs only where non-test code follows a
test item (`controller/experiments.rs`'s `stats_tests`, the ed25519
reference oracles). A removed line is classified in BASE's copy of its
file, an added line in HEAD's. Binary files are left out.
"""
import re
import subprocess
import sys

ROOTS = ["crates", "tests"]
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def module_dir(path):
    """The directory a file's `mod name;` declarations resolve in."""
    stem = path.rsplit("/", 1)
    base, name = (stem[0], stem[1]) if len(stem) == 2 else ("", stem[0])
    if name in ("mod.rs", "lib.rs", "main.rs"):
        return base
    return f"{base}/{name[:-3]}" if base else name[:-3]


class Revision:
    def __init__(self, rev):
        self.rev = rev
        self.files = set(git("ls-tree", "-r", "--name-only", rev, "--", *ROOTS).split())
        self.text = {}
        self.test_files = self._test_files()

    def lines(self, path):
        if path not in self.text:
            self.text[path] = git("show", f"{self.rev}:{path}").split("\n")
        return self.text[path]

    def declared(self, path, cfg_test_only):
        """Files `path` brings in with `mod name;` (only under
        `#[cfg(test)]` if `cfg_test_only`)."""
        lines = self.lines(path)
        out = []
        for i, line in enumerate(lines):
            m = MOD_DECL.match(line.removeprefix("#[cfg(test)]"))
            under_cfg_test = line.startswith("#[cfg(test)]") or (
                i > 0 and lines[i - 1].strip() == "#[cfg(test)]"
            )
            if not m or (cfg_test_only and not under_cfg_test):
                continue
            d = module_dir(path)
            out += [c for c in (f"{d}/{m.group(1)}.rs", f"{d}/{m.group(1)}/mod.rs") if c in self.files]
        return out

    def _test_files(self):
        rs = [f for f in self.files if f.endswith(".rs")]
        test = {f for f in rs if "tests" in f.split("/")[:-1]}
        for f in rs:
            test.update(self.declared(f, True))
        todo = list(test)
        while todo:
            for c in self.declared(todo.pop(), False):
                if c not in test:
                    test.add(c)
                    todo.append(c)
        return test

    def classifier(self, path):
        """A function from a 1-based line number of `path` to is-test."""
        if not path.endswith(".rs"):
            return lambda n: "tests" in path.split("/")[:-1]
        if path in self.test_files:
            return lambda n: True
        lines = self.lines(path)
        test = set()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("#[cfg(test)]"):
                i += 1
                continue
            # The item the attribute is on: to its first top-level line
            # ending in `;` (a `mod name;` declaration, a `use`), or else to
            # the `}` in column 0 that closes it.
            j = i
            while j < len(lines) and not (
                lines[j].rstrip().endswith(";") and not lines[j].startswith((" ", "}"))
                or lines[j].startswith("}")
            ):
                j += 1
            test.update(range(i + 1, j + 2))
            i = j + 1
        return lambda n: n in test

def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    base, head = sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else "HEAD"
    old_rev, new_rev = Revision(base), Revision(head)
    diff = git("diff", "-U0", "-M", "--no-color", base, head, "--", *ROOTS)
    counts = {(kind, sign): 0 for kind in ("test", "non-test") for sign in "+-"}
    old_is_test = new_is_test = None
    old_n = new_n = 0
    header = False
    for line in diff.split("\n"):
        if line.startswith("diff --git "):
            header = True
        elif header and line.startswith("--- "):
            path = line[6:] if line.startswith("--- a/") else None
            old_is_test = old_rev.classifier(path) if path else None
        elif header and line.startswith("+++ "):
            path = line[6:] if line.startswith("+++ b/") else None
            new_is_test = new_rev.classifier(path) if path else None
        elif line.startswith("@@"):
            header = False
            m = re.match(r"@@ -(\d+)(?:,\d+)? \+(\d+)(?:,\d+)? @@", line)
            old_n, new_n = int(m.group(1)), int(m.group(2))
        elif header:
            continue
        elif line.startswith("-"):
            counts[("test" if old_is_test(old_n) else "non-test", "-")] += 1
            old_n += 1
        elif line.startswith("+"):
            counts[("test" if new_is_test(new_n) else "non-test", "+")] += 1
            new_n += 1
    for kind in ("non-test", "test"):
        add, rem = counts[(kind, "+")], counts[(kind, "-")]
        print(f"{kind:>8}: +{add} -{rem} (net {add - rem:+d})")


if __name__ == "__main__":
    main()

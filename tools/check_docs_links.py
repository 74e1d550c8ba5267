#!/usr/bin/env python3
"""Check that repo documentation does not reference missing files.

Two classes of reference are verified across every tracked *.md file:

  1. Relative markdown links: [text](path) and [text](path#anchor).
     External links (a URL scheme) and pure in-page anchors (#...)
     are skipped; everything else must resolve, relative to the file
     containing the link, to an existing file or directory.

  2. Inline-code path references: `docs/FOO.md`, `tools/bar.py`,
     `src/x/y.hh` and the like. Only backticked tokens that start
     with a known top-level directory (or a shipped root file) and
     contain no glob/placeholder characters are checked, so prose
     like `run.stats_out` or `--trace FILE` never false-positives.
     CHANGES.md is an append-only history whose old entries name
     files since deleted, so only its links are checked.

Run from anywhere inside the repository:

    python3 tools/check_docs_links.py

Exits non-zero listing every broken reference. Stdlib only.
"""

import os
import re
import sys

# Directories whose backticked mentions are treated as file paths.
PATH_PREFIXES = ("docs/", "examples/", "src/", "tools/", "tests/",
                 "bench/", ".github/")

# Backticked root-level files worth checking by exact name.
ROOT_FILES = ("README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md",
              "EXPERIMENTS.md", "PAPER.md", "CMakeLists.txt")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:")

# A checkable path token: no spaces, globs, or template placeholders.
CLEAN_PATH = re.compile(r"^[A-Za-z0-9_./-]+$")


def repo_root():
    d = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(d)


def md_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build", "related")]
        for f in filenames:
            # ISSUE.md is a transient work ticket, not documentation;
            # it may cite files the ticket has yet to create.
            if f.endswith(".md") and f != "ISSUE.md":
                out.append(os.path.join(dirpath, f))
    return sorted(out)


def strip_fences(text):
    """Drop fenced code blocks for link scanning (markdown links in
    shell examples are not links) but return them separately so the
    path-token pass can still inspect them."""
    prose, fences = [], []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        (fences if in_fence else prose).append(line)
    return "\n".join(prose), "\n".join(fences)


def check_file(path, root, errors):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    prose, fences = strip_fences(text)
    base = os.path.dirname(path)
    rel = os.path.relpath(path, root)

    for m in MD_LINK.finditer(prose):
        target = m.group(1).split("#", 1)[0]
        if not target or SCHEME.match(m.group(1)):
            continue
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            errors.append("%s: broken link: %s" % (rel, m.group(1)))

    # CHANGES.md is append-only history: old entries name deleted files.
    if rel == "CHANGES.md":
        return
    for m in CODE_SPAN.finditer(prose + "\n" + fences):
        token = m.group(1).strip()
        if not CLEAN_PATH.match(token):
            continue
        if not (token.startswith(PATH_PREFIXES) or token in ROOT_FILES):
            continue
        full = os.path.join(root, token)
        # `bench/fig01_fragmentation` and friends name build targets;
        # they count as resolved when the matching source file exists.
        if not (os.path.exists(full) or
                any(os.path.exists(full + ext)
                    for ext in (".cc", ".cpp", ".py", ".sh"))):
            errors.append("%s: missing path reference: %s"
                          % (rel, token))


def main():
    root = repo_root()
    errors = []
    files = md_files(root)
    for path in files:
        check_file(path, root, errors)
    if errors:
        for e in errors:
            print(e)
        print("%d broken doc reference(s) in %d file(s) scanned"
              % (len(errors), len(files)), file=sys.stderr)
        return 1
    print("checked %d markdown files: all references resolve"
          % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fails on orphan files: library sources nothing builds or uses, test
fixtures no test names, and tests, benches or examples no target builds.

Four checks, all over the checkout whose root is given (default: the parent
of this script's directory):

  1. Every `src/**/*.cc` is named in the root `CMakeLists.txt` outside a
     comment. A source missing there is compiled by no target.
  2. Every `src/**/*.h` is included by at least one file in `src/`,
     `tests/`, `bench/`, `examples/` or `perfbench/` other than itself and
     its own `.cc` twin (`foo.h` and `foo.cc` in one directory). A module
     only its own implementation includes is used by nothing. Quoted
     includes resolve against `src/` (the library's include root) and
     against the including file's own directory.
  3. Every top-level entry of `tests/fixtures/` (a file or a directory) is
     named, as a whole word, by at least one file in `tests/` outside
     `tests/fixtures/`. A fixture nothing names pins nothing.
  4. Every `tests/*_test.cc`, `bench/*.cc` and `examples/*.cpp` is named in
     the root `CMakeLists.txt` outside a comment: its file stem appears as
     a whole word, alone in a target list or inside its path. A test no
     target builds never runs.

Prints one line per offending file and exits 1 when any check fails.

Usage:
  python3 tools/check_src_layout.py [REPO_ROOT]
"""

import os
import re
import sys

SCANNED_DIRS = ("src", "tests", "bench", "examples", "perfbench")
FIXTURE_DIR = "tests/fixtures"
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
# Top-level programs that some CMake target must build: (dir, suffix).
PROGRAM_GLOBS = (("tests", "_test.cc"), ("bench", ".cc"),
                 ("examples", ".cpp"))
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def files_under(root, top, suffixes):
    """Repo-relative paths (with '/') of files under `top` with `suffixes`."""
    found = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(suffixes):
                path = os.path.join(dirpath, name)
                found.append(os.path.relpath(path, root).replace(os.sep, "/"))
    return found


def read_cmake(root):
    """The root CMakeLists.txt without its `#` comments: a file named only
    in a comment is built by nothing."""
    with open(os.path.join(root, "CMakeLists.txt"), encoding="utf-8") as f:
        return re.sub(r"#[^\n]*", "", f.read())


def unbuilt_sources(root):
    """`src/**/*.cc` files that the root CMakeLists.txt does not name."""
    named = set(re.findall(r"src/[\w/.-]+\.cc", read_cmake(root)))
    return [cc for cc in files_under(root, "src", (".cc",)) if cc not in named]


def unbuilt_programs(root):
    """Tests, benches and examples whose stem the root CMakeLists.txt does
    not name."""
    cmake = read_cmake(root)
    unbuilt = []
    for top, suffix in PROGRAM_GLOBS:
        directory = os.path.join(root, top)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if not (name.endswith(suffix) and os.path.isfile(path)):
                continue
            stem = os.path.splitext(name)[0]
            word = re.compile(r"(?<![\w.-])" + re.escape(stem) +
                              r"(?![\w-])")
            if not word.search(cmake):
                unbuilt.append(top + "/" + name)
    return unbuilt


def unincluded_headers(root):
    """`src/**/*.h` files that no scanned file other than their own `.cc`
    twin includes."""
    included = set()
    for top in SCANNED_DIRS:
        for path in files_under(root, top, SOURCE_SUFFIXES):
            with open(os.path.join(root, path), encoding="utf-8") as f:
                targets = INCLUDE_RE.findall(f.read())
            here = os.path.dirname(path)
            twin = os.path.splitext(path)[0] + ".h"
            for target in targets:
                for candidate in ("src/" + target,
                                  os.path.normpath(os.path.join(here, target))):
                    candidate = candidate.replace(os.sep, "/")
                    if candidate not in (path, twin):
                        included.add(candidate)
    return [h for h in files_under(root, "src", (".h",)) if h not in included]


def unnamed_fixtures(root):
    """Top-level `tests/fixtures/` entries that no file in `tests/` names."""
    fixtures = os.path.join(root, FIXTURE_DIR)
    if not os.path.isdir(fixtures):
        return []
    texts = []
    for path in files_under(root, "tests", ("",)):  # every file
        if not path.startswith(FIXTURE_DIR + "/"):
            with open(os.path.join(root, path), encoding="utf-8",
                      errors="replace") as f:
                texts.append(f.read())
    unnamed = []
    for entry in sorted(os.listdir(fixtures)):
        word = re.compile(r"(?<![\w.-])" + re.escape(entry) + r"(?![\w.-])")
        if not any(word.search(text) for text in texts):
            unnamed.append(FIXTURE_DIR + "/" + entry)
    return unnamed


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    root = os.path.abspath(root)
    failures = []
    for cc in unbuilt_sources(root):
        failures.append(f"{cc}: not listed in CMakeLists.txt")
    for header in unincluded_headers(root):
        failures.append(f"{header}: included by no file in "
                        f"{', '.join(SCANNED_DIRS)} but its own .cc")
    for fixture in unnamed_fixtures(root):
        failures.append(f"{fixture}: named by no file in tests/")
    for program in unbuilt_programs(root):
        failures.append(f"{program}: not listed in CMakeLists.txt")
    for line in failures:
        print(line)
    if failures:
        return 1
    print("src layout OK: every source is built, every header is included, "
          "every fixture is named and every test, bench and example is built")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

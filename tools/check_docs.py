#!/usr/bin/env python3
"""Docs consistency gate.

Three checks, all cheap enough to run on every CI push:

1. Env-var coverage: every PSCA_* environment variable referenced as
   a string literal under src/, tools/, examples/, or bench/ must
   appear in OPERATIONS.md (the consolidated variable table), and
   every PSCA_* token OPERATIONS.md documents must still exist in the
   source. New knobs land together with their documentation, and the
   table can never go stale, or this exits non-zero.

2. Link integrity: every intra-repo markdown link ([text](target)
   where target is not a URL) in the repo's *.md files must resolve
   to an existing file or directory, anchors stripped.

3. Section citations: every "DESIGN.md §N[.M]" cited under src/,
   tools/, bench/, examples/, tests/, or .github/, or in a top-level
   *.md file (CHANGES.md excepted: it is history), and every bare §N
   inside DESIGN.md, must name an existing numbered DESIGN.md
   heading. Renumbering a section without fixing its citations
   exits non-zero.

Usage: check_docs.py [--root REPO_ROOT]

Exits 1 with one line per violation; exits 0 when clean.
"""

import argparse
import pathlib
import re
import sys

# String literals like "PSCA_THREADS". A trailing underscore marks a
# prefix literal (env filtering code), not a variable name.
SOURCE_VAR_RE = re.compile(r'"(PSCA_[A-Z0-9]+(?:_[A-Z0-9]+)*)"')
DOC_VAR_RE = re.compile(r"\b(PSCA_[A-Z0-9_]+)\b")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
HEADING_RE = re.compile(r"^#{2,}\s+(\d+(?:\.\d+)*)\.?\s", re.M)
SECTION_RE = re.compile(r"§(\d+(?:\.\d+)*)")
# "DESIGN.md" (or the markdown link "[DESIGN.md](DESIGN.md)"), then
# across comment leaders and line breaks either a parenthesised list
# "(§8 concurrency, §11 crash safety)" or a run "§8/§12", "§8, §11".
CITATION_RE = re.compile(
    r"DESIGN\.md(?:\]\(DESIGN\.md\))?[\s*#/]*"
    r"(\([^)]{0,200}\)|§\d+(?:\.\d+)*"
    r"(?:\s*(?:/|,|and|or)\s*§\d+(?:\.\d+)*)*)")
CITATION_DIRS = ["src", "tools", "bench", "examples", "tests",
                 ".github"]

SOURCE_GLOBS = ["src/**/*.cc", "src/**/*.hh", "tools/*.cc",
                "tools/*.py", "examples/*.cpp", "bench/*.cc"]


def source_vars(root: pathlib.Path) -> set:
    found = set()
    for pattern in SOURCE_GLOBS:
        for path in root.glob(pattern):
            found.update(SOURCE_VAR_RE.findall(
                path.read_text(errors="replace")))
    return found


def check_env_vars(root: pathlib.Path) -> list:
    ops = root / "OPERATIONS.md"
    if not ops.exists():
        return ["OPERATIONS.md: missing (env-var table lives there)"]
    text = ops.read_text()
    documented = {v for v in DOC_VAR_RE.findall(text)
                  if not v.endswith("_")}
    in_source = source_vars(root)
    errors = []
    for var in sorted(in_source - documented):
        errors.append(f"OPERATIONS.md: {var} is referenced in the "
                      f"source but not documented")
    for var in sorted(documented - in_source):
        errors.append(f"OPERATIONS.md: {var} is documented but no "
                      f"longer referenced in the source")
    return errors


def check_links(root: pathlib.Path) -> list:
    errors = []
    for md in sorted(root.rglob("*.md")):
        if "build" in md.parts or ".git" in md.parts:
            continue
        for target in LINK_RE.findall(md.read_text(errors="replace")):
            target = target.split()[0]  # drop optional link titles
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                rel = md.relative_to(root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def design_sections(root: pathlib.Path) -> set:
    design = root / "DESIGN.md"
    if not design.exists():
        return set()
    return set(HEADING_RE.findall(design.read_text()))


def citing_files(root: pathlib.Path) -> list:
    files = [md for md in sorted(root.glob("*.md"))
             if md.name not in ("CHANGES.md", "DESIGN.md")]
    for d in CITATION_DIRS:
        files += sorted(p for p in (root / d).rglob("*") if p.is_file())
    return files


def check_citations(root: pathlib.Path) -> list:
    sections = design_sections(root)
    errors = []

    def report(path, text, pos, num):
        if num not in sections:
            line = text.count("\n", 0, pos) + 1
            errors.append(f"{path.relative_to(root)}:{line}: cites "
                          f"DESIGN.md §{num}, which has no heading")

    for path in citing_files(root):
        text = path.read_text(errors="replace")
        for cite in CITATION_RE.finditer(text):
            for num in SECTION_RE.finditer(cite.group(1)):
                report(path, text, cite.start(1) + num.start(),
                       num.group(1))
    design = root / "DESIGN.md"
    if design.exists():
        text = design.read_text()
        for num in SECTION_RE.finditer(text):
            report(design, text, num.start(), num.group(1))
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    errors = (check_env_vars(root) + check_links(root) +
              check_citations(root))
    for line in errors:
        print(line)
    if errors:
        print(f"{len(errors)} docs violation(s)")
        return 1
    print(f"docs clean: {len(source_vars(root))} env vars documented, "
          f"all intra-repo links resolve, all DESIGN.md section "
          f"citations name a heading")
    return 0


if __name__ == "__main__":
    sys.exit(main())

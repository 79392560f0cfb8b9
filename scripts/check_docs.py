#!/usr/bin/env python3
"""Docs-drift gate, run as the `docs_drift` CTest.

Two checks, both against the working tree:

1. Flag drift: every `--flag` a CLI binary prints in its --help flag
   reference (lines starting with two spaces and `--`) must appear in
   that binary's table section of docs/CLI.md, and every backticked
   `--flag` documented there must exist in the binary's --help. Adding,
   renaming, or dropping a flag without updating docs/CLI.md fails CI.

2. Link rot: every relative markdown link in README.md and docs/*.md
   must resolve to an existing file (anchors are stripped; absolute
   URLs are ignored).
"""

import argparse
import os
import re
import subprocess
import sys

HELP_FLAG_RE = re.compile(r"^  (--[a-z0-9-]+)\b", re.MULTILINE)
DOC_FLAG_RE = re.compile(r"`(--[a-z0-9-]+)`")
HEADING_RE = re.compile(r"^## (.+)$", re.MULTILINE)
BINARY_HEADING_RE = re.compile(r"^`([a-z0-9_]+)`$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def help_flags(binary):
    out = subprocess.run([binary, "--help"], capture_output=True, text=True,
                         timeout=60)
    if out.returncode != 0:
        raise SystemExit(f"{binary} --help exited {out.returncode}")
    return set(HELP_FLAG_RE.findall(out.stdout))


def doc_sections(cli_md_path):
    """Maps each `## \\`binary\\`` section of docs/CLI.md to the set of
    backticked --flags in its tables (exit-code rows reference flags
    too, so only `| --- |`-style table rows inside the section count)."""
    with open(cli_md_path, encoding="utf-8") as f:
        text = f.read()
    sections = {}
    headings = list(HEADING_RE.finditer(text))
    for i, match in enumerate(headings):
        binary = BINARY_HEADING_RE.match(match.group(1).strip())
        if binary is None:  # prose heading ("Exit codes", ...), not a CLI
            continue
        start = match.end()
        end = headings[i + 1].start() if i + 1 < len(headings) else len(text)
        flags = set()
        for line in text[start:end].splitlines():
            if line.startswith("|"):
                flags.update(DOC_FLAG_RE.findall(line))
        sections[binary.group(1)] = flags
    return sections


def check_flags(name, binary, documented, errors):
    actual = help_flags(binary)
    for flag in sorted(actual - documented):
        errors.append(f"{name}: {flag} is in --help but not in docs/CLI.md")
    for flag in sorted(documented - actual):
        errors.append(f"{name}: {flag} is in docs/CLI.md but not in --help")


def check_links(repo, errors):
    md_files = [os.path.join(repo, "README.md")]
    docs_dir = os.path.join(repo, "docs")
    if os.path.isdir(docs_dir):
        for entry in sorted(os.listdir(docs_dir)):
            if entry.endswith(".md"):
                md_files.append(os.path.join(docs_dir, entry))
    for md in md_files:
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(md), path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md, repo)
                errors.append(f"{rel}: broken link -> {target}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo", required=True)
    parser.add_argument("--cli", required=True,
                        help="path to the scpm_cli binary")
    parser.add_argument("--serve-cli", required=True,
                        help="path to the scpm_serve_cli binary")
    args = parser.parse_args()

    errors = []
    sections = doc_sections(os.path.join(args.repo, "docs", "CLI.md"))
    for name in ("scpm_cli", "scpm_serve_cli"):
        if name not in sections:
            errors.append(f"docs/CLI.md: missing section '## `{name}`'")
    check_flags("scpm_cli", args.cli, sections.get("scpm_cli", set()), errors)
    check_flags("scpm_serve_cli", args.serve_cli,
                sections.get("scpm_serve_cli", set()), errors)
    check_links(args.repo, errors)

    if errors:
        print("docs drift detected:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print("docs in sync: CLI flag tables match --help; all relative "
          "markdown links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())

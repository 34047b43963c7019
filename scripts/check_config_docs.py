#!/usr/bin/env python3
"""Config-table checker for docs/OPERATIONS.md — a docs-gate CI check.

Every OPERATIONS.md section whose heading names a config struct in
backticks, e.g. ``## Engine knobs (`host::EngineConfig`)``, documents that
struct in the first markdown table below the heading.  The first column
of each row is the knob, in backticks.  This script fails when the table
and the struct under ``src/`` disagree:

  * every knob must name a field of the struct, or ``field.sub`` of a
    nested struct (``engine.slo.deadline_ms``); ``field.*`` names a nested
    struct as a whole;
  * every field of the struct must have a row, either its own or one for
    a ``field.sub`` under it.

Structs are read from ``src/**/*.hpp`` with a small parser that handles
this codebase's style (one declaration per statement, default member
initializers, no bit-fields).  Only the standard library is used.  Exit
status: 0 clean, 1 mismatches (each printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SECTION = re.compile(r"^#{1,6}\s.*\(`(\w+)::(\w+)`")
HEADING = re.compile(r"^#{1,6}\s")
STRUCT = re.compile(r"^\s*struct\s+(\w+)\s*\{", re.M)
NAMESPACE = re.compile(r"^namespace\s+([\w:]+)\s*\{", re.M)
KNOB = re.compile(r"^\|\s*`([^`]+)`")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_body(text: str, open_brace: int) -> str:
    """The text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1 : i]
    raise ValueError("unbalanced braces")


def top_level_statements(body: str) -> list[str]:
    """Splits a struct body at the semicolons outside any bracket pair."""
    statements, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "{(<[":
            depth += 1
        elif ch in "})>]":
            depth -= 1
        elif ch == ";" and depth == 0:
            statements.append(body[start:i].strip())
            start = i + 1
    return [s for s in statements if s]


def parse_fields(body: str) -> dict[str, str]:
    """Data members of a struct body: name -> declared type."""
    fields: dict[str, str] = {}
    for stmt in top_level_statements(body):
        if re.match(r"(static|using|friend|typedef|template)\b", stmt):
            continue
        decl = stmt.split("=", 1)[0].strip()
        decl = re.sub(r"\{[^{}]*(\{[^{}]*\}[^{}]*)*\}$", "", decl).strip()  # Brace init.
        if decl.endswith(")") or decl.endswith("const") or "operator" in decl:
            continue  # Member function.
        m = re.match(r"(.*?)\s*\b(\w+)$", decl, flags=re.S)
        if m and m.group(1):
            fields[m.group(2)] = m.group(1)
    return fields


def load_structs(src: pathlib.Path) -> dict[tuple[str, str], dict[str, str]]:
    """(innermost namespace, struct name) -> fields, for every header."""
    structs: dict[tuple[str, str], dict[str, str]] = {}
    for header in sorted(src.rglob("*.hpp")):
        text = strip_comments(header.read_text(encoding="utf-8"))
        ns_match = NAMESPACE.search(text)
        ns = ns_match.group(1).split("::")[-1] if ns_match else ""
        for m in STRUCT.finditer(text):
            body = struct_body(text, m.end() - 1)
            structs[(ns, m.group(1))] = parse_fields(body)
    return structs


def find_struct(structs, ns: str, name: str):
    if (ns, name) in structs:
        return structs[(ns, name)]
    matches = [fields for (_, n), fields in structs.items() if n == name]
    return matches[0] if len(matches) == 1 else None


def resolve(structs, ns: str, fields: dict[str, str], path: list[str]) -> bool:
    """Does `path` (a knob split at dots) name a field chain in `fields`?"""
    head, rest = path[0], path[1:]
    if head not in fields:
        return False
    if not rest:
        return True
    type_name = re.sub(r"[^\w:]", "", fields[head])
    parts = type_name.split("::")
    nested = find_struct(structs, parts[-2] if len(parts) > 1 else ns, parts[-1])
    if nested is None:
        return False
    return rest == ["*"] or resolve(structs, ns, nested, rest)


def tables(doc: pathlib.Path):
    """Yields (line, namespace, struct, [(line, knob)]) per config section."""
    lines = doc.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        m = SECTION.match(lines[i])
        if not m:
            i += 1
            continue
        heading_line, rows = i + 1, []
        i += 1
        while i < len(lines) and not lines[i].startswith("|") and not HEADING.match(lines[i]):
            i += 1
        while i < len(lines) and lines[i].startswith("|"):
            knob = KNOB.match(lines[i])
            if knob:
                rows.append((i + 1, knob.group(1)))
            i += 1
        yield heading_line, m.group(1), m.group(2), rows


def check(doc: pathlib.Path, src: pathlib.Path) -> list[str]:
    structs = load_structs(src)
    errors, checked = [], 0
    for heading_line, ns, name, rows in tables(doc):
        fields = find_struct(structs, ns, name)
        if fields is None:
            errors.append(f"{doc}:{heading_line}: no struct {ns}::{name} under {src}")
            continue
        checked += 1
        if not rows:
            errors.append(f"{doc}:{heading_line}: {ns}::{name} has no knob table")
        for line, knob in rows:
            if not resolve(structs, ns, fields, knob.split(".")):
                errors.append(f"{doc}:{line}: `{knob}` is not a field of {ns}::{name}")
        documented = {knob.split(".")[0] for _, knob in rows}
        for field in fields:
            if field not in documented:
                errors.append(f"{doc}:{heading_line}: {ns}::{name}::{field} has no row")
    if checked == 0:
        errors.append(f"{doc}: no config tables found")
    return errors


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc", type=pathlib.Path, default=root / "docs" / "OPERATIONS.md")
    parser.add_argument("--src", type=pathlib.Path, default=root / "src")
    args = parser.parse_args()
    if not args.doc.is_file() or not args.src.is_dir():
        print(f"usage error: {args.doc} or {args.src} missing", file=sys.stderr)
        return 2
    errors = check(args.doc, args.src)
    for error in errors:
        print(error)
    if errors:
        print(f"{len(errors)} config-doc mismatch(es)")
        return 1
    print(f"config tables in {args.doc.name} match their structs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Docs/CLI consistency check, run by the CI lint job.

Eight directions:

1. every ``--flag`` token the docs mention must exist on the ``repro``
   argument parser (or be a known external tool's flag) — stale docs
   fail the build;
2. flags listed in ``REQUIRED_DOCUMENTED`` must be mentioned in the
   docs — a user-facing knob nobody documents fails the build too;
3. **every** flag on the ``repro`` parser (except ``--help``) must be
   mentioned in README.md — new CLI surface ships documented or not at
   all;
4. every DESIGN.md section reference (``§3.10``-style) in README.md and
   CHANGES.md must resolve to a real numbered DESIGN.md heading — a
   renumbered or deleted section invalidates its cross-references;
5. every literal event name the code under ``src/repro`` passes to
   ``record_event(`` / ``_event(`` / ``emit(`` must head a row of one
   of DESIGN.md's event tables (the ones whose header cell is
   ``event``), and every row of those tables must name an event the
   code emits — an emitted-but-uncatalogued ledger event fails the
   build, and so does a catalogued event nobody writes any more;
6. every event the trace fold matches (``repro.obs.spans.TRACED_EVENTS``)
   must head a row of DESIGN.md's event → span table (the one whose
   header starts ``event | lane``), and every row of that table must
   name an event the fold matches — the table *is* the fold's catalogue;
7. every path the DESIGN.md §3 package inventory names (the tree and
   the "additional infrastructure" paragraph under it) must exist under
   ``src/repro``;
8. every literal metric name the code under ``src/repro`` passes to
   ``.counter(`` must head a row of DESIGN.md's metric
   table (the one whose header starts ``metric | labels``), and every
   row of that table must name a metric the code writes.

Run:  PYTHONPATH=src python tools/check_docs.py
"""

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")

#: Flags the docs mention that belong to other tools (pytest-benchmark,
#: ``e2e_bench/run.py`` and ``e2e_bench/aa_check.py``), not to the repro
#: CLI.
ALLOWED_EXTERNAL = {"--benchmark-only", "--workload", "--seconds", "--runs"}

#: User-facing knobs that must stay documented somewhere in DOCS.
REQUIRED_DOCUMENTED = {
    "--inject-faults",
    "--fault-seed",
    "--max-retries",
    "--wave-timeout",
    "--workers",
    "--devices",
    "--pipelines",
    "--ledger",
    "--tenants",
    "--quota",
    "--backlog",
    "--drain-at",
    "--critical-path",
    "--trace",
}

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")

#: Files whose ``§N.M`` references must resolve to DESIGN.md headings.
SECTION_REF_SOURCES = ("README.md", "CHANGES.md")

SECTION_REF_RE = re.compile(r"§(\d+(?:\.\d+)*)")

#: Numbered DESIGN.md headings: ``## 4. Experiment index`` /
#: ``### 3.10 In-storage filtering``.
SECTION_HEADING_RE = re.compile(r"^#{2,}\s+(\d+(?:\.\d+)*)\.?\s")


def cli_flags() -> set:
    """Every option string reachable from the repro parser, including
    all subcommands."""
    from repro.cli import build_parser

    flags = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:
            flags.update(
                s for s in action.option_strings if s.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return flags


def doc_flags() -> dict:
    """``--flag`` -> sorted list of "file:line" mentions."""
    mentions = {}
    for name in DOCS:
        for lineno, line in enumerate(
            (REPO / name).read_text().splitlines(), start=1
        ):
            for flag in FLAG_RE.findall(line):
                mentions.setdefault(flag, []).append(f"{name}:{lineno}")
    return mentions


def readme_flags() -> set:
    """Flags mentioned anywhere in README.md specifically."""
    flags = set()
    for line in (REPO / "README.md").read_text().splitlines():
        flags.update(FLAG_RE.findall(line))
    return flags


def design_sections() -> set:
    """Section numbers with a numbered heading in DESIGN.md."""
    sections = set()
    for line in (REPO / "DESIGN.md").read_text().splitlines():
        match = SECTION_HEADING_RE.match(line)
        if match:
            sections.add(match.group(1))
    return sections


def section_refs() -> dict:
    """``section number`` -> sorted "file:line" mentions across
    :data:`SECTION_REF_SOURCES`."""
    refs = {}
    for name in SECTION_REF_SOURCES:
        path = REPO / name
        if not path.exists():
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for section in SECTION_REF_RE.findall(line):
                refs.setdefault(section, []).append(f"{name}:{lineno}")
    return refs


#: A literal event name as the first argument of an event writer.
EVENT_CALL_RE = re.compile(
    r"\b(?:record_event|_event|emit)\(\s*\"([a-z_.]+)\""
)

#: A DESIGN.md table row headed by a backticked event name.
EVENT_ROW_RE = re.compile(r"^\s*\|\s*`([a-z_.]+)`\s*\|")

#: The header row of an event table (the fault-*site* tables of §3.5
#: name sites, not events, and are not part of the catalogue).
EVENT_HEADER_RE = re.compile(r"^\s*\|\s*event\s*\|")


def literal_names(call_re) -> dict:
    """``name`` -> sorted "file:line" sites under src/repro where
    ``call_re`` matches it as a call's literal first argument."""
    names = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        for match in call_re.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            names.setdefault(match.group(1), []).append(
                f"{path.relative_to(REPO)}:{lineno}"
            )
    return names


#: The header row of the event → span table (§3.9) — an event table
#: too: every event the fold matches is one the code emits.
SPAN_TABLE_HEADER_RE = re.compile(r"^\s*\|\s*event\s*\|\s*lane\s*\|")


def catalogued_events(header_re=EVENT_HEADER_RE) -> dict:
    """``name`` -> "DESIGN.md:line" of the first row it heads in a
    DESIGN.md table whose header row matches ``header_re``."""
    events = {}
    in_table = False
    for lineno, line in enumerate(
        (REPO / "DESIGN.md").read_text().splitlines(), start=1
    ):
        if not line.lstrip().startswith("|"):
            in_table = False
        elif header_re.match(line):
            in_table = True
        elif in_table:
            match = EVENT_ROW_RE.match(line)
            if match:
                events.setdefault(match.group(1), f"DESIGN.md:{lineno}")
    return events


#: A literal metric name as the first argument of the registry's getter.
METRIC_CALL_RE = re.compile(r"\.counter\(\s*\"([a-z_.]+)\"")

#: The header row of the metric table (§3.3).
METRIC_TABLE_HEADER_RE = re.compile(r"^\s*\|\s*metric\s*\|\s*labels\s*\|")


#: The heading the package inventory sits under, and where it ends.
INVENTORY_START_RE = re.compile(r"^## 3\. Package inventory")
INVENTORY_END_RE = re.compile(r"^#{2,3} ")

#: A backticked source path in the inventory's prose.
INVENTORY_PROSE_PATH_RE = re.compile(r"`([a-z_]+/(?:[a-z_]+\.py)?)`")


def traced_events() -> set:
    """Every event name the trace fold matches."""
    from repro.obs.spans import TRACED_EVENTS

    return set(TRACED_EVENTS)


def inventory_paths() -> dict:
    """``path under src/repro`` -> "DESIGN.md:line" for every file and
    directory the §3 inventory names: the indented tree (a line holds a
    directory, or one or more ``.py`` files, then prose) and the
    backticked paths of the paragraph after it."""
    paths = {}
    in_section = in_tree = False
    stack = []  # (indent, directory name) of the enclosing tree levels
    for lineno, line in enumerate(
        (REPO / "DESIGN.md").read_text().splitlines(), start=1
    ):
        if INVENTORY_START_RE.match(line):
            in_section = True
            continue
        if not in_section:
            continue
        if INVENTORY_END_RE.match(line):
            break
        where = f"DESIGN.md:{lineno}"
        if line.startswith("```"):
            in_tree = not in_tree
            continue
        if not in_tree:
            for path in INVENTORY_PROSE_PATH_RE.findall(line):
                paths.setdefault(path.rstrip("/"), where)
            continue
        tokens = line.split()
        if not tokens or tokens[0] == "src/repro/":
            continue
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        base = "".join(name for _indent, name in stack)
        if tokens[0].endswith("/"):
            stack.append((indent, tokens[0]))
            paths.setdefault((base + tokens[0]).rstrip("/"), where)
            continue
        for token in tokens:
            if not token.endswith(".py"):
                break
            paths.setdefault(base + token, where)
    return paths


def main() -> int:
    known = cli_flags()
    mentioned = doc_flags()
    in_readme = readme_flags()
    failures = []

    for flag, where in sorted(mentioned.items()):
        if flag not in known and flag not in ALLOWED_EXTERNAL:
            failures.append(
                f"docs mention {flag} ({', '.join(where)}) but the repro "
                "CLI has no such flag"
            )
    for flag in sorted(REQUIRED_DOCUMENTED):
        if flag not in known:
            failures.append(
                f"REQUIRED_DOCUMENTED lists {flag} but the repro CLI has "
                "no such flag"
            )
        elif flag not in mentioned:
            failures.append(
                f"{flag} exists on the repro CLI but none of "
                f"{', '.join(DOCS)} document it"
            )
    for flag in sorted(known - {"--help"}):
        if flag not in in_readme:
            failures.append(
                f"{flag} exists on the repro CLI but README.md never "
                "mentions it — document the flag where users will look"
            )

    sections = design_sections()
    for section, where in sorted(section_refs().items()):
        if section not in sections:
            failures.append(
                f"§{section} is referenced ({', '.join(where)}) but "
                "DESIGN.md has no such numbered section"
            )

    emitted = literal_names(EVENT_CALL_RE)
    catalogued = catalogued_events()
    for event, where in sorted(emitted.items()):
        if event not in catalogued:
            failures.append(
                f"event {event} is emitted ({', '.join(where)}) but no "
                "DESIGN.md event table lists it"
            )
    for event, where in sorted(catalogued.items()):
        if event not in emitted:
            failures.append(
                f"event {event} is catalogued ({where}) but nothing under "
                "src/repro emits it"
            )

    traced = traced_events()
    tabulated = catalogued_events(SPAN_TABLE_HEADER_RE)
    for event in sorted(traced - set(tabulated)):
        failures.append(
            f"the trace fold matches {event} but DESIGN.md's event → span "
            "table has no row for it"
        )
    for event, where in sorted(tabulated.items()):
        if event not in traced:
            failures.append(
                f"event {event} has an event → span row ({where}) but the "
                "trace fold does not match it"
            )

    written = literal_names(METRIC_CALL_RE)
    metric_rows = catalogued_events(METRIC_TABLE_HEADER_RE)
    for metric, where in sorted(written.items()):
        if metric not in metric_rows:
            failures.append(
                f"metric {metric} is written ({', '.join(where)}) but "
                "DESIGN.md's metric table has no row for it"
            )
    for metric, where in sorted(metric_rows.items()):
        if metric not in written:
            failures.append(
                f"metric {metric} is catalogued ({where}) but nothing "
                "under src/repro writes it"
            )

    inventory = inventory_paths()
    for path, where in sorted(inventory.items()):
        if not (REPO / "src" / "repro" / path).exists():
            failures.append(
                f"the package inventory names {path} ({where}) but "
                f"src/repro/{path} does not exist"
            )

    for failure in failures:
        print(f"check_docs: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"check_docs: {len(mentioned)} documented flags consistent "
            f"with the CLI ({len(known)} parser flags, all in README.md, "
            f"{len(REQUIRED_DOCUMENTED)} required docs present, "
            f"{len(section_refs())} section refs resolve in DESIGN.md, "
            f"{len(emitted)} emitted events catalogued, "
            f"{len(traced)} traced events tabulated, "
            f"{len(written)} written metrics catalogued, "
            f"{len(inventory)} inventory paths exist)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

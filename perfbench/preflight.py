"""README pre-flight: run every `$ operad-workbench ...` example shown in
README.md in-process, from the examples directory, and compare each
shown output line byte for byte. A shown line that reads `...` stands
for any number of output lines."""

from __future__ import annotations

import contextlib
import io
import os
import shlex

PROMPT = "$ operad-workbench "


def readme_examples(text: str) -> list:
    """(argv, shown output lines) for each prompt line in a fenced block;
    the shown output runs to the next blank line."""
    examples = []
    in_block = False
    current = None
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif not in_block:
            continue
        elif line.startswith(PROMPT):
            current = (shlex.split(line[len(PROMPT):]), [])
            examples.append(current)
        elif current is not None:
            if line.strip():
                current[1].append(line)
            else:
                current = None
    return examples


def matches(shown: list, actual: list) -> bool:
    """Shown lines equal actual lines in order, with `...` lines
    matching any run of actual lines (possibly empty)."""
    segments = [[]]
    for line in shown:
        if line.strip() == "...":
            segments.append([])
        else:
            segments[-1].append(line)
    first, rest = segments[0], segments[1:]
    if actual[:len(first)] != first:
        return False
    at = len(first)
    if not rest:
        return at == len(actual)
    for k, segment in enumerate(rest):
        last = k == len(rest) - 1
        if last:
            # the closing segment is anchored at the end of the output
            return (len(actual) - len(segment) >= at
                    and actual[len(actual) - len(segment):] == segment)
        while at <= len(actual) - len(segment) \
                and actual[at:at + len(segment)] != segment:
            at += 1
        if at > len(actual) - len(segment):
            return False
        at += len(segment)
    return True


def run_preflight(cli_main, readme_path, examples_dir) -> dict:
    examples = readme_examples(readme_path.read_text(encoding="utf-8"))
    failures = []
    here = os.getcwd()
    os.chdir(examples_dir)
    try:
        for argv, shown in examples:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            actual = out.getvalue().splitlines()
            if code != 0 or not matches(shown, actual):
                failures.append(f"README example `{shlex.join(argv)}`: "
                                f"exit {code}, output {actual[:6]}")
    finally:
        os.chdir(here)
    return {"examples": len(examples), "failures": failures}

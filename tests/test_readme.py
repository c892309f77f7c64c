"""The README's command-line examples print the values they claim.

A ``depthlab ...`` line documents its output with ``# -> value``, on the
same line or alone on the next one.  Examples that read a dataset or a
records file are skipped: the README does not ship those files.
"""

import pathlib
import shlex

import pytest

from depthlab.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
NEEDS_FILES = ("--data", "simulate", "report")


def readme_examples():
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("depthlab "):
            continue
        cmd, _, claim = line.partition("#")
        if not claim and i + 1 < len(lines) and lines[i + 1].strip().startswith("#"):
            claim = lines[i + 1].strip()[1:]
        claim = claim.strip()
        if not claim.startswith("->") or any(w in cmd for w in NEEDS_FILES):
            continue
        examples.append((cmd.strip(), claim[2:].strip()))
    return examples


EXAMPLES = readme_examples()


def test_examples_found():
    # scatter-gaussian, pointmass (claim on the next line), ls2-breakdown
    claims = {printed for _, printed in EXAMPLES}
    assert claims >= {"0.500000", "0.161741", "0.2123972674"}


@pytest.mark.parametrize("cmd, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_claimed_value(cmd, printed, capsys):
    assert main(shlex.split(cmd)[1:]) == 0
    assert capsys.readouterr().out.strip() == printed

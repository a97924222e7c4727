"""The README's examples run: every `cvqkd` line of its "Command line"
block exits 0 through `cli.main`, and its "Library quick start" block
executes."""

import re
import shlex
from pathlib import Path

import pytest

from twoway_cvqkd.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in _block("Command line", "sh").splitlines()
            if line.startswith("cvqkd ")]


def test_readme_has_commands():
    # an empty parameter set would skip the command test, not fail it
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_readme_command_exits_ok(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # --out files land here
    assert main(argv) == EXIT_OK


def test_readme_quick_start_runs():
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), {})

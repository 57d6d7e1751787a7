"""README's `## Command line` synopsis shows every option of each
subcommand and every backend choice, as ``build_parser`` defines them,
with exactly the options that are not required inside ``[...]``."""

import re
from pathlib import Path

import pytest

from qbandit.backends import BACKENDS
from qbandit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices


def synopsis() -> dict[str, str]:
    """Each subcommand's synopsis lines, joined, from the first code block
    under `## Command line`."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines: dict[str, list[str]] = {}
    for line in block.splitlines():
        if match := re.match(r"qbandit (\S+)", line):
            command = match.group(1)
        if line.strip():
            lines.setdefault(command, []).append(line)
    return {command: "\n".join(text) for command, text in lines.items()}


def shown(token: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(token)}(?![\w-])", text) is not None


def test_every_subcommand_has_a_synopsis():
    assert set(synopsis()) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_synopsis_shows_every_option(command):
    text = synopsis()[command]
    options = [
        option
        for action in SUBCOMMANDS[command]._actions
        if action.dest != "help"
        for option in action.option_strings
    ]
    assert [o for o in options if not shown(o, text)] == []
    # What is left once the [...] groups go: the options that are required.
    bare = re.sub(r"\[[^\[\]]*\]", "", text)
    required = {
        option
        for action in SUBCOMMANDS[command]._actions
        if action.required
        for option in action.option_strings
    }
    assert {o for o in options if shown(o, bare)} == required
    if any("--backend" in action.option_strings for action in SUBCOMMANDS[command]._actions):
        assert [b for b in BACKENDS if not shown(b, text)] == []

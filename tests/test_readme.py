"""Every ``sentigraph`` command in the README's CLI section parses.

The commands are only parsed, never run, so a README that names a flag or
subcommand the parser no longer has fails here.
"""

import os
import re
import shlex

import pytest

from sentigraph.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _cli_commands():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sentigraph "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = _cli_commands()


def test_readme_cli_section_shows_every_subcommand():
    subcommands = {"stats", "convert", "train", "predict", "evaluate", "pipeline"}
    assert subcommands <= {word for argv in COMMANDS for word in argv}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)

"""The README's examples still match the package.

Every ``sentigraph`` command in the CLI section parses; the commands are
only parsed, never run, so a README that names a flag or subcommand the
parser no longer has fails here. The Python blocks of the "Library use"
section run, in order and in one namespace, over small generated
``data/synth_*.json`` files.
"""

import os
import re
import shlex

import pytest

from sentigraph.cli import build_parser
from sentigraph.synth import main as synth_main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _section(title):
    with open(README, encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_commands():
    section = _section("CLI")
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


def test_readme_library_snippets_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", _section("Library use"), re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    os.mkdir("data")
    synth_main(["data/synth_train.json", "--sentences", "40", "--seed", "11"])
    synth_main(["data/synth_test.json", "--sentences", "12", "--seed", "13"])
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert [s.spans() for s in namespace["spans_only"]] == [
        s.spans() for s in namespace["test"]]

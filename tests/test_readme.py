"""The README's examples run against the code as it is."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from pcimpute import cli
from pcimpute.simulation import StudySettings, check_run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _commands() -> list[str]:
    """Every ``pcimpute`` command of a ``sh`` block, its continuation lines joined."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("pcimpute ")]


def test_readme_has_an_example_of_every_command():
    commands = {shlex.split(line)[1] for line in _commands()}
    assert commands == {"impute", "pool", "enumerate", "simulate"}


@pytest.mark.parametrize("line", _commands(), ids=lambda line: shlex.split(line)[1])
def test_command_parses(line):
    args = cli._build_parser().parse_args(shlex.split(line)[1:])
    assert args.func.__name__ == f"cmd_{args.command}"


def test_every_flag_of_the_cli_section_is_accepted():
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        flag
        for command in commands.choices.values()
        for action in command._actions
        for flag in action.option_strings
    }
    assert named and named <= accepted, sorted(named - accepted)


def test_study_config_passes_the_checks_before_any_work(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "study.json"
    path.write_text(block, encoding="utf-8")
    config = cli._load_config(str(path))
    assert cli._conditions_from_grid(config["grid"])
    assert cli._methods_from_config(config["methods"])
    run = config["run"]
    check_run(run["reps"], run["workers"], run["seed"])
    StudySettings(**config["settings"])


def test_library_imports_run():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})

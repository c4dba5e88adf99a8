"""The README's examples run as written: the library example, the scenario
shape and the command lines."""

import json
import re
import shlex
from pathlib import Path

from mlt.cli import main
from mlt.config import collect_violations, parse_scenario
from mlt.evaluation import TrustLevel

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The one block of the given language in the README."""
    [block] = re.findall(rf"^```{language}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    return block


def test_the_readme_examples_run():
    names = {}
    exec(fenced("python"), names)
    assert isinstance(names["level"], TrustLevel)
    doc = json.loads(fenced("json"))
    assert collect_violations(doc) == []
    parse_scenario(doc)


def test_the_readme_commands_exit_as_documented(monkeypatch):
    # every `mlt ...` line of the "Command line" section but the loop's, whose
    # $k the shell fills in; a line whose comment says "must FAIL" exits 1
    section = README.split("\n## Command line\n")[1].split("\n## ")[0]
    lines = [line.strip().partition("#")
             for block in re.findall(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
             for line in block.splitlines()]
    expected = {command.strip(): 1 if "must FAIL" in comment else 0
                for command, _, comment in lines
                if command.startswith("mlt ") and "$" not in command}
    assert 1 in expected.values() and 0 in expected.values()
    monkeypatch.chdir(ROOT)
    assert {command: main(shlex.split(command)[1:]) for command in expected} == expected

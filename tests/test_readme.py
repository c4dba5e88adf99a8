"""The README's examples run as written: the library example and the scenario shape."""

import json
import re
from pathlib import Path

from mlt.config import collect_violations, parse_scenario
from mlt.evaluation import TrustLevel

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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

"""The package's public surface: its export list and README's library example."""

from __future__ import annotations

import re
import types
from pathlib import Path

import beltmatch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_unique_and_names_every_public_name():
    names = beltmatch.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {
        name
        for name, obj in vars(beltmatch).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(names) == public


def test_the_library_example_in_the_readme_runs():
    section = README.read_text().split("## Library in one minute", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})

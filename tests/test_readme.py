"""Every ``python`` code block of README.md runs against the package.

A change that drops or renames a documented name fails here rather than
in a reader's session.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_library_example_values():
    # The values the Library example's comments state.
    scope = {}
    exec(compile(BLOCKS[0], str(README), "exec"), scope)
    assert scope["family"].validation.passed is True
    assert scope["explicit_bound"](scope["family"]).overall == Fraction(9, 2)

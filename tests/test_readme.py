"""The README's library example runs against the current package."""

import re
from fractions import Fraction as F
from pathlib import Path

from finmeas import Dist, Step, condition, dirac, primitive

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(block, scope)
    assert scope["two"][F(7)] == F(1, 6)
    assert condition(scope["d6"], scope["even"]) == Dist({2: F(1, 3), 4: F(1, 3), 6: F(1, 3)})
    assert primitive(scope["dp"], Step(F(1))) == dirac(0)

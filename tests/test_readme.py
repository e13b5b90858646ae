"""The README's library tour runs as written, so that no retired name lingers there."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        tour = fh.read().split("## Library quick tour", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md (library quick tour)", "exec"), {})

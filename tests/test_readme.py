"""README's API sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_api_sketch_runs_and_repairs_like_subst():
    section = README.read_text(encoding="utf-8").split("## API sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].term == namespace["fixed"]

"""The README's library quickstart runs as written, so a removed or
renamed public name fails here before it reaches a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "the README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})

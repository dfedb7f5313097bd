"""The README's Python examples run as written, in order, in one namespace."""

import contextlib
import io
import re
import time
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 4
    namespace = {}
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert time.perf_counter() - start < 2.0
    assert "1.3333333333333333" in out.getvalue()
    assert namespace["report"].estimate > 0
    assert namespace["c_matrix"].shape == (2, 2)

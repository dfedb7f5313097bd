"""The README's Python examples run as written, in order, in one namespace, and its table
of input rules names the callable and the error class of every boundary check."""

import contextlib
import io
import itertools
import re
import time
from pathlib import Path

import test_core

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


def _contract_rows() -> list[tuple[set[str], set[str]]]:
    """The names in backticks of the input and the error-class cells of each row of the
    README's table of input rules."""
    lines = README.read_text().splitlines()
    start = lines.index("| input | rule | error class |") + 2
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        assert len(cells) == 3, line
        rows.append((set(re.findall(r"`([^`]+)`", cells[0])),
                     set(re.findall(r"`([^`]+)`", cells[2]))))
    return rows


def test_the_table_of_input_rules_covers_every_boundary_site():
    # a site "callable.case" (or "callable") matches a row naming its callable and its class
    rows = _contract_rows()
    assert len(rows) >= 15
    sites = {**test_core.BOUNDARY_SITES, **test_core.RANGE_SITES}
    hit = set()
    for site, (_, error, _) in sites.items():
        callable_ = site.rsplit(".", 1)[0] if "." in site else site
        matches = {i for i, (inputs, errors) in enumerate(rows)
                   if callable_ in inputs and error.__name__ in errors}
        assert matches, f"no row of the table names {callable_} with {error.__name__}"
        hit |= matches
    assert sorted(set(range(len(rows))) - hit) == []

"""Conventions of the package source itself."""

from pathlib import Path

import involsvd

MAX_LINE = 99


def test_no_line_longer_than_limit():
    # line counts (wc -l) measure the size of the package; a cap on line
    # length keeps denser expressions from passing for less code
    package = Path(involsvd.__file__).parent
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []

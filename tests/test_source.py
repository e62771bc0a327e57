"""Conventions of the package source itself."""

from pathlib import Path

import involsvd

MAX_LINE = 99
PACKAGE = Path(involsvd.__file__).parent


def test_no_line_longer_than_limit():
    # line counts (wc -l) measure the size of the package; a cap on line
    # length keeps denser expressions from passing for less code
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_conjugation_decided_only_by_the_class():
    # A*, V* and Q* are read through StructureClass.star; outside structures.py
    # only the CLI reads is_con, to report a phase or a sign
    readers = sorted(path.name for path in PACKAGE.glob("*.py") if "is_con" in path.read_text())
    assert readers == ["cli.py", "structures.py"]

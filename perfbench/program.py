"""Locate and import the kummerlog sources of the checkout this benchmark sits in.

The benchmark measures the tree it was checked out with, never an installed
copy: the import must resolve to `src/kummerlog` next to this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "kummerlog"


class MissingProgram(RuntimeError):
    """The checkout holds no importable src/kummerlog."""


def load():
    """Import kummerlog from this checkout's src/ and return the package."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no kummerlog sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kummerlog
    if Path(kummerlog.__file__).resolve().parent != PACKAGE:
        raise MissingProgram(f"kummerlog imported from {kummerlog.__file__}, not {PACKAGE}")
    return kummerlog

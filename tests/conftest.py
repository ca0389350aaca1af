"""Test-session setup shared by every test module."""

import os
from pathlib import Path

# pytest puts src/ on this process's path (`pythonpath` in pyproject.toml);
# the CLI subprocesses the tests start get it too, so an uninstalled
# checkout runs the same package in both
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

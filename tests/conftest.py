import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(autouse=True)
def no_caller_seed(monkeypatch):
    """Hide the caller's $PPFE_SEED: a test that needs the variable sets it itself."""
    monkeypatch.delenv("PPFE_SEED", raising=False)

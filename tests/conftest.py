import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from defekt import universal  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_theory_cache():
    """Each test starts with no parsed theory kept, so a test that counts
    the constructions of a fresh theory sees them all."""
    universal._theories.clear()

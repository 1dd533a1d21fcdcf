import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from defekt import frobenius, universal  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_document_caches():
    """Each test starts with no parsed theory or algebra kept, so a test
    that counts the constructions of a fresh theory, or the Gram inversions
    of a fresh algebra, sees them all."""
    universal._theories.clear()
    frobenius._algebras.clear()

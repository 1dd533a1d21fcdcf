import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from defekt import diagrams, frobenius, universal  # noqa: E402
from defekt.exactla import Matrix, _canonical  # noqa: E402

# The test modules of the input corpora (the golden outputs, the command
# line and scalar input) run under ``raw_guard``.
RAW_GUARDED = {"test_golden", "test_cli", "test_scalar_input"}


@pytest.fixture(autouse=True)
def _fresh_document_caches():
    """Each test starts with no theory, algebra or diagram piece
    remembered as read, so a test that counts the constructions of a
    fresh theory, the Gram inversions of a fresh algebra or the reads of a
    document or piece sees them all."""
    universal._theories.clear()
    frobenius._algebras.clear()
    diagrams._pieces.clear()


@pytest.fixture
def raw_guard(monkeypatch):
    """Make ``Matrix._raw``, which builds a matrix as it is given, assert
    that it is given rows * cols ints in canonical form; the list returned
    gets one entry per checked build."""
    checked = []
    real = Matrix._raw.__func__

    def guarded(cls, field, num, den, rows, cols):
        assert _canonical(field.char, num, den) == (num, den), (num, den)
        assert len(num) == rows * cols, (len(num), rows, cols)
        checked.append(rows * cols)
        return real(cls, field, num, den, rows, cols)

    monkeypatch.setattr(Matrix, "_raw", classmethod(guarded))
    return checked


@pytest.fixture(autouse=True)
def _guarded_corpora(request):
    if request.module.__name__ in RAW_GUARDED:
        request.getfixturevalue("raw_guard")

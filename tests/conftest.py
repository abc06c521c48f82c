import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from projsat import BoolSpace  # noqa: E402


@pytest.fixture
def spelled(monkeypatch):
    """The masks of the cubes any BoolSpace spells out during the test."""
    masks = []
    spell = BoolSpace._spelled

    def counted(space, mask, bits):
        masks.append(mask)
        return spell(space, mask, bits)

    monkeypatch.setattr(BoolSpace, "_spelled", counted)
    return masks

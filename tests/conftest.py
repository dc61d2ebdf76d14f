from pathlib import Path

import pytest
from hypothesis import settings

from corktwist import mcg

# the same examples on every run, and no example database left behind
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_chain_relation():
    """Each test starts with no chain relation verified, whatever ran before it."""
    mcg.verify_chain_relation.cache_clear()


FIXTURES = Path(__file__).resolve().parent.parent / "src" / "corktwist" / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def load():
    def _load(name: str) -> str:
        return (FIXTURES / name).read_text()
    return _load

from pathlib import Path

import pytest
from hypothesis import settings

from corktwist import mcg, moves

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


@pytest.fixture
def search_budgets(monkeypatch) -> list[int]:
    """The budget of every moves.search_unknot call the test makes."""
    budgets: list[int] = []
    search = moves.search_unknot

    def counted(start, budget):
        budgets.append(budget)
        return search(start, budget)

    monkeypatch.setattr(moves, "search_unknot", counted)
    return budgets


def _mark_everywhere(node):
    """Add a key to every dict and an element to every list inside node."""
    children = node.values() if isinstance(node, dict) else node
    for child in list(children):
        if isinstance(child, (dict, list)):
            _mark_everywhere(child)
    if isinstance(node, dict):
        node["marked"] = True
    else:
        node.append("marked")


@pytest.fixture
def mark_everywhere():
    """Edits every dict and list of a returned document, to show that a later
    call shares none of them."""
    return _mark_everywhere


def _spelled(data: bytes, heads: tuple[str, ...], args: tuple[str, ...]) -> str:
    """The lines that data spells: a byte b opens a line with a head when
    b % 4 == 0 or no line is open yet, and otherwise adds an argument."""
    lines: list[list[str]] = []
    for b in data:
        if b % 4 == 0 or not lines:
            lines.append([heads[b // 4 % len(heads)]])
        else:
            lines[-1].append(args[b // 4 % len(args)])
    return "\n".join(" ".join(line) for line in lines)


@pytest.fixture
def spelled():
    """Text of a grammar's tokens from flat bytes: hypothesis draws and shrinks
    bytes several times faster than nested lists."""
    return _spelled

import pytest

from morphexp import morphisms


@pytest.fixture(autouse=True)
def empty_search_memo():
    """Start every test with no cached search space, so that tests counting
    search work do not depend on the order the tests run in."""
    morphisms._spaces.clear()

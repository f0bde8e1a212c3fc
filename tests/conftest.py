import pytest

from morphexp import infinite, mapped_exponent


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with no cached search space and no cached expansion
    set-up, so that tests counting search or set-up work do not depend on
    the order the tests run in."""
    mapped_exponent._spaces.clear()
    infinite._setups.clear()

import pytest

from forcinglab import poset as poset_module
from forcinglab.cli import ExperimentConfig, generate_instances


@pytest.fixture(scope="session")
def default_sweep():
    """The shared acceptance sweep: step posets with at most 2 atoms
    (3 elements), up to 3 stages, default caps.  Context caches live on the
    iteration objects, so criteria 4-8 reuse each other's quotients."""
    return generate_instances(ExperimentConfig(max_poset=3, max_stages=3, seed=1))


@pytest.fixture
def fresh_orders(monkeypatch):
    """An empty relation-matrix memo for one test: an order's element
    listing, ``_Order.ascending``, is then None unless this test listed
    it, whatever other tests listed over the same matrix."""
    monkeypatch.setattr(poset_module, "_orders", {})


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)

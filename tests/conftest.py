import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commgraph import construct_detailed, verify  # noqa: E402


@pytest.fixture(scope="session")
def built_group():
    """construct_detailed, built once per spec for the whole test run: the
    library keeps nothing, and bs(cyclic(3)) takes about 0.5 s to build."""
    return functools.cache(construct_detailed)


@pytest.fixture(scope="session")
def corpus_lattice():
    """The lattice of a spec from the verify layer's cache, which the suites
    fill; enumerating p2q(7) again would take about 2 s."""
    return verify._lattice


def pytest_collection_modifyitems(items):
    """Run the cold `run_all` test first.  It clears the verify caches and
    refills them for the whole default corpus, so every later suite call
    reuses its lattices instead of enumerating them a second time."""
    first = "test_run_all_enumerates_each_spec_once"
    items.sort(key=lambda item: item.name != first)

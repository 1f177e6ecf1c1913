import functools
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commgraph import construct_detailed, verify  # noqa: E402
from commgraph.groups import _conjugation  # noqa: E402

pytest_plugins = ["pytester"]

# When a hypothesis test is falsified, hypothesis's pytest plugin imports
# its patch writer, which imports libcst, and libcst warns on import that
# mypy_extensions.TypedDict is deprecated.  With warnings as errors, that
# warning ends the run in an INTERNALERROR that hides the falsifying
# example.  Import the patch writer once here, ignoring only that warning;
# without libcst the plugin's own import fails quietly, as this one does.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def built_group():
    """construct_detailed, built once per spec for the whole test run: the
    library keeps nothing, and bs(cyclic(3)) takes about 0.05 s to build."""
    return functools.cache(construct_detailed)


@pytest.fixture(scope="session")
def conjugating_generators():
    """The generators whose conjugations a table keeps: for each of
    table.conjugations in turn, a generator g not taken before whose
    ``_conjugation`` it is.  Each g is distinct and non-central, since a
    central g conjugates as the identity."""
    def owners(table):
        identity = list(range(table.order))
        free = [g for g in table.generators
                if _conjugation(table, g) != identity]
        out = []
        for conj in table.conjugations:
            g = next((g for g in free
                      if g not in out and _conjugation(table, g) == conj),
                     None)
            assert g is not None, "a conjugation belongs to no free generator"
            out.append(g)
        return out

    return owners


@pytest.fixture(scope="session")
def corpus_lattice():
    """The lattice of a spec from the verify layer's cache, which the suites
    fill; enumerating p2q(7) again would take about 0.013 s."""
    return verify._lattice


def pytest_collection_modifyitems(items):
    """Run the cold `run_all` test first.  It clears the verify caches and
    refills them for the whole default corpus, so every later suite call
    reuses its lattices instead of enumerating them a second time."""
    first = "test_run_all_enumerates_each_spec_once"
    items.sort(key=lambda item: item.name != first)

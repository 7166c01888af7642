"""One deterministic hypothesis profile for the whole suite.

Every property test replays the same examples on every run, has no
per-example deadline (timing noise must not fail a test), and keeps no
example database. Hypothesis also caches the constants it reads from local
source files; that cache goes to a temporary directory removed after the
run, so a test run writes no ``.hypothesis/`` directory.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("qeci", derandomize=True, deadline=None, database=None)
settings.load_profile("qeci")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    storage = config.stash[_STORAGE] = tempfile.TemporaryDirectory(prefix="qeci-hypothesis-")
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    config.stash[_STORAGE].cleanup()

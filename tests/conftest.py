"""One deterministic hypothesis profile for the whole suite.

Every property test replays the same examples on every run, has no
per-example deadline (timing noise must not fail a test), and keeps no
example database. Hypothesis also caches the constants it reads from local
source files; that cache goes to a temporary directory removed after the
run, so a test run writes no ``.hypothesis/`` directory.

A test that runs longer than TEST_TIMEOUT_S seconds ends the whole run:
faulthandler prints every thread's traceback to the terminal's stderr and
exits, so a loop that never ends fails the suite instead of stalling it.
"""

import faulthandler
import os
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("qeci", derandomize=True, deadline=None, database=None)
settings.load_profile("qeci")

TEST_TIMEOUT_S = 120

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    storage = config.stash[_STORAGE] = tempfile.TemporaryDirectory(prefix="qeci-hypothesis-")
    set_hypothesis_home_dir(storage.name)
    # output capture is off here, so this duplicates the terminal's stderr
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    config.stash[_STORAGE].cleanup()
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    stderr = item.config.stash[_STDERR_FD]
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()

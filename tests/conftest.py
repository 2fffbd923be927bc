"""A time limit on every test.

A test that runs past ``TEST_LIMIT_S`` dumps every thread's stack to
stderr and ends the run (``faulthandler.dump_traceback_later`` with
``exit=True``): a hang becomes a failure that names where it stuck, not
a job that waits for its CI timeout.  The limit sits far above the
slowest test, so it only fires on a hang.
"""

import faulthandler
import os
import sys

import pytest

TEST_LIMIT_S = 120.0

#: a duplicate of the terminal's stderr, taken while output capture is
#: off: a dump written to the captured stream would die with the run
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_LIMIT_S, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()

"""Run the tests against this checkout's `src/`, installed or not.

`src/` goes first on `sys.path` for the test process, and first on
`PYTHONPATH` for the CLI and demo subprocesses, so both import the same
tree. Every test must leave no child process behind, reaped or running,
such as a CSV reader's forked worker.
"""

import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process: {'running' if pid == 0 else pid}")

"""Run the tests against this checkout's `src/`, installed or not.

`src/` goes first on `sys.path` for the test process, and first on
`PYTHONPATH` for the CLI and demo subprocesses, so both import the same
tree. Every test must leave no child process behind, reaped or running,
such as a CSV reader's forked worker, and no file descriptor open that it
opened, such as a leaked pipe, memfd or mapped file.
"""

import contextlib
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


FDS = "/proc/self/fd"


def open_descriptors() -> set[tuple[str, str]]:
    """Each open file descriptor of this process, with what it names; not
    the one os.listdir opened for its listing, closed when it returns."""
    fds = set()
    for fd in os.listdir(FDS):
        with contextlib.suppress(OSError):
            fds.add((fd, os.readlink(os.path.join(FDS, fd))))
    return fds


@pytest.fixture(autouse=True)
def no_file_descriptor_is_left():
    if not os.path.isdir(FDS):  # no way to list them here
        yield
        return
    before = open_descriptors()
    yield
    left = sorted(open_descriptors() - before, key=lambda fd: int(fd[0]))
    if left:
        named = ", ".join(f"{fd} -> {target}" for fd, target in left)
        pytest.fail(f"the test left file descriptors open: {named}")

"""Run the tests against this checkout's `src/`, installed or not.

`src/` goes first on `sys.path` for the test process, and first on
`PYTHONPATH` for the CLI and demo subprocesses, so both import the same
tree.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

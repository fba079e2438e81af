import hashlib
import sys

import numpy as np
import pytest

from relu3d.net import evaluate_array


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line-per-criterion acceptance results after the run
    (plain prints are swallowed by capture on passing tests)."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "CRITERION_LINES", None):
            terminalreporter.write_line("")
            terminalreporter.write_line("acceptance criteria:")
            for line in mod.CRITERION_LINES:
                terminalreporter.write_line("  " + line)
            break


@pytest.fixture
def forward_sha():
    """sha256 of a net's evaluate_array outputs on 64 seeded points of
    [-1, 1]^input_dim: any change in a forward value, sign of zero
    included, changes it."""
    def sha(net):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0,
                                               size=(64, net.input_dim))
        return hashlib.sha256(evaluate_array(net, pts).tobytes()).hexdigest()
    return sha

import contextlib
import sys

import pytest
from hypothesis import HealthCheck, settings

# Property tests wrap exact solvers, so per-example deadlines are noise;
# derandomize keeps runs reproducible without a seed file.
settings.register_profile(
    "strongedge",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("strongedge")


@pytest.fixture
def shallow_stack():
    """A context manager under which code may recurse only about 60 frames
    deeper than where it is entered; it restores the recursion limit."""

    @contextlib.contextmanager
    def lowered():
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    return lowered

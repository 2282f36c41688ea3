import os

import numpy as np
import pytest
from hypothesis import settings

# tier1 (the default): every property test draws the same examples on every
# run, with no example database, so the suite's outcome depends on the code
# alone; each test keeps its own max_examples.  explore
# (HYPOTHESIS_PROFILE=explore): fresh random draws, with failures kept in the
# example database and replayed first.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

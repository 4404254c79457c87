import sys
from pathlib import Path

import pytest
from hypothesis import settings

from trustshift import crypto

# test-local helper modules (refenc, gen, fixtures) import as plain names
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw the same examples on every run ("tier1", loaded
# here, which also keeps no example database), so a test's verdict
# depends only on the code. `pytest --hypothesis-profile=default`
# (Hypothesis's own profile) searches at random instead and replays the
# failures it stored in `.hypothesis/`.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_run_records():
    """Each test starts with the per-run records empty, as `run_scenario`
    starts each run: none of them has a bound, so without this a test
    would see, and the suite would keep alive, what every test before it
    signed, derived and encoded."""
    crypto.forget_run()

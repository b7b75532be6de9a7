"""Every test runs under the default work bound unless it sets its own.

CHORDWEIGHT_MAX_WORK is removed from the environment when pytest loads
this file, before any test module is collected (collecting
test_tensors.py already charges work).  So neither the tests nor the
processes they start read the caller's bound; a test that needs one sets
it with monkeypatch.setenv.
"""

import os

os.environ.pop("CHORDWEIGHT_MAX_WORK", None)

"""Shared test settings.

The GitHub workflow sets HYPOTHESIS_PROFILE=ci, whose derandomized runs
draw the same examples on every machine, so a property that fails there
fails the same way locally under that profile. Without it hypothesis keeps
its defaults.
"""

import os
import sys

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def int_text_limit():
    """The interpreter's default limit of 4300 digits on turning ints into
    text and back, for the duration of a test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on integer text")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)

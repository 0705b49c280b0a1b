import fractions
import random
import sys

import pytest
from hypothesis import strategies as st

from oagw.sampling import random_element


def seeded_elements(construction, *, allow_zero=True):
    """Hypothesis strategy: deterministic sampler driven by a drawn seed."""

    def build(seed: int):
        return random_element(random.Random(seed), construction, allow_zero=allow_zero)

    return st.integers(min_value=0, max_value=2**40).map(build)


def fraction_calls(fn) -> list[str]:
    """The names of the functions defined in ``fractions.py`` that
    ``fn()`` enters, in the order entered."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


@pytest.fixture
def rng():
    return random.Random(20240801)

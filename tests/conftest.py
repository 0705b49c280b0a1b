import fractions
import random
import sys

import pytest
from hypothesis import strategies as st

from oagw import elements
from oagw.sampling import random_element

# the reference models assert in their own module
pytest.register_assert_rewrite("reference")


def seeded_elements(construction, *, allow_zero=True):
    """Hypothesis strategy: deterministic sampler driven by a drawn seed."""

    def build(seed: int):
        return random_element(random.Random(seed), construction, allow_zero=allow_zero)

    return st.integers(min_value=0, max_value=2**40).map(build)


def _calls_into(filename: str, fn) -> list[str]:
    """The names of the functions whose code lives in ``filename`` that
    ``fn()`` enters, in the order entered."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == filename:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


def fraction_calls(fn) -> list[str]:
    """The names of the functions defined in ``fractions.py`` that
    ``fn()`` enters, in the order entered."""
    return _calls_into(fractions.__file__, fn)


def element_calls(fn) -> list[str]:
    """The names of the functions defined in ``oagw/elements.py`` that
    ``fn()`` enters, in the order entered."""
    return _calls_into(elements.__file__, fn)


def generated_calls(fn) -> list[str]:
    """The names of the generated functions (code compiled from a string,
    such as a dataclass ``__init__`` or a named tuple's ``__new__``) that
    ``fn()`` enters, in the order entered."""
    return _calls_into("<string>", fn)


@pytest.fixture
def rng():
    return random.Random(20240801)

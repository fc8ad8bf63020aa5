import random

import pytest
from hypothesis import strategies as st

from polab.order import Extension, MonotoneMap
from polab.polarity import ExtensionPolarity
from polab.randgen import random_poset


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def seeded_posets(max_size=5):
    """Small random posets driven by a drawn seed, so hypothesis can
    shrink over the generator input."""
    return st.builds(
        lambda seed, size: random_poset(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=max_size),
    )


def dual_extension(e):
    """The same embedding between the dual posets."""
    return Extension(MonotoneMap(e.base.dual(), e.target.dual(), e.map.assignment))


def dual_polarity(pol):
    """Both orders reversed, the sides swapped, the relation transposed."""
    base = pol.base.dual()
    ex = Extension(MonotoneMap(base, pol.y.dual(), pol.ey.map.assignment))
    ey = Extension(MonotoneMap(base, pol.x.dual(), pol.ex.map.assignment))
    return ExtensionPolarity(base, ex, ey, {(b, a) for a, b in pol.rel})

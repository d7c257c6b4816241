import random

import pytest

from convexmorph.morph_engine import NotInternallyThreeConnected, convexify
from convexmorph.steps import MorphSequence

from _instances import hidden_component_drawing, random_triangulation


def test_convexify_rejects_input_that_is_not_internally_3connected():
    with pytest.raises(NotInternallyThreeConnected):
        convexify(hidden_component_drawing())


@pytest.mark.parametrize("seed", range(3))
def test_convexify_returns_no_events_on_strictly_convex_input(seed):
    d = random_triangulation(random.Random(seed), 10, 40)
    seq = convexify(d)
    assert isinstance(seq, MorphSequence)
    assert seq.events == ()
    assert seq.final is d

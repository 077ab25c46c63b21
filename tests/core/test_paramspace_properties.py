"""Property-based tests on the parameter space (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paramspace import Axis, ParameterSpace


@st.composite
def spaces(draw):
    nt = draw(st.integers(min_value=1, max_value=5))
    nd = draw(st.integers(min_value=1, max_value=4))
    ns = draw(st.integers(min_value=1, max_value=3))
    return ParameterSpace(
        temperature=Axis.log("temperature", 1e5, 1e8, nt),
        density=Axis.linear("density", 0.5, 3.0, nd),
        time=Axis.linear("time", 0.0, 10.0, ns),
    )


class TestParameterSpaceProperties:
    @given(space=spaces())
    @settings(max_examples=60, deadline=None)
    def test_iteration_count_matches_shape(self, space):
        points = list(space)
        assert len(points) == space.n_points
        nt, nd, ns = space.shape
        assert space.n_points == nt * nd * ns

    @given(space=spaces())
    @settings(max_examples=60, deadline=None)
    def test_points_unique(self, space):
        seen = set()
        for pt in space:
            key = (pt.temperature_k, pt.ne_cm3, pt.time_s)
            assert key not in seen
            seen.add(key)

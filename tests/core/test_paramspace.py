"""The Fig. 1 parameter space."""

import numpy as np
import pytest

from repro.core.paramspace import Axis, ParameterSpace


class TestAxis:
    def test_linear(self):
        ax = Axis.linear("t", 1.0, 3.0, 3)
        assert ax.values == (1.0, 2.0, 3.0)

    def test_log(self):
        ax = Axis.log("d", 1.0, 100.0, 3)
        assert ax.values == pytest.approx((1.0, 10.0, 100.0))

    def test_single_value(self):
        assert len(Axis.linear("x", 5.0, 5.0, 1)) == 1

    @pytest.mark.parametrize(
        "ctor,args",
        [
            (Axis.linear, ("x", 0.0, 1.0, 0)),
            (Axis.log, ("x", -1.0, 1.0, 3)),
            (Axis.log, ("x", 1.0, 10.0, 0)),
        ],
    )
    def test_validation(self, ctor, args):
        with pytest.raises(ValueError):
            ctor(*args)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Axis("x", ())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Axis("x", (1.0, float("nan")))


class TestParameterSpace:
    @pytest.fixture()
    def space(self):
        return ParameterSpace(
            temperature=Axis.log("temperature", 1e6, 1e8, 3),
            density=Axis.linear("density", 1.0, 2.0, 2),
            time=Axis.linear("time", 0.0, 10.0, 2),
        )

    def test_shape_and_count(self, space):
        assert space.shape == (3, 2, 2)
        assert len(space) == 12

    def test_iteration_matches_indexing(self, space):
        for i, pt in enumerate(space):
            indexed = space.point(i)
            assert indexed.temperature_k == pt.temperature_k
            assert indexed.ne_cm3 == pt.ne_cm3
            assert indexed.time_s == pt.time_s

    def test_point_out_of_range(self, space):
        with pytest.raises(IndexError):
            space.point(12)
        with pytest.raises(IndexError):
            space.point(-1)

    def test_partition_equal_shares(self, space):
        parts = space.partition(5)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 12
        assert max(sizes) - min(sizes) <= 1
        # Every point appears exactly once.
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(12))

    def test_partition_validation(self, space):
        with pytest.raises(ValueError):
            space.partition(0)

    def test_default_time_axis(self):
        space = ParameterSpace(
            temperature=Axis.linear("temperature", 1e6, 1e6, 1),
            density=Axis.linear("density", 1.0, 1.0, 1),
        )
        assert len(space) == 1
        assert space.point(0).time_s == 0.0

    def test_paper_test_space_has_24_points(self):
        """The paper's test region, a small one where 'the amount of
        calculation at each point is approximately the same'."""
        space = ParameterSpace.from_config({
            "temperature": {"lo": 8.0e6, "hi": 1.2e7, "n": 4, "spacing": "log"},
            "density": {"lo": 0.8, "hi": 1.2, "n": 3},
            "time": {"lo": 0.0, "hi": 1.0, "n": 2},
        })
        assert len(space) == 24


class TestConstruction:
    def test_from_config_ranges(self):
        space = ParameterSpace.from_config(
            {
                "temperature": {"lo": 1e6, "hi": 1e8, "n": 3, "spacing": "log"},
                "density": [0.5, 1.5],
                "time": {"lo": 0.0, "hi": 1.0, "n": 2},
            }
        )
        assert space.shape == (3, 2, 2)
        assert space.temperature.values[1] == pytest.approx(1e7)

    def test_from_config_missing_axis(self):
        with pytest.raises(ValueError):
            ParameterSpace.from_config({"temperature": [1e6]})

    def test_from_config_bad_spacing(self):
        with pytest.raises(ValueError):
            ParameterSpace.from_config(
                {"temperature": {"lo": 1, "hi": 2, "n": 2, "spacing": "cubic"},
                 "density": [1.0]}
            )

    def test_from_config_bad_type(self):
        with pytest.raises(TypeError):
            ParameterSpace.from_config({"temperature": 5.0, "density": [1.0]})

    def test_from_simulation_dedupes(self):
        space = ParameterSpace.from_simulation(
            temperatures_k=np.array([1e6, 1e7, 1e6]),
            densities_cm3=np.array([1.0, 1.0]),
            times_s=np.array([0.0, 1.0, 2.0]),
        )
        assert space.shape == (2, 1, 3)

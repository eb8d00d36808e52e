"""Query types."""

from __future__ import annotations

import math

import pytest

from repro.core.queries import KNNQuery, NNQuery, PointQuery, QueryKind, RangeQuery
from repro.spatial.mbr import MBR


class TestKinds:
    def test_point(self):
        q = PointQuery(1.0, 2.0)
        assert q.kind is QueryKind.POINT
        assert q.kind.has_phases
        assert q.focus() == (1.0, 2.0)

    def test_range(self):
        q = RangeQuery(MBR(0, 0, 2, 4))
        assert q.kind is QueryKind.RANGE
        assert q.kind.has_phases
        assert q.focus() == (1.0, 2.0)

    def test_nn_has_no_phases(self):
        q = NNQuery(3.0, 4.0)
        assert q.kind is QueryKind.NEAREST_NEIGHBOR
        assert not q.kind.has_phases
        assert q.focus() == (3.0, 4.0)

    def test_queries_are_hashable_values(self):
        assert PointQuery(1, 2) == PointQuery(1, 2)
        assert len({NNQuery(0, 0), NNQuery(0, 0), NNQuery(1, 0)}) == 2

    def test_point_default_eps_positive(self):
        assert PointQuery(0, 0).eps > 0


class TestValidation:
    """Bad queries fail at construction with a typed error."""

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf)])
    def test_point_rejects_non_finite_coordinates(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            PointQuery(x, y)

    @pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, -math.inf)])
    def test_nn_rejects_non_finite_coordinates(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            NNQuery(x, y)

    def test_knn_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            KNNQuery(math.nan, 0.0, k=3)

    @pytest.mark.parametrize("eps", [-1e-9, math.inf, math.nan])
    def test_point_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            PointQuery(0.0, 0.0, eps=eps)

    def test_range_rejects_non_mbr_rect(self):
        with pytest.raises(TypeError, match="MBR"):
            RangeQuery((0, 0, 1, 1))

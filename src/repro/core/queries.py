"""The three spatial query types of the paper.

Road-atlas operations on line-segment data (section 3):

* :class:`PointQuery` — all segments intersecting a given point ("which
  streets meet at this intersection?").
* :class:`RangeQuery` — all segments intersecting a rectangular window
  ("magnify this portion of the atlas").
* :class:`NNQuery` — the nearest segment to a point ("closest street to this
  landmark").  NN has *no separate filtering and refinement steps* in the
  paper's implementation (branch-and-bound search), so the phase-boundary
  work-partitioning schemes do not apply to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from repro.spatial.geometry import DEFAULT_EPS
from repro.spatial.mbr import MBR

__all__ = [
    "QueryKind",
    "PointQuery",
    "RangeQuery",
    "NNQuery",
    "KNNQuery",
    "Query",
    "query_key",
]


class QueryKind(Enum):
    """Discriminator for the three query types."""

    POINT = "point"
    RANGE = "range"
    NEAREST_NEIGHBOR = "nn"

    @property
    def has_phases(self) -> bool:
        """True when the query has separate filtering/refinement phases."""
        return self is not QueryKind.NEAREST_NEIGHBOR


def _check_point(q) -> None:
    """Reject a query point with a non-finite coordinate."""
    if not (math.isfinite(q.x) and math.isfinite(q.y)):
        raise ValueError(
            f"{type(q).__name__} coordinates must be finite, got "
            f"({q.x!r}, {q.y!r})"
        )


@dataclass(frozen=True)
class PointQuery:
    """All segments passing within ``eps`` of ``(x, y)``."""

    x: float
    y: float
    eps: float = DEFAULT_EPS

    kind = QueryKind.POINT

    def __post_init__(self) -> None:
        _check_point(self)
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps!r}")

    def focus(self) -> tuple[float, float]:
        """The query's anchor point (extraction centers shipments on it)."""
        return (self.x, self.y)


@dataclass(frozen=True)
class RangeQuery:
    """All segments intersecting the window ``rect``."""

    rect: MBR

    kind = QueryKind.RANGE

    def __post_init__(self) -> None:
        if not isinstance(self.rect, MBR):
            raise TypeError(
                f"RangeQuery rect must be an MBR, got {type(self.rect).__name__}"
            )

    def focus(self) -> tuple[float, float]:
        """The window center."""
        return self.rect.center()


@dataclass(frozen=True)
class NNQuery:
    """The segment nearest to ``(x, y)``."""

    x: float
    y: float

    kind = QueryKind.NEAREST_NEIGHBOR

    def __post_init__(self) -> None:
        _check_point(self)

    def focus(self) -> tuple[float, float]:
        """The query point itself."""
        return (self.x, self.y)


@dataclass(frozen=True)
class KNNQuery:
    """The ``k`` segments nearest to ``(x, y)``, nearest first.

    The k-NN generalization of :class:`NNQuery` — one of the "other spatial
    queries" the paper's future work names.  Like NN, it has no separate
    filtering/refinement phases, so only the two "fully at" schemes apply.
    """

    x: float
    y: float
    k: int = 5

    kind = QueryKind.NEAREST_NEIGHBOR

    def __post_init__(self) -> None:
        _check_point(self)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def focus(self) -> tuple[float, float]:
        """The query point itself."""
        return (self.x, self.y)


#: Union of the supported query types.
Query = Union[PointQuery, RangeQuery, NNQuery, KNNQuery]


def query_key(q: Query) -> tuple:
    """A stable identity tuple for one query: kind plus its defining fields.

    This is the hashing/equality contract for every cache keyed on queries
    (the plan cache's workload keys, the batched planner's phase-dedup
    cache): an explicit enumeration of the fields that determine the
    query's answer, rather than ``repr`` formatting, so cache identity can
    never drift with dataclass cosmetics.
    """
    if isinstance(q, PointQuery):
        return ("point", q.x, q.y, q.eps)
    if isinstance(q, RangeQuery):
        r = q.rect
        return ("range", r.xmin, r.ymin, r.xmax, r.ymax)
    if isinstance(q, KNNQuery):
        return ("knn", q.x, q.y, q.k)
    if isinstance(q, NNQuery):
        return ("nn", q.x, q.y)
    raise TypeError(f"unsupported query type {type(q).__name__}")

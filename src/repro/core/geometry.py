"""2-D computational geometry for Performance Envelopes.

Everything the PE needs is convex: hulls of point clouds (Andrew's
monotone chain), intersection of convex polygons (Sutherland–Hodgman
clipping), areas (shoelace) and point-in-polygon tests.  Implemented from
scratch on plain numpy arrays; polygons are (N, 2) float arrays in
counter-clockwise order without a repeated closing vertex.

Degenerate results (fewer than 3 vertices after hull or clipping) are
represented as empty polygons — an envelope cluster that degenerates to a
segment carries no area and contains no points, matching how the paper's
intersection-over-trials naturally discards unstable clusters.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Geometric tolerance for orientation tests, in squared input units.
EPS = 1e-12


class HalfPlanes(NamedTuple):
    """Stacked convex polygons as the half-planes left of their CCW
    edges: each edge's start and vector, (..., H, V, 1), and each
    polygon's membership tolerance, (..., H, 1, 1).  The trailing axis
    broadcasts against a row of points."""

    start_x: np.ndarray
    start_y: np.ndarray
    edge_x: np.ndarray
    edge_y: np.ndarray
    tol: np.ndarray


def _as_points(points: Sequence) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) array, got shape {arr.shape}")
    return arr


def _shifted(values: np.ndarray) -> np.ndarray:
    """``values`` rotated one step left: element i is the old i + 1."""
    return np.concatenate([values[1:], values[:1]])


def convex_hull(points: Sequence) -> np.ndarray:
    """Convex hull via Andrew's monotone chain, CCW order.

    Collinear boundary points are dropped.  Returns an empty (0, 2) array
    for degenerate inputs (fewer than 3 distinct, non-collinear points).
    """
    arr = _as_points(points)
    if len(arr) < 3:
        return np.empty((0, 2))
    # Sort by (x, y) and drop repeated points: equal rows end up adjacent.
    pts = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    if len(pts) < 3:
        return np.empty((0, 2))
    # The chain runs on Python floats: the same IEEE-754 arithmetic as
    # numpy scalars, without their per-operation overhead.
    rows = pts.tolist()

    def half(iterable: Iterable[List[float]]) -> List[List[float]]:
        chain: List[List[float]] = []
        for p in iterable:
            px, py = p
            # Pop on non-left turns with the exact zero threshold: an
            # absolute epsilon here can discard true extreme vertices
            # when a chain is nearly collinear at tiny scales.
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(rows)
    upper = half(reversed(rows))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return np.empty((0, 2))
    return np.array(hull)


def polygon_area(polygon: Sequence) -> float:
    """Shoelace area; 0 for degenerate polygons."""
    poly = _as_points(polygon)
    if len(poly) < 3:
        return 0.0
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * abs(float(np.dot(x, _shifted(y)) - np.dot(y, _shifted(x))))


def polygon_centroid(polygon: Sequence) -> Optional[np.ndarray]:
    """Area centroid of a convex polygon; None when degenerate."""
    poly = _as_points(polygon)
    if len(poly) < 3:
        return None
    x = poly[:, 0]
    y = poly[:, 1]
    next_x, next_y = _shifted(x), _shifted(y)
    cross_terms = x * next_y - next_x * y
    area6 = 3 * (np.sum(cross_terms))
    if abs(area6) < EPS:
        return poly.mean(axis=0)
    cx = float(np.sum((x + next_x) * cross_terms) / area6)
    cy = float(np.sum((y + next_y) * cross_terms) / area6)
    return np.array([cx, cy])


def _ensure_ccw(polygon: np.ndarray) -> np.ndarray:
    x = polygon[:, 0]
    y = polygon[:, 1]
    signed = float(np.dot(x, _shifted(y)) - np.dot(y, _shifted(x)))
    if signed < 0:
        return polygon[::-1]
    return polygon


def convex_intersection(poly_a: Sequence, poly_b: Sequence) -> np.ndarray:
    """Intersection of two convex polygons (Sutherland–Hodgman).

    Returns the (possibly empty) intersection polygon in CCW order.
    """
    a = _as_points(poly_a)
    b = _as_points(poly_b)
    if len(a) < 3 or len(b) < 3:
        return np.empty((0, 2))
    output: List[List[float]] = _ensure_ccw(a).tolist()
    clipper = _ensure_ccw(b).tolist()
    n = len(clipper)
    for i in range(n):
        if not output:
            return np.empty((0, 2))
        ex, ey = clipper[i]
        dx, dy = clipper[(i + 1) % n][0] - ex, clipper[(i + 1) % n][1] - ey
        input_pts = output
        output = []
        prev = input_pts[-1]
        # (edge) x (point - edge start) >= -EPS: on or left of the edge.
        prev_inside = dx * (prev[1] - ey) - dy * (prev[0] - ex) >= -EPS
        for current in input_pts:
            inside = dx * (current[1] - ey) - dy * (current[0] - ex) >= -EPS
            if inside:
                if not prev_inside:
                    output.append(_segment_intersection(prev, current, ex, ey, dx, dy))
                output.append(current)
            elif prev_inside:
                output.append(_segment_intersection(prev, current, ex, ey, dx, dy))
            prev = current
            prev_inside = inside
    if len(output) < 3:
        return np.empty((0, 2))
    result = np.array(output)
    # Clipping can produce duplicate/collinear vertices; re-hull to clean up.
    cleaned = convex_hull(result)
    return cleaned if len(cleaned) >= 3 else np.empty((0, 2))


def _segment_intersection(
    p1: List[float], p2: List[float], qx: float, qy: float, dx: float, dy: float
) -> List[float]:
    """Intersection of line p1p2 with the line through (qx, qy) along
    (dx, dy) (callers guarantee crossing)."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    denom = d1x * dy - d1y * dx
    if abs(denom) < EPS:
        return list(p2)
    t = ((qx - p1[0]) * dy - (qy - p1[1]) * dx) / denom
    return [p1[0] + t * d1x, p1[1] + t * d1y]


def intersect_polygons(polygons: Sequence[Sequence]) -> np.ndarray:
    """Intersection of many convex polygons (the over-trials PE operation)."""
    polys = [(_as_points(p)) for p in polygons]
    if not polys:
        return np.empty((0, 2))
    result = polys[0]
    for poly in polys[1:]:
        result = convex_intersection(result, poly)
        if len(result) < 3:
            return np.empty((0, 2))
    return result


def point_in_convex_polygon(point: Sequence, polygon: Sequence) -> bool:
    """True when ``point`` lies inside or on the convex polygon (either
    orientation)."""
    return bool(points_in_convex_polygon([point], polygon)[0])


def polygon_stack(
    polygons: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """H convex polygons (at least 3 vertices each) as ``(vertices,
    successors, sizes)``.

    ``vertices[h, i]`` is vertex i of polygon h and ``successors[h, i]``
    the vertex after it, both (H, V, 2) for the most vertices V of any
    polygon.  A shorter polygon repeats its closing edge (last vertex to
    first) in the extra slots; a repeated edge changes no membership.
    Both arrays translated by one offset stack the translated polygons.
    An empty stack (H = 0) contains no point.
    """
    sizes = [len(poly) for poly in polygons]
    vertices = np.empty((len(polygons), max(sizes, default=1), 2))
    successors = np.empty_like(vertices)
    for h, (poly, size) in enumerate(zip(polygons, sizes)):
        vertices[h, :size] = poly
        vertices[h, size:] = poly[-1]
        successors[h, : size - 1] = poly[1:]
        successors[h, size - 1 :] = poly[0]
    return vertices, successors, sizes


def half_planes(
    vertices: np.ndarray, successors: np.ndarray, sizes: Sequence[int]
) -> HalfPlanes:
    """Stacked polygons (see :func:`polygon_stack`, with optional leading
    axes before the polygon axis) as the half-planes left of their CCW
    edges, for :func:`points_in_polygons`.

    Each polygon is oriented by the signed-area test of ``_ensure_ccw``,
    the same ``np.dot`` calls on its own vertices, and reversed when
    clockwise.  Edges and tolerances are element-wise, so each polygon's
    half-planes are those it would get alone.
    """
    count = len(sizes)
    flat = vertices.reshape(-1, *vertices.shape[-2:])
    next_x = np.ascontiguousarray(successors[..., 0]).reshape(flat.shape[:2])
    next_y = np.ascontiguousarray(successors[..., 1]).reshape(flat.shape[:2])
    flips = []
    for index, poly in enumerate(flat):
        size = sizes[index % count]
        x, y = poly[:size, 0], poly[:size, 1]
        if float(np.dot(x, next_y[index, :size]) - np.dot(y, next_x[index, :size])) < 0:
            flips.append(index)
    if flips:
        vertices, successors = vertices.copy(), successors.copy()
        flat, flat_next = vertices.reshape(flat.shape), successors.reshape(flat.shape)
        for index in flips:
            size = sizes[index % count]
            poly = flat[index, :size][::-1].copy()
            following = _shifted(poly)
            flat[index, :size], flat[index, size:] = poly, poly[-1]
            flat_next[index, :size], flat_next[index, size:] = following, following[-1]
    start_x = np.ascontiguousarray(vertices[..., 0])
    start_y = np.ascontiguousarray(vertices[..., 1])
    # Membership tolerance relative to the bounding box's area.
    span = vertices.max(axis=-2) - vertices.min(axis=-2)
    tol = -1e-9 * np.maximum(span[..., 0] * span[..., 1], 1e-6)
    return HalfPlanes(
        start_x=start_x[..., None],
        start_y=start_y[..., None],
        edge_x=(successors[..., 0] - start_x)[..., None],
        edge_y=(successors[..., 1] - start_y)[..., None],
        tol=tol[..., None, None],
    )


def points_in_polygons(points: np.ndarray, planes: HalfPlanes) -> np.ndarray:
    """Boolean mask over (..., N, 2) ``points``: inside or on every
    half-plane of at least one stacked polygon.

    Leading axes of ``points`` broadcast against those of ``planes``,
    so B translated copies of the polygons test B point sets at once.
    """
    x = np.ascontiguousarray(points[..., 0])[..., None, None, :]
    y = np.ascontiguousarray(points[..., 1])[..., None, None, :]
    # One (polygons x edges x points) array of cross products, each the
    # edge vector crossed with the point's offset from the edge start:
    # edge_x * (y - start_y) - edge_y * (x - start_x).
    cross = y - planes.start_y
    cross *= planes.edge_x
    other = x - planes.start_x
    other *= planes.edge_y
    cross -= other
    return (cross >= planes.tol).all(axis=-2).any(axis=-2)


def points_in_convex_polygon(points: Sequence, polygon: Sequence) -> np.ndarray:
    """Vectorized membership test: boolean mask over ``points``."""
    pts = _as_points(points)
    poly = _as_points(polygon)
    if len(poly) < 3 or len(pts) == 0:
        return np.zeros(len(pts), dtype=bool)
    return points_in_polygons(pts, half_planes(*polygon_stack([poly])))


def translate_polygon(polygon: Sequence, offset: Sequence) -> np.ndarray:
    """The polygon rigidly shifted by ``offset``."""
    poly = _as_points(polygon)
    return poly + np.asarray(offset, dtype=float)

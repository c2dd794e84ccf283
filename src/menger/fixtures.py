"""Small bundled sample spaces, coordinates, and actions.

These build the input files of the README's library example and of the
command line demos, and back the test suite.  Everything is plain data:
chord metrics are computed in floats, the declared dimension comes from an
explicit simplicial structure.  No command imports this module.
"""

from __future__ import annotations

import math

from .covers import Coords
from .space import FiniteSpace, Perm


def circle_space(n: int, radius: float = 1.0) -> FiniteSpace:
    """n equally spaced points on a circle with the chord metric.

    The declared structure is the n-cycle graph (consecutive edges), so the
    full sample has dimension 1.
    """
    if n < 3:
        raise ValueError("circle needs at least 3 points")
    metric = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = min(j - i, n - (j - i))
            d = 2.0 * radius * math.sin(math.pi * k / n)
            metric[i][j] = d
            metric[j][i] = d
    edges = [frozenset({i, (i + 1) % n}) for i in range(n)]
    return FiniteSpace.create(metric, simplices=edges)


def circle_coords(n: int, radius: float = 1.0) -> Coords:
    """One declared coordinate per circle point: arc position in [0, 2 pi R)."""
    if n < 3:
        raise ValueError("circle needs at least 3 points")
    step = 2.0 * math.pi * radius / n
    return Coords.create(1, [[i * step] for i in range(n)])


def rotation_perm(n: int, step: int) -> Perm:
    return tuple((i + step) % n for i in range(n))


def antipodal_perm(n: int) -> Perm:
    if n % 2 != 0:
        raise ValueError("antipodal map needs an even number of points")
    return rotation_perm(n, n // 2)


def path_space(n: int, length: float = 1.0) -> FiniteSpace:
    """n points evenly spread on a segment, consecutive edges, dimension 1."""
    if n < 2:
        raise ValueError("path needs at least 2 points")
    step = length / (n - 1)
    metric = [[abs(i - j) * step for j in range(n)] for i in range(n)]
    edges = [frozenset({i, i + 1}) for i in range(n - 1)]
    return FiniteSpace.create(metric, simplices=edges)


def path_coords(n: int, length: float = 1.0) -> Coords:
    if n < 2:
        raise ValueError("path needs at least 2 points")
    step = length / (n - 1)
    return Coords.create(1, [[i * step] for i in range(n)])


def grid_space(width: int, height: int, spacing: float = 1.0) -> FiniteSpace:
    """width x height grid with the Euclidean metric, triangulated, dim 2.

    Point (i, j) has index j*width + i; each unit square carries the two
    triangles of its diagonal split.
    """
    if width < 2 or height < 2:
        raise ValueError("grid needs at least 2 points per side")
    pts = [(i * spacing, j * spacing) for j in range(height) for i in range(width)]
    n = len(pts)
    metric = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            d = math.dist(pts[a], pts[b])
            metric[a][b] = d
            metric[b][a] = d
    tris = []
    for j in range(height - 1):
        for i in range(width - 1):
            p = j * width + i
            tris.append(frozenset({p, p + 1, p + width}))
            tris.append(frozenset({p + 1, p + width, p + width + 1}))
    return FiniteSpace.create(metric, simplices=tris)


def grid_coords(width: int, height: int, spacing: float = 1.0) -> Coords:
    if width < 2 or height < 2:
        raise ValueError("grid needs at least 2 points per side")
    pts = [[i * spacing, j * spacing] for j in range(height) for i in range(width)]
    return Coords.create(2, pts)


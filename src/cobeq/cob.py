"""Computational model of oriented 1-dimensional cobordisms.

A boundary is a string over '+'/'-'.  A cobordism between two boundaries is a
perfect matching on the combined endpoints plus a count of closed components.
Gluing numbers the points of both cobordisms on one flat index and composes
the matchings by path following.  Multisets of cobordisms form the
hom-sets of the enriched model, and typed matrices of such multisets form the
biproduct completion in which every diagram equality is decided.  A matrix
stores only its nonzero entries, and its row and column types are the only
record of each entry's boundaries.

All values are immutable with a canonical internal order, so `==` is the
semantic equality and every operation is safe under concurrency.

Values are checked where they enter: the constructors `Cobordism`,
`MultiCob` and `CobMatrix`, and `cobordism`, `multicob` and `matrix`.  The
operations of the algebra build their results from checked operands through
`_trusted`, which runs no check; the tests rebuild such results through the
constructors.  The model is strictly unital, so composing a multiset with
the singleton of an identity cobordism returns the other operand unchanged.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar
from types import MappingProxyType

Boundary = str

_FLIP = str.maketrans("+-", "-+")


def flip(b: Boundary) -> Boundary:
    """The same points with reversed orientation."""
    return b.translate(_FLIP)


def _canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((i, j) if i < j else (j, i) for i, j in pairs))


def _moved(pairs, to) -> list[tuple[int, int]]:
    """The pairs with every point p renamed to[p]."""
    return [(to[i], to[j]) for i, j in pairs]


def _trusted(cls, *fields):
    """A `cls` value with its fields set, in declaration order, to `fields`,
    without running `__post_init__`: for values the algebra builds from
    values already checked, which its laws keep valid."""
    x = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(x, name, value)
    return x


@dataclass(frozen=True, slots=True)
class Cobordism:
    """A boundary matching with a closed-component count.

    Matching pairs use flattened indices: source points first (0..len(source)-1)
    then target points.  Pairs within one side join opposite signs; pairs
    across sides join equal signs.
    """

    source: Boundary
    target: Boundary
    pairs: tuple[tuple[int, int], ...]
    circles: int = 0

    def __post_init__(self):
        ns = len(self.source)
        n = ns + len(self.target)
        seen = [False] * n
        prev = (-1, -1)
        for p in self.pairs:
            i, j = p
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i},{j}) for {n} points")
            if seen[i] or seen[j]:
                raise ValueError(f"point matched twice in {self.pairs}")
            if p < prev:
                raise ValueError("pairs not in canonical order")
            seen[i] = seen[j] = True
            prev = p
            si = self.source[i] if i < ns else self.target[i - ns]
            sj = self.source[j] if j < ns else self.target[j - ns]
            same_side = (i < ns) == (j < ns)
            if same_side and si == sj:
                raise ValueError(f"same-side pair ({i},{j}) must join opposite signs")
            if not same_side and si != sj:
                raise ValueError(f"cross-side pair ({i},{j}) must join equal signs")
        if not all(seen):
            raise ValueError("matching is not perfect")
        if self.circles < 0:
            raise ValueError("negative circle count")

    def sort_key(self):
        return (self.pairs, self.circles)


def cobordism(source: Boundary, target: Boundary, pairs, circles: int = 0) -> Cobordism:
    """Build a cobordism, normalizing the pair order."""
    return Cobordism(source, target, _canonical_pairs(pairs), circles)


def _identity_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(zip(range(n), range(n, 2 * n)))


def identity_cob(b: Boundary) -> Cobordism:
    return _trusted(Cobordism, b, b, _identity_pairs(len(b)), 0)


def _check_glue(g: Cobordism, f: Cobordism) -> None:
    if f.target != g.source:
        raise ValueError(f"cannot glue: {f.target!r} vs {g.source!r}")


def glue(g: Cobordism, f: Cobordism) -> Cobordism:
    """The composite g after f, following paths through the shared boundary.

    Points are numbered on one flat index: f's source, the shared points,
    then g's target.  A path from an outer point alternates between f and g
    until it leaves at another outer point; the shared points no such path
    visits lie on closed paths, and each closed path becomes a circle.
    """
    _check_glue(g, f)
    na, nb = len(f.source), len(f.target)
    n = na + nb + len(g.target)
    f_to, g_to = [0] * n, [0] * n
    for to, moved in ((f_to, f.pairs), (g_to, _moved(g.pairs, range(na, n)))):
        for i, j in moved:
            to[i], to[j] = j, i
    shared = range(na, na + nb)
    seen = [False] * n
    pairs, circles = [], f.circles + g.circles
    # outer points in index order first, so each start is its pair's smaller end
    for p in (*range(na), *range(na + nb, n), *shared):
        if seen[p]:
            continue
        in_f = p < na + nb
        q = (f_to if in_f else g_to)[p]
        while q != p and q in shared:
            seen[q] = True
            in_f = not in_f
            q = (f_to if in_f else g_to)[q]
        seen[q] = True
        if q == p:
            circles += 1
        else:
            pairs.append((p, q))
    # g's target points close the gap the shared points leave
    return _trusted(Cobordism, f.source, g.target, _canonical_pairs(
        _moved(pairs, (*range(na + nb), *range(na, n - nb)))), circles)


def tensor_cob(f: Cobordism, g: Cobordism) -> Cobordism:
    """Side-by-side disjoint union; circle counts add."""
    nsf, ntf = len(f.source), len(f.target)
    ns = nsf + len(g.source)
    n = ns + ntf + len(g.target)
    pairs = _moved(f.pairs, (*range(nsf), *range(ns, ns + ntf)))
    pairs += _moved(g.pairs, (*range(nsf, ns), *range(ns + ntf, n)))
    return _trusted(Cobordism, f.source + g.source, f.target + g.target,
                    _canonical_pairs(pairs), f.circles + g.circles)


def _swap_roles(f: Cobordism) -> tuple[tuple[int, int], ...]:
    # old source point i becomes new target point i, and vice versa
    ns, nt = len(f.source), len(f.target)
    return _canonical_pairs(_moved(f.pairs, (*range(nt, nt + ns), *range(nt))))


def dagger_cob(f: Cobordism) -> Cobordism:
    """Orientation reversal: swaps source and target, signs unchanged."""
    return _trusted(Cobordism, f.target, f.source, _swap_roles(f), f.circles)


def dual_cob(f: Cobordism) -> Cobordism:
    """The dual flip(target) -> flip(source): same manifold, every boundary
    point reread with the opposite orientation on the other side."""
    return _trusted(Cobordism, flip(f.target), flip(f.source), _swap_roles(f),
                    f.circles)


# ---------------------------------------------------------------------------
# Multisets of cobordisms


@dataclass(frozen=True, slots=True)
class MultiCob:
    """A finite multiset of cobordisms sharing source and target.

    Elements are kept sorted so equality and hashing are structural.  The
    boundaries are those of the elements; the empty multiset `ZERO` is the
    zero arrow between any two boundaries, which the matrix cell holding it
    fixes.
    """

    elements: tuple[Cobordism, ...]

    def __post_init__(self):
        for a, b in zip(self.elements, self.elements[1:]):
            if a.source != b.source or a.target != b.target:
                raise ValueError("multiset element with mismatched boundaries")
            if a.sort_key() > b.sort_key():
                raise ValueError("multiset elements not in canonical order")

    def __len__(self) -> int:
        return len(self.elements)


ZERO = MultiCob(())


def _sorted(elements) -> tuple[Cobordism, ...]:
    return tuple(sorted(elements, key=Cobordism.sort_key))


def multicob(elements) -> MultiCob:
    return MultiCob(_sorted(elements))


def singleton(c: Cobordism) -> MultiCob:
    return _trusted(MultiCob, (c,))


def mc_add(x: MultiCob, y: MultiCob) -> MultiCob:
    if x.elements and y.elements:
        a, b = x.elements[0], y.elements[0]
        if a.source != b.source or a.target != b.target:
            raise ValueError("multiset element with mismatched boundaries")
    return _trusted(MultiCob, _sorted(x.elements + y.elements))


def _is_unit(x: MultiCob) -> bool:
    """Whether x is the singleton of an identity cobordism; O(1) unless x is
    a singleton without circles whose source and target are equal."""
    if len(x.elements) != 1:
        return False
    c = x.elements[0]
    return (not c.circles and c.source == c.target
            and c.pairs == _identity_pairs(len(c.source)))


def mc_compose(g: MultiCob, f: MultiCob) -> MultiCob:
    """Every composite of an element of g after an element of f.  By the unit
    laws, an identity operand gives back the other one."""
    if not (g.elements and f.elements):
        return ZERO
    for unit, other in ((g, f), (f, g)):
        if _is_unit(unit):
            _check_glue(g.elements[0], f.elements[0])
            return other
    return _trusted(MultiCob, _sorted(
        glue(cg, cf) for cg in g.elements for cf in f.elements))


def mc_tensor(x: MultiCob, y: MultiCob) -> MultiCob:
    return _trusted(MultiCob, _sorted(
        tensor_cob(cx, cy) for cx in x.elements for cy in y.elements))


def mc_dagger(x: MultiCob) -> MultiCob:
    return _trusted(MultiCob, _sorted(dagger_cob(c) for c in x.elements))


def mc_dual(x: MultiCob) -> MultiCob:
    return _trusted(MultiCob, _sorted(dual_cob(c) for c in x.elements))


# ---------------------------------------------------------------------------
# Typed matrices


@dataclass(frozen=True)
class Matrix:
    """A matrix that stores only its nonzero entries: `cells` maps (i, j) to
    the entry from col_types[j] to row_types[i].  `entries` is the dense
    grid, with the subclass's `zero` in the other cells.  Zero rows or
    columns are allowed."""

    row_types: tuple
    col_types: tuple
    cells: Mapping[tuple[int, int], object]
    zero: ClassVar = None

    def __post_init__(self):
        object.__setattr__(self, "cells", MappingProxyType(self.cells))

    def __hash__(self):
        return hash((self.row_types, self.col_types, frozenset(self.cells.items())))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_types), len(self.col_types))

    @property
    def entries(self) -> tuple[tuple, ...]:
        grid = [[self.zero] * len(self.col_types) for _ in self.row_types]
        for (i, j), e in self.cells.items():
            grid[i][j] = e
        return tuple(map(tuple, grid))


class CobMatrix(Matrix):
    """A matrix of multisets: cell (i, j) is a nonempty multiset of
    cobordisms from col_types[j] to row_types[i], and `ZERO` fills the
    other entries."""

    zero = ZERO

    def __post_init__(self):
        m, n = self.shape
        for (i, j), e in self.cells.items():
            if not (0 <= i < m and 0 <= j < n and e.elements and
                    (e.elements[0].source, e.elements[0].target)
                    == (self.col_types[j], self.row_types[i])):
                raise ValueError(f"cell ({i},{j}) of a {m}x{n} matrix is out of "
                                 f"range, zero or has the wrong boundaries")
        super().__post_init__()


def _cob_matrix(row_types: tuple, col_types: tuple, cells: dict) -> CobMatrix:
    """The matrix of cells the algebra built, unchecked (see `_trusted`)."""
    return _trusted(CobMatrix, row_types, col_types, MappingProxyType(cells))


def matrix(row_types, col_types, entries) -> CobMatrix:
    """The matrix of a dense grid, checking its shape and every entry's type."""
    grid = tuple(map(tuple, entries))
    m = CobMatrix(tuple(row_types), tuple(col_types),
                  {(i, j): e for i, row in enumerate(grid)
                   for j, e in enumerate(row) if e.elements})
    if m.entries != grid:
        raise ValueError("grid shape does not fit the types")
    return m


# ---------------------------------------------------------------------------
# Grid routines, shared with the term matrices of `interp.normalize_syntactic`.
# Each routine visits only the stored cells of its `Matrix` operands and
# returns the nonzero cells of its result as a dict (i, j) -> entry.


def grid_product(g, f, mul, add) -> dict:
    """Matrix product g . f: cell (i, j) sums mul(g[i][k], f[k][j]) over k."""
    f_rows = [[] for _ in range(f.shape[0])]
    for (k, j), fe in f.cells.items():
        f_rows[k].append((j, fe))
    acc: dict = {}
    for (i, k), ge in g.cells.items():
        for j, fe in f_rows[k]:
            e = mul(ge, fe)
            acc[i, j] = add(acc[i, j], e) if (i, j) in acc else e
    return acc


def grid_sum(x, y, add) -> dict:
    acc = dict(x.cells)
    for ij, e in y.cells.items():
        acc[ij] = add(acc[ij], e) if ij in acc else e
    return acc


def grid_kron(x_cells, y, op) -> dict:
    """Kronecker product: nonzero cell ((i1, j1), a) of the left factor and
    ((i2, j2), b) of y give op(a, b) at (i1 * m + i2, j1 * n + j2), where y is
    m x n.  Tensor, hom and whisker all take this form."""
    m, n = y.shape
    y_cells = y.cells.items()
    return {(i1 * m + i2, j1 * n + j2): op(a, b)
            for (i1, j1), a in x_cells for (i2, j2), b in y_cells}


def grid_dsum(x, y) -> dict:
    """Block diagonal: x top left, y bottom right."""
    m, n = x.shape
    cells = dict(x.cells)
    cells.update(((m + i, n + j), e) for (i, j), e in y.cells.items())
    return cells


# ---------------------------------------------------------------------------
# Matrix operations


def zero_matrix(row_types, col_types) -> CobMatrix:
    return _cob_matrix(tuple(row_types), tuple(col_types), {})


def identity_matrix(types) -> CobMatrix:
    types = tuple(types)
    return _cob_matrix(types, types, {(i, i): singleton(identity_cob(t))
                                      for i, t in enumerate(types)})


def mat_compose(g: CobMatrix, f: CobMatrix) -> CobMatrix:
    if g.col_types != f.row_types:
        raise ValueError(f"cannot compose {g.shape} after {f.shape}: "
                         f"middle types {g.col_types!r} vs {f.row_types!r}")
    return _cob_matrix(g.row_types, f.col_types,
                       grid_product(g, f, mc_compose, mc_add))


def mat_add(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    if x.row_types != y.row_types or x.col_types != y.col_types:
        raise ValueError("matrix sum needs identical types")
    return _cob_matrix(x.row_types, x.col_types, grid_sum(x, y, mc_add))


def mat_tensor(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    return _cob_matrix(tuple(rx + ry for rx in x.row_types for ry in y.row_types),
                       tuple(cx + cy for cx in x.col_types for cy in y.col_types),
                       grid_kron(x.cells.items(), y, mc_tensor))


def mat_hom(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    """Kronecker combination over (x transposed, y) with the entry operation
    dual(x entry) tensor (y entry)."""
    return _cob_matrix(
        tuple(flip(c) + ry for c in x.col_types for ry in y.row_types),
        tuple(flip(r) + cy for r in x.row_types for cy in y.col_types),
        grid_kron([((j, i), mc_dual(e)) for (i, j), e in x.cells.items()],
                  y, mc_tensor))


def mat_dsum(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    return _cob_matrix(x.row_types + y.row_types, x.col_types + y.col_types,
                       grid_dsum(x, y))


def mat_dagger(x: CobMatrix) -> CobMatrix:
    return _cob_matrix(x.col_types, x.row_types,
                       {(j, i): mc_dagger(e) for (i, j), e in x.cells.items()})


def cardinality(x: CobMatrix) -> tuple[tuple[int, ...], ...]:
    """Entrywise multiset sizes."""
    return tuple(tuple(len(e) for e in row) for row in x.entries)


# ---------------------------------------------------------------------------
# Serialization (deterministic field order, byte-stable for equal values)


def matrix_to_json(x: CobMatrix) -> dict:
    return {
        "shape": [len(x.row_types), len(x.col_types)],
        "row_types": list(x.row_types),
        "col_types": list(x.col_types),
        "entries": [
            [[{"pairs": [list(p) for p in c.pairs], "circles": c.circles}
              for c in e.elements]
             for e in row]
            for row in x.entries
        ],
    }


def _entry_text(e: MultiCob) -> str:
    if not e.elements:
        return "(zero)"
    return ", ".join(
        "{pairs=[" + ",".join(f"({i},{j})" for i, j in c.pairs)
        + f"]; circles={c.circles}}}"
        for c in e.elements
    )


def matrix_to_text(x: CobMatrix) -> str:
    lines = [f"cobmatrix {len(x.row_types)}x{len(x.col_types)}"]
    lines.append("rows: " + ", ".join(json.dumps(t) for t in x.row_types))
    lines.append("cols: " + ", ".join(json.dumps(t) for t in x.col_types))
    for i, row in enumerate(x.entries):
        for j, e in enumerate(row):
            lines.append(f"entry {i} {j}: {_entry_text(e)}")
    return "\n".join(lines)

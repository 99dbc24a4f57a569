"""Computational model of oriented 1-dimensional cobordisms.

A boundary is a string over '+'/'-'.  A cobordism between two boundaries is a
perfect matching on the combined endpoints plus a count of closed components;
gluing composes matchings by path following.  Multisets of cobordisms form the
hom-sets of the enriched model, and typed matrices of such multisets form the
biproduct completion in which every diagram equality is decided.

All values are immutable with a canonical internal order, so `==` is the
semantic equality and every operation is safe under concurrency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

Boundary = str

_FLIP = str.maketrans("+-", "-+")


def flip(b: Boundary) -> Boundary:
    """The same points with reversed orientation."""
    return b.translate(_FLIP)


def _canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
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
        for i, j in self.pairs:
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i},{j}) for {n} points")
            if seen[i] or seen[j]:
                raise ValueError(f"point matched twice in {self.pairs}")
            seen[i] = seen[j] = True
            si = self.source[i] if i < ns else self.target[i - ns]
            sj = self.source[j] if j < ns else self.target[j - ns]
            same_side = (i < ns) == (j < ns)
            if same_side and si == sj:
                raise ValueError(f"same-side pair ({i},{j}) must join opposite signs")
            if not same_side and si != sj:
                raise ValueError(f"cross-side pair ({i},{j}) must join equal signs")
        if not all(seen):
            raise ValueError("matching is not perfect")
        if self.pairs != _canonical_pairs(self.pairs):
            raise ValueError("pairs not in canonical order")
        if self.circles < 0:
            raise ValueError("negative circle count")

    def sort_key(self):
        return (self.pairs, self.circles)


def cobordism(source: Boundary, target: Boundary, pairs, circles: int = 0) -> Cobordism:
    """Build a cobordism, normalizing the pair order."""
    return Cobordism(source, target, _canonical_pairs(pairs), circles)


def identity_cob(b: Boundary) -> Cobordism:
    n = len(b)
    return Cobordism(b, b, tuple((i, n + i) for i in range(n)))


def glue(g: Cobordism, f: Cobordism) -> Cobordism:
    """The composite g after f, following paths through the shared boundary.

    Closed paths confined to the shared boundary become circles.
    """
    if f.target != g.source:
        raise ValueError(f"cannot glue: {f.target!r} vs {g.source!r}")
    na, nb, nc = len(f.source), len(f.target), len(g.target)
    f_partner: dict[int, int] = {}
    for i, j in f.pairs:
        f_partner[i], f_partner[j] = j, i
    g_partner: dict[int, int] = {}
    for i, j in g.pairs:
        g_partner[i], g_partner[j] = j, i

    # labels: ('a', i) outer source, ('m', k) shared, ('c', j) outer target
    def f_step(label):
        p = f_partner[label[1] if label[0] == "a" else na + label[1]]
        return ("a", p) if p < na else ("m", p - na)

    def g_step(label):
        p = g_partner[nb + label[1] if label[0] == "c" else label[1]]
        return ("m", p) if p < nb else ("c", p - nb)

    def flat(label):
        return label[1] if label[0] == "a" else na + label[1]

    new_pairs = []
    done = set()
    seen_middle = set()
    for start in [("a", i) for i in range(na)] + [("c", j) for j in range(nc)]:
        if start in done:
            continue
        cur = start
        in_f = start[0] == "a"
        while True:
            cur = f_step(cur) if in_f else g_step(cur)
            if cur[0] != "m":
                break
            seen_middle.add(cur[1])
            in_f = not in_f
        done.add(start)
        done.add(cur)
        new_pairs.append((flat(start), flat(cur)))

    circles = f.circles + g.circles
    for k in range(nb):
        if k in seen_middle:
            continue
        circles += 1
        cur, in_f = ("m", k), True
        while True:
            seen_middle.add(cur[1])
            cur = f_step(cur) if in_f else g_step(cur)
            in_f = not in_f
            if cur == ("m", k) and in_f:
                break

    return cobordism(f.source, g.target, new_pairs, circles)


def tensor_cob(f: Cobordism, g: Cobordism) -> Cobordism:
    """Side-by-side disjoint union; circle counts add."""
    nsf, ntf = len(f.source), len(f.target)
    nsg = len(g.source)
    ns = nsf + nsg

    def remap_f(i):
        return i if i < nsf else ns + (i - nsf)

    def remap_g(i):
        return nsf + i if i < nsg else ns + ntf + (i - nsg)

    pairs = [(remap_f(i), remap_f(j)) for i, j in f.pairs]
    pairs += [(remap_g(i), remap_g(j)) for i, j in g.pairs]
    return cobordism(f.source + g.source, f.target + g.target, pairs,
                     f.circles + g.circles)


def _swap_roles(f: Cobordism) -> tuple[tuple[int, int], ...]:
    # old source point i becomes new target point i, and vice versa
    ns, nt = len(f.source), len(f.target)

    def remap(i):
        return nt + i if i < ns else i - ns

    return _canonical_pairs((remap(i), remap(j)) for i, j in f.pairs)


def dagger_cob(f: Cobordism) -> Cobordism:
    """Orientation reversal: swaps source and target, signs unchanged."""
    return Cobordism(f.target, f.source, _swap_roles(f), f.circles)


def dual_cob(f: Cobordism) -> Cobordism:
    """The dual flip(target) -> flip(source): same manifold, every boundary
    point reread with the opposite orientation on the other side."""
    return Cobordism(flip(f.target), flip(f.source), _swap_roles(f), f.circles)


# ---------------------------------------------------------------------------
# Multisets of cobordisms


@dataclass(frozen=True)
class MultiCob:
    """A finite multiset of cobordisms sharing source and target.

    Elements are kept sorted so equality and hashing are structural; the
    empty multiset is the zero arrow.
    """

    source: Boundary
    target: Boundary
    elements: tuple[Cobordism, ...]

    def __post_init__(self):
        for c in self.elements:
            if c.source != self.source or c.target != self.target:
                raise ValueError("multiset element with mismatched boundaries")
        keys = [c.sort_key() for c in self.elements]
        if keys != sorted(keys):
            raise ValueError("multiset elements not in canonical order")

    def __len__(self) -> int:
        return len(self.elements)


def multicob(source: Boundary, target: Boundary, elements) -> MultiCob:
    return MultiCob(source, target,
                    tuple(sorted(elements, key=Cobordism.sort_key)))


@lru_cache(maxsize=None)
def empty_multicob(source: Boundary, target: Boundary) -> MultiCob:
    return MultiCob(source, target, ())


def singleton(c: Cobordism) -> MultiCob:
    return MultiCob(c.source, c.target, (c,))


def mc_add(x: MultiCob, y: MultiCob) -> MultiCob:
    if (x.source, x.target) != (y.source, y.target):
        raise ValueError("multiset union needs equal boundaries")
    if not x.elements:
        return y
    if not y.elements:
        return x
    return multicob(x.source, x.target, x.elements + y.elements)


def mc_compose(g: MultiCob, f: MultiCob) -> MultiCob:
    if not g.elements or not f.elements:
        return empty_multicob(f.source, g.target)
    return multicob(f.source, g.target,
                    (glue(cg, cf) for cg in g.elements for cf in f.elements))


def mc_tensor(x: MultiCob, y: MultiCob) -> MultiCob:
    if not x.elements or not y.elements:
        return empty_multicob(x.source + y.source, x.target + y.target)
    return multicob(x.source + y.source, x.target + y.target,
                    (tensor_cob(cx, cy) for cx in x.elements for cy in y.elements))


def mc_dagger(x: MultiCob) -> MultiCob:
    return multicob(x.target, x.source, (dagger_cob(c) for c in x.elements))


def mc_dual(x: MultiCob) -> MultiCob:
    return multicob(flip(x.target), flip(x.source),
                    (dual_cob(c) for c in x.elements))


# ---------------------------------------------------------------------------
# Typed matrices


@dataclass(frozen=True)
class CobMatrix:
    """A grid of multisets, entry [i][j] running from col_types[j] to
    row_types[i].  Zero rows or columns are allowed."""

    row_types: tuple[Boundary, ...]
    col_types: tuple[Boundary, ...]
    entries: tuple[tuple[MultiCob, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_types):
            raise ValueError("row count does not match row types")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_types):
                raise ValueError("column count does not match column types")
            for j, e in enumerate(row):
                if e.source != self.col_types[j] or e.target != self.row_types[i]:
                    raise ValueError(f"entry ({i},{j}) has boundaries "
                                     f"{e.source!r} -> {e.target!r}, expected "
                                     f"{self.col_types[j]!r} -> {self.row_types[i]!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_types), len(self.col_types))


def matrix(row_types, col_types, entries) -> CobMatrix:
    return CobMatrix(tuple(row_types), tuple(col_types),
                     tuple(tuple(row) for row in entries))


def zero_matrix(row_types, col_types) -> CobMatrix:
    return matrix(row_types, col_types,
                  ((empty_multicob(c, r) for c in col_types) for r in row_types))


def identity_matrix(types) -> CobMatrix:
    types = tuple(types)
    return matrix(types, types,
                  ((singleton(identity_cob(r)) if i == j else empty_multicob(c, r)
                    for j, c in enumerate(types))
                   for i, r in enumerate(types)))


def mat_compose(g: CobMatrix, f: CobMatrix) -> CobMatrix:
    if g.col_types != f.row_types:
        raise ValueError(f"cannot compose {g.shape} after {f.shape}: "
                         f"middle types {g.col_types!r} vs {f.row_types!r}")
    # sparse accumulation: only nonzero g-entries meet nonzero f-entries
    f_row_nz = [[j for j, e in enumerate(row) if e.elements]
                for row in f.entries]
    acc: dict[tuple[int, int], MultiCob] = {}
    for i, grow in enumerate(g.entries):
        for k, ge in enumerate(grow):
            if not ge.elements:
                continue
            for j in f_row_nz[k]:
                prod = mc_compose(ge, f.entries[k][j])
                key = (i, j)
                acc[key] = mc_add(acc[key], prod) if key in acc else prod
    return matrix(g.row_types, f.col_types,
                  (tuple(acc.get((i, j), empty_multicob(c, r))
                         for j, c in enumerate(f.col_types))
                   for i, r in enumerate(g.row_types)))


def mat_add(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    if x.row_types != y.row_types or x.col_types != y.col_types:
        raise ValueError("matrix sum needs identical types")
    return matrix(x.row_types, x.col_types,
                  ((mc_add(a, b) for a, b in zip(rx, ry))
                   for rx, ry in zip(x.entries, y.entries)))


def mat_tensor(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    m2, n2 = y.shape
    rows = tuple(rx + ry for rx in x.row_types for ry in y.row_types)
    cols = tuple(cx + cy for cx in x.col_types for cy in y.col_types)
    left = [[e if e.elements else None for e in row] for row in x.entries]
    grid = []
    for i, r in enumerate(rows):
        i1, i2 = divmod(i, m2)
        row = []
        for j, c in enumerate(cols):
            j1, j2 = divmod(j, n2)
            xe, ye = left[i1][j1], y.entries[i2][j2]
            row.append(mc_tensor(xe, ye) if xe is not None and ye.elements
                       else empty_multicob(c, r))
        grid.append(tuple(row))
    return matrix(rows, cols, grid)


def mat_hom(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    """Kronecker combination over (x transposed, y) with the entry operation
    dual(x entry) tensor (y entry)."""
    xt_rows = tuple(flip(c) for c in x.col_types)
    xt_cols = tuple(flip(r) for r in x.row_types)
    m2, n2 = y.shape
    rows = tuple(rx + ry for rx in xt_rows for ry in y.row_types)
    cols = tuple(cx + cy for cx in xt_cols for cy in y.col_types)
    # dualize each nonzero source entry once, not per Kronecker cell
    dual = [[mc_dual(e) if e.elements else None for e in row]
            for row in x.entries]
    grid = []
    for i, r in enumerate(rows):
        i1, i2 = divmod(i, m2)
        row = []
        for j, c in enumerate(cols):
            j1, j2 = divmod(j, n2)
            xe, ye = dual[j1][i1], y.entries[i2][j2]
            row.append(mc_tensor(xe, ye) if xe is not None and ye.elements
                       else empty_multicob(c, r))
        grid.append(tuple(row))
    return matrix(rows, cols, grid)


def mat_dsum(x: CobMatrix, y: CobMatrix) -> CobMatrix:
    rows = x.row_types + y.row_types
    cols = x.col_types + y.col_types
    nxr, nxc = x.shape
    grid = tuple(
        tuple(
            (x.entries[i][j] if i < nxr and j < nxc
             else y.entries[i - nxr][j - nxc] if i >= nxr and j >= nxc
             else empty_multicob(cols[j], rows[i]))
            for j in range(len(cols)))
        for i in range(len(rows))
    )
    return matrix(rows, cols, grid)


def mat_dagger(x: CobMatrix) -> CobMatrix:
    return matrix(x.col_types, x.row_types,
                  ((mc_dagger(x.entries[i][j]) for i in range(len(x.row_types)))
                   for j in range(len(x.col_types))))


def equal(x: CobMatrix, y: CobMatrix) -> bool:
    """Decidable equality: same types and entrywise equal multisets."""
    return x == y


def cardinality(x: CobMatrix) -> tuple[tuple[int, ...], ...]:
    """Entrywise multiset sizes.  Homomorphic for all six matrix operations,
    so `decide.card_matrix` can compute it from a term without building the
    combinators' cobordism matrices."""
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

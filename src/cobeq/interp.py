"""Evaluation of the diagram language into matrices of cobordism multisets,
plus the purely syntactic matrix normalizer and the direct-definition entry
oracle used to cross-validate the evaluator.

Both matrix algebras are built from the same parts.  `generator_cells`
gives the nonzero pattern of every generator once, over the components of
its object arguments; the combinators are the grid routines of `cob`.  The
evaluator `interpret_arrow` takes components to be boundaries and fills each
generator cell with a wire, cap or cup cobordism.  The normalizer takes
components to be the direct-sum-free components of `decompose` and fills
each cell with the generator applied to them.  `entry_oracle` instead
computes single entries from first principles, by sandwiching the term
between projection and injection terms, and must agree with the evaluator
entry by entry.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .biproduct import Valuation, decompose, valuation
from .cob import (
    Boundary, CobMatrix, Cobordism, Matrix, MultiCob, _cob_matrix, _trusted,
    flip, grid_dsum, grid_kron, grid_product, grid_sum, identity_cob,
    identity_matrix, mat_add, mat_compose, mat_dagger, mat_dsum, mat_hom,
    mat_tensor, singleton,
)
from .syntax import (
    Alpha, AlphaInv, Arrow, Compose, Dagger, Dual, Eps, EpsC, Eta, EtaC,
    Gen, Hom, HomMap, Id, Inj1, Inj2, Lambda, LambdaInv, Mode, ModeViolation,
    Obj, Oplus, OplusMap, Plus, Proj1, Proj2, Sigma, Tensor, TensorMap, Unit,
    Whisker, Zero, ZeroMap, _fold, check_mode, check_object_mode,
    expand_derived, infer_type, render_arrow, render_object,
)


# ---------------------------------------------------------------------------
# Objects


def interpret_object(a: Obj, mode: Mode | None = None) -> tuple[Boundary, ...]:
    """The boundary sequence denoted by a formula.

    Generators become a single positive point, the unit a single empty
    boundary, the zero object the empty sequence.  Tensor and hom pair
    components in row-major order (hom flipping the left factor), direct
    sums concatenate, duals flip componentwise.  When `mode` is given the
    formula is checked for dialect legality first.
    """
    if mode is not None:
        check_object_mode(a, mode)
    return _object_value(a)


@cache
def _object_value(a: Obj) -> tuple[Boundary, ...]:
    match a:
        case Gen():
            return ("+",)
        case Unit():
            return ("",)
        case Zero():
            return ()
        case Tensor(l, r):
            return tuple(s + t for s in interpret_object(l) for t in interpret_object(r))
        case Oplus(l, r):
            return interpret_object(l) + interpret_object(r)
        case Hom(l, r):
            return tuple(flip(s) + t for s in interpret_object(l) for t in interpret_object(r))
        case Dual(x):
            return tuple(flip(s) for s in interpret_object(x))
        case _:
            raise ValueError(f"unknown object node {a!r}")


@cache
def live_components(a: Obj) -> tuple[int, ...]:
    """Indices of the components that contribute a boundary to the
    interpreted object (the 0-valued ones contribute none)."""
    return tuple(i for i, c in enumerate(decompose(a).components)
                 if valuation(c) is not Valuation.ZERO_VALUED)


# ---------------------------------------------------------------------------
# Generator cobordisms


def _swap_block(b1: Boundary, b2: Boundary) -> Cobordism:
    n1, n2 = len(b1), len(b2)
    off = n1 + n2
    pairs = [(i, off + n2 + i) for i in range(n1)]
    pairs += [(n1 + q, off + q) for q in range(n2)]
    return _trusted(Cobordism, b1 + b2, b2 + b1, tuple(sorted(pairs)), 0)


def _cap_block(a: Boundary, wires: Boundary) -> Cobordism:
    # wires -> flip(a) + a + wires
    ns, la = len(wires), len(a)
    pairs = [(ns + t, ns + la + t) for t in range(la)]
    pairs += [(q, ns + 2 * la + q) for q in range(ns)]
    return _trusted(Cobordism, wires, flip(a) + a + wires, tuple(sorted(pairs)), 0)


def _cup_block(a: Boundary, wires: Boundary) -> Cobordism:
    # a + flip(a) + wires -> wires
    ns, la = 2 * len(a) + len(wires), len(a)
    pairs = [(p, la + p) for p in range(la)]
    pairs += [(2 * la + q, ns + q) for q in range(len(wires))]
    return _trusted(Cobordism, a + flip(a) + wires, wires, tuple(sorted(pairs)), 0)


#: cobordism of a nonzero cell of each cap, cup and swap generator, from its
#: component boundaries; the cells of every other generator are identities
_CELL_COBS = {Sigma: _swap_block, Eta: _cap_block, Eps: _cup_block,
              EtaC: lambda a: _cap_block(a, ""), EpsC: lambda a: _cup_block(a, "")}


def generator_cells(t: Arrow, comps) -> list[tuple[int, int, tuple]]:
    """The nonzero cells of a generator's matrix as (row, col, args), where
    `args` are the components of its object arguments that the cell joins.

    `comps` maps an object to its component sequence.  Rows and columns are
    `comps` of the target and of the source, row-major over tensor and hom
    factors and concatenated over direct sums.
    """
    match t:
        case Id(a) | Lambda(a) | LambdaInv(a) | Inj1(a, _) | Proj1(a, _):
            cells = [(i, i, (x,)) for i, x in enumerate(comps(a))]
        case Alpha(a, b, c) | AlphaInv(a, b, c):
            cells = [(k, k, xyz) for k, xyz in
                     enumerate(product(comps(a), comps(b), comps(c)))]
        case Sigma(a, b):
            ca, cb = comps(a), comps(b)
            cells = [(j * len(ca) + i, i * len(cb) + j, (x, y))
                     for i, x in enumerate(ca) for j, y in enumerate(cb)]
        case Eta(a, b) | Eps(a, b):
            # a -o (a (x) b): the two copies of a take the same component
            ca, cb = comps(a), comps(b)
            cells = [((i * len(ca) + i) * len(cb) + j, j, (x, y))
                     for i, x in enumerate(ca) for j, y in enumerate(cb)]
        case EtaC(a) | EpsC(a):
            ca = comps(a)
            cells = [(i * len(ca) + i, 0, (x,)) for i, x in enumerate(ca)]
        case Inj2(a, b) | Proj2(a, b):
            n = len(comps(a))
            cells = [(n + j, j, (y,)) for j, y in enumerate(comps(b))]
        case ZeroMap():
            cells = []
        case _:
            raise ValueError(f"not a generator: {t!r}")
    if isinstance(t, (Eps, EpsC, Proj2)):  # the transposes of Eta, EtaC, Inj2
        return [(j, i, args) for i, j, args in cells]
    return cells


# ---------------------------------------------------------------------------
# Arrows


def interpret_arrow(t: Arrow, mode: Mode | None = None) -> CobMatrix:
    """The matrix denoted by a well-typed term.

    Derived forms need no pre-expansion: sugar kinds evaluate directly to
    the matrices of their expansions.  When `mode` is given the term is
    checked for dialect legality first.
    """
    if mode is not None:
        check_mode(t, mode)
    return _eval(t)


@cache
def _eval(t: Arrow) -> CobMatrix:
    match t:
        case Arrow(_kw=str()):
            # strictly associative and unital model: alpha, lambda, inj and
            # proj cells are identities, like those of id
            src, tgt = infer_type(t)
            cob = _CELL_COBS.get(type(t))
            return _cob_matrix(
                interpret_object(tgt), interpret_object(src),
                {(i, j): singleton(cob(*args) if cob else identity_cob("".join(args)))
                 for i, j, args in generator_cells(t, interpret_object)})
        case Compose(g, f):
            return mat_compose(_eval(g), _eval(f))
        case Plus(l, r):
            return mat_add(_eval(l), _eval(r))
        case TensorMap(l, r):
            return mat_tensor(_eval(l), _eval(r))
        case OplusMap(l, r):
            return mat_dsum(_eval(l), _eval(r))
        case Whisker(a, g):
            return mat_hom(identity_matrix(interpret_object(a)), _eval(g))
        case HomMap(f, g):
            return mat_hom(_eval(f), _eval(g))
        case Dagger(f):
            return mat_dagger(_eval(f))
        case _:
            raise ValueError(f"unknown arrow node {t!r}")


def entry_oracle(t: Arrow, i: int, j: int) -> MultiCob:
    """Entry (i, j) of the matrix of `t`, computed from the definition:
    interpret the term projection(i) . t . injection(j) and read off the sole
    entry of the resulting 1x1 matrix.

    Indices follow the interpreted matrix, i.e. they range over the
    components that contribute a boundary.
    """
    src, tgt = infer_type(t)
    ds, dt = decompose(src), decompose(tgt)
    jj = live_components(src)[j]
    ii = live_components(tgt)[i]
    probe = Compose(Compose(dt.projections[ii], t), ds.injections[jj])
    m = interpret_arrow(probe)
    assert m.shape == (1, 1)
    return m.entries[0][0]


# ---------------------------------------------------------------------------
# Syntactic matrix normalization (smcb only)


class TermMatrix(Matrix):
    """A matrix of formal sums of direct-sum-free terms.

    Rows and columns are indexed by the components of the target and source.
    Each stored cell is a nonempty sum, and the empty sum () fills the other
    entries.  No entry mentions (+) on objects or arrows, injections or
    projections.
    """

    zero = ()


def _sum_sorted(terms) -> tuple[Arrow, ...]:
    terms = tuple(terms)
    if len(terms) <= 1:
        return terms
    return tuple(sorted(terms, key=render_arrow))


def _add_sums(x: tuple[Arrow, ...], y: tuple[Arrow, ...]) -> tuple[Arrow, ...]:
    return _sum_sorted(x + y)


def _sums(op):
    """The entry operation that applies `op` to every pair of summands."""
    return lambda xs, ys: _sum_sorted(op(x, y) for x in xs for y in ys)


def _components(a: Obj) -> tuple[Obj, ...]:
    return decompose(a).components


def normalize_syntactic(t: Arrow) -> TermMatrix:
    """Rewrite a term as a matrix of pure monoidal-closed terms.

    Generator families produce their case-analysis matrices; combinators act
    by matrix composition, sum, Kronecker tensor, block diagonal and the
    whisker Kronecker.  Only the smcb dialect is supported.
    """
    check_mode(t, Mode.SMCB)
    return _fold(expand_derived(t, Mode.SMCB), _norm)


def _norm(t: Arrow, kids: list[TermMatrix]) -> TermMatrix:
    """The term matrix of `t`, from those of its arrow children."""
    match t:
        case Arrow(_kw=str()):
            src, tgt = infer_type(t)
            gen = Id if isinstance(t, (Inj1, Inj2, Proj1, Proj2)) else type(t)
            return TermMatrix(
                _components(tgt), _components(src),
                {(i, j): (gen(*args),)
                 for i, j, args in generator_cells(t, _components)})
        case Compose():
            mg, mf = kids
            return TermMatrix(mg.row_types, mf.col_types,
                              grid_product(mg, mf, _sums(Compose), _add_sums))
        case Plus():
            ml, mr = kids
            return TermMatrix(ml.row_types, ml.col_types,
                              grid_sum(ml, mr, _add_sums))
        case TensorMap():
            ml, mr = kids
            return TermMatrix(
                tuple(Tensor(x, y) for x in ml.row_types for y in mr.row_types),
                tuple(Tensor(x, y) for x in ml.col_types for y in mr.col_types),
                grid_kron(ml.cells.items(), mr, _sums(TensorMap)))
        case OplusMap():
            ml, mr = kids
            return TermMatrix(ml.row_types + mr.row_types,
                              ml.col_types + mr.col_types,
                              grid_dsum(ml, mr))
        case Whisker(a):
            (mg,), ca = kids, _components(a)
            return TermMatrix(
                tuple(Hom(x, y) for x in ca for y in mg.row_types),
                tuple(Hom(x, y) for x in ca for y in mg.col_types),
                grid_kron([((k, k), (c,)) for k, c in enumerate(ca)], mg,
                          _sums(Whisker)))
        case _:
            raise ModeViolation(f"normalize_syntactic cannot handle {t!r}")


# ---------------------------------------------------------------------------
# Serialization


def term_matrix_to_text(m: TermMatrix) -> str:
    lines = [f"termmatrix {m.shape[0]}x{m.shape[1]}"]
    lines.append("rows: " + ", ".join(render_object(c) for c in m.row_types))
    lines.append("cols: " + ", ".join(render_object(c) for c in m.col_types))
    for i, row in enumerate(m.entries):
        for j, terms in enumerate(row):
            body = " + ".join(render_arrow(s) for s in terms) if terms else "0"
            lines.append(f"entry {i} {j}: {body}")
    return "\n".join(lines)


def term_matrix_to_json(m: TermMatrix) -> dict:
    return {
        "shape": list(m.shape),
        "row_components": [render_object(c) for c in m.row_types],
        "col_components": [render_object(c) for c in m.col_types],
        "entries": [[[render_arrow(s) for s in terms] for terms in row]
                    for row in m.entries],
    }

import hashlib
import json
import random

import pytest

from cobeq.cob import (
    ZERO, CobMatrix, Cobordism, MultiCob, cardinality, cobordism, dagger_cob,
    dual_cob, flip, glue, identity_cob, identity_matrix,
    mat_add, mat_compose, mat_dagger, mat_dsum, mat_hom, mat_tensor, matrix,
    matrix_to_json, matrix_to_text, mc_add, mc_compose, mc_dagger, mc_dual,
    mc_tensor, multicob, singleton, tensor_cob, zero_matrix,
)


def random_boundary(rng, n):
    return "".join(rng.choice("+-") for _ in range(n))


def compatible_target(rng, source, extra=1):
    # same +/- imbalance as the source, padded with balanced pairs
    signs = list(source) + ["+", "-"] * rng.randint(0, extra)
    rng.shuffle(signs)
    return "".join(signs)


def random_cobordism(rng, source, target, max_circles=2):
    n = len(source) + len(target)
    signs = source + target

    def side(i):
        return i < len(source)

    for _ in range(200):
        free = list(range(n))
        rng.shuffle(free)
        pairs = []
        ok = True
        while free:
            x = free.pop()
            mates = [y for y in free
                     if (side(x) == side(y)) != (signs[x] == signs[y])]
            if not mates:
                ok = False
                break
            y = rng.choice(mates)
            free.remove(y)
            pairs.append((x, y))
        if ok:
            return cobordism(source, target, pairs, rng.randint(0, max_circles))
    raise AssertionError(f"no matching for {source!r} -> {target!r}")


def random_chain(rng, k, width=3):
    """k composable cobordisms."""
    bounds = [random_boundary(rng, rng.randint(0, width))]
    for _ in range(k):
        bounds.append(compatible_target(rng, bounds[-1]))
    return [random_cobordism(rng, a, b) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# single cobordisms


def test_flip():
    assert flip("+--") == "-++"
    assert flip("") == ""


def test_validation_rejects_bad_matchings():
    with pytest.raises(ValueError):
        Cobordism("++", "", ((0, 1),), 0)  # same side, same signs
    with pytest.raises(ValueError):
        Cobordism("+", "-", ((0, 1),), 0)  # cross side, unequal signs
    with pytest.raises(ValueError):
        Cobordism("+", "+", (), 0)  # not perfect
    with pytest.raises(ValueError):
        cobordism("+", "+", [(0, 1)], -1)  # negative circles
    with pytest.raises(ValueError, match="canonical order"):
        Cobordism("++", "++", ((1, 3), (0, 2)))  # valid but for its order


def test_glue_identity_laws():
    rng = random.Random(0)
    for _ in range(100):
        a = random_boundary(rng, rng.randint(0, 4))
        b = compatible_target(rng, a)
        f = random_cobordism(rng, a, b)
        assert glue(f, identity_cob(a)) == f
        assert glue(identity_cob(b), f) == f


def test_glue_associative():
    rng = random.Random(1)
    for _ in range(100):
        f, g, h = random_chain(rng, 3)
        assert glue(glue(h, g), f) == glue(h, glue(g, f))


def test_glue_boundary_mismatch():
    with pytest.raises(ValueError):
        glue(identity_cob("+"), identity_cob("-"))


def brute_force_glue(g, f):
    """Independent oracle: merge all points with union-find and classify the
    connected components, instead of following paths."""
    na, nb = len(f.source), len(f.target)
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        parent[find(a)] = find(b)

    for i, j in f.pairs:
        union(("f", i), ("f", j))
    for i, j in g.pairs:
        union(("g", i), ("g", j))
    for k in range(nb):
        union(("f", na + k), ("g", k))

    outer = [("f", i) for i in range(na)]
    outer += [("g", nb + j) for j in range(len(g.target))]
    for v in outer:
        find(v)
    groups = {}
    for v in list(parent):
        groups.setdefault(find(v), []).append(v)
    pairs = []
    closed = 0
    for members in groups.values():
        ends = [v for v in members if v in outer]
        if not ends:
            closed += 1
            continue
        assert len(ends) == 2
        flat = sorted(v[1] if v[0] == "f" else na + v[1] - nb for v in ends)
        pairs.append(tuple(flat))
    return cobordism(f.source, g.target, pairs,
                     f.circles + g.circles + closed)


def test_glue_against_brute_force_oracle():
    rng = random.Random(41)
    for _ in range(200):
        f, g = random_chain(rng, 2, width=4)
        assert glue(g, f) == brute_force_glue(g, f)


def test_glue_counts_closed_loops():
    # cap then cup over two middle points: one circle, empty matching
    cap = cobordism("", "+-", [(0, 1)])
    cup = cobordism("+-", "", [(0, 1)])
    out = glue(cup, cap)
    assert out == cobordism("", "", [], 1)


def test_glue_circle_through_swap():
    # cap, swap the two middle points, cup: still a single circle
    cap = cobordism("", "-+", [(0, 1)])
    swap = cobordism("-+", "+-", [(0, 3), (1, 2)])
    cup = cobordism("+-", "", [(0, 1)])
    assert glue(cup, glue(swap, cap)) == cobordism("", "", [], 1)


def test_compact_triangle_sides_at_cob_level():
    # (a* tensor cup) . assoc . (cap tensor a*) over a = "+" is the one wire
    cap = cobordism("", "-+", [(0, 1)])          # to a* (x) a
    wire_dual = identity_cob("-")
    step1 = tensor_cob(cap, wire_dual)           # "-" -> "-+-"
    cup = cobordism("+-", "", [(0, 1)])          # from a (x) a*
    step2 = tensor_cob(wire_dual, cup)           # "-+-" -> "-"
    lhs = glue(step2, step1)
    assert lhs == identity_cob("-")
    assert lhs.circles == 0


def test_dagger_and_dual_are_involutions():
    rng = random.Random(2)
    for _ in range(100):
        a = random_boundary(rng, rng.randint(0, 4))
        b = compatible_target(rng, a)
        f = random_cobordism(rng, a, b)
        assert dagger_cob(dagger_cob(f)) == f
        assert dual_cob(dual_cob(f)) == f
        assert dagger_cob(f).circles == f.circles == dual_cob(f).circles
        assert dual_cob(f).source == flip(f.target)
        assert dagger_cob(f).source == f.target


def test_tensor_cob():
    assert tensor_cob(identity_cob("+"), identity_cob("+")) == identity_cob("++")
    rng = random.Random(3)
    for _ in range(60):
        a = random_boundary(rng, 2)
        f = random_cobordism(rng, a, compatible_target(rng, a))
        b = random_boundary(rng, 1)
        g = random_cobordism(rng, b, compatible_target(rng, b))
        fg = tensor_cob(f, g)
        assert fg.circles == f.circles + g.circles
        assert fg.source == f.source + g.source
        assert dagger_cob(fg) == tensor_cob(dagger_cob(f), dagger_cob(g))


def test_interchange_dagger_and_dual_laws():
    rng = random.Random(12)
    for _ in range(500):
        f1, f2 = random_chain(rng, 2)
        g1, g2 = random_chain(rng, 2)
        assert glue(tensor_cob(f2, g2), tensor_cob(f1, g1)) == \
            tensor_cob(glue(f2, f1), glue(g2, g1))
        assert dagger_cob(glue(f2, f1)) == glue(dagger_cob(f1), dagger_cob(f2))
        assert dual_cob(glue(f2, f1)) == glue(dual_cob(f1), dual_cob(f2))


def same_charge(rng, b, longest=6):
    """A random boundary with the +/- imbalance of b, so that a cobordism
    joins the two, of at most `longest` points or as few as the imbalance
    allows."""
    d = b.count("+") - b.count("-")
    n = rng.choice(range(abs(d), max(longest, abs(d)) + 1, 2))
    signs = ["+" if d > 0 else "-"] * abs(d) + ["+", "-"] * ((n - abs(d)) // 2)
    rng.shuffle(signs)
    return "".join(signs)


#: sha256 of the single-cobordism operations on the corpus of `test_cob_output_digest`
COB_DIGEST = "85dc0cac94362460a73f6ed57ef93668f1149e1e17ff22fe5451f56fc353864c"


def _cob_corpus():
    """The seeded draws of `test_cob_output_digest`: operands f, g between
    boundaries of 0-6 points, and the results glue(g, f), tensor_cob(f, g),
    tensor_cob(g, f), dagger_cob(f) and dual_cob(g).  Every other draw
    narrows the outer boundaries of a glue to at most two points, so wide
    shared boundaries close loops; input circles run 0-3."""
    rng = random.Random(1117)
    for k in range(600):
        b = random_boundary(rng, rng.randint(0, 6))
        longest = 2 if k % 2 else 6
        f = random_cobordism(rng, same_charge(rng, b, longest), b, 3)
        g = random_cobordism(rng, b, same_charge(rng, b, longest), 3)
        yield f, g, (glue(g, f), tensor_cob(f, g), tensor_cob(g, f),
                     dagger_cob(f), dual_cob(g))


def test_cob_output_digest():
    """The pairs and circles of glue, tensor_cob, dagger_cob and dual_cob on
    the seeded corpus of `_cob_corpus`, pinned by one sha256."""
    digest = hashlib.sha256()
    loops = 0
    for f, g, results in _cob_corpus():
        gf = results[0]
        loops += gf.circles > f.circles + g.circles
        for c in results:
            digest.update(repr((c.pairs, c.circles)).encode())
    assert loops >= 100
    assert digest.hexdigest() == COB_DIGEST


def test_built_cobordisms_pass_the_public_checks():
    """The operations build their results without the constructor's checks;
    rebuilt through `Cobordism(...)` and `MultiCob(...)`, each result of the
    digest corpus is unchanged."""
    for f, g, results in _cob_corpus():
        for c in results:
            assert Cobordism(c.source, c.target, c.pairs, c.circles) == c
        for m in (mc_compose(singleton(g), multicob([f, f])),
                  mc_tensor(singleton(f), multicob([g, g])),
                  mc_dagger(multicob([f, f])), mc_dual(singleton(g))):
            assert MultiCob(m.elements) == m


# ---------------------------------------------------------------------------
# multisets


def test_multiset_multiplicity_matters():
    f = identity_cob("+")
    one = singleton(f)
    two = mc_add(one, one)
    assert one != two
    assert len(two) == 2


def _swap(u, v):
    """The symmetry u + v -> v + u."""
    n, m = len(u), len(v)
    return cobordism(u + v, v + u, [(i, n + 2 * m + i) for i in range(n)]
                     + [(n + q, n + m + q) for q in range(m)])


def test_mc_compose_unit_laws():
    """A unit operand, the singleton of an identity, gives the full product
    of every pair of elements, which is the other operand: on multisets
    with repeated elements and circles, over empty boundaries too, and for
    identities that a glue built."""
    rng = random.Random(1313)
    empty = glued = 0
    for _ in range(300):
        a = random_boundary(rng, rng.randint(0, 4))
        b = compatible_target(rng, a)
        elements = [random_cobordism(rng, a, b, 3) for _ in range(rng.randint(1, 3))]
        f = multicob(elements + elements[:rng.randint(0, 2)])
        units = []
        for x in (a, b):
            k = rng.randint(0, len(x))
            sigma2 = glue(_swap(x[k:], x[:k]), _swap(x[:k], x[k:]))
            assert sigma2 == identity_cob(x)
            units.append(singleton(rng.choice([identity_cob(x), sigma2])))
            glued += units[-1].elements[0] is sigma2
        ua, ub = units
        empty += a == ""
        for g, h in ((ub, f), (f, ua)):
            full = multicob(glue(cg, ch) for cg in g.elements for ch in h.elements)
            assert mc_compose(g, h) == full == f
        # an identity with a circle is no unit
        looped = singleton(tensor_cob(identity_cob(b), cobordism("", "", [], 1)))
        assert mc_compose(looped, f) == multicob(
            cobordism(c.source, c.target, c.pairs, c.circles + 1) for c in f.elements)
        with pytest.raises(ValueError):
            mc_compose(singleton(identity_cob(b + "+")), f)
        with pytest.raises(ValueError):
            mc_compose(f, singleton(identity_cob(a + "-")))
    assert mc_compose(ZERO, singleton(identity_cob("+"))) == ZERO
    assert empty >= 20 and glued >= 100


def test_multicob_canonical_order_enforced():
    f = cobordism("++--", "", [(0, 2), (1, 3)])
    g = cobordism("++--", "", [(0, 3), (1, 2)])
    m = multicob([g, f])
    assert m.elements == tuple(sorted([f, g], key=Cobordism.sort_key))
    with pytest.raises(ValueError):
        MultiCob((g, f) if g.sort_key() > f.sort_key() else (f, g))
    with pytest.raises(ValueError, match="mismatched boundaries"):
        multicob([identity_cob("+"), identity_cob("-")])
    with pytest.raises(ValueError, match="mismatched boundaries"):
        mc_add(singleton(identity_cob("+")), singleton(identity_cob("-")))


# ---------------------------------------------------------------------------
# matrices


def _one_by_one(entry):
    c = entry.elements[0]
    return matrix((c.target,), (c.source,), ((entry,),))


def test_mat_add_neutral_and_shape_errors():
    m = identity_matrix(("+", "-"))
    z = zero_matrix(m.row_types, m.col_types)
    assert mat_add(m, z) == m == mat_add(z, m)
    with pytest.raises(ValueError):
        mat_add(m, identity_matrix(("+",)))
    # the same matrix from a dense grid with zero entries
    grid = ((singleton(identity_cob("+")), ZERO),
            (ZERO, singleton(identity_cob("-"))))
    dense = matrix(("+", "-"), ("+", "-"), grid)
    assert dense.entries == grid
    assert dense == m == mat_add(dense, z)
    assert set(dense.cells) == {(0, 0), (1, 1)} and not z.cells


def test_matrix_checks_the_dense_grid():
    wire = singleton(identity_cob("+"))
    for rows, cols, grid in [
        (("+",), ("+",), ((wire, ZERO),)),            # a column too many
        (("+", "+"), ("+",), ((wire,),)),             # a row too few
        (("+",), ("+", "+"), ((wire,), (ZERO,))),     # the transposed shape
        (("+",), ("-",), ((wire,),)),                 # nonzero entry with wrong boundaries
    ]:
        with pytest.raises(ValueError):
            matrix(rows, cols, grid)


def test_constructor_checks_stored_cells_only():
    wire = singleton(identity_cob("+"))
    m = CobMatrix(("+", "+"), ("+",), {(1, 0): wire})
    assert m.entries == ((ZERO,), (wire,))
    for cells in [{(0, 0): ZERO},                        # a stored zero
                  {(2, 0): wire}, {(0, 1): wire},        # outside the shape
                  {(-1, 0): wire},
                  {(0, 0): singleton(identity_cob("-"))}]:  # wrong boundaries
        with pytest.raises(ValueError):
            CobMatrix(("+", "+"), ("+",), cells)
    with pytest.raises(TypeError):
        m.cells[0, 0] = wire


def test_mat_compose_row_times_column():
    # 1x2 row (u, v) with 2x1 column (x, y) gives the two-element multiset
    u = singleton(cobordism("", "", [], 1))
    v = singleton(cobordism("", "", [], 2))
    x = singleton(cobordism("", "", [], 3))
    y = singleton(cobordism("", "", [], 4))
    row = matrix(("",), ("", ""), ((u, v),))
    col = matrix(("", ""), ("",), ((x,), (y,)))
    out = mat_compose(row, col)
    assert out.shape == (1, 1)
    assert out.entries[0][0] == multicob([
        cobordism("", "", [], 4), cobordism("", "", [], 6)])


def test_mat_compose_type_mismatch():
    with pytest.raises(ValueError):
        mat_compose(identity_matrix(("+",)), identity_matrix(("-",)))


def naive_mat_compose(g, f):
    from cobeq.cob import mc_compose
    rows = []
    for i, r in enumerate(g.row_types):
        row = []
        for j, c in enumerate(f.col_types):
            acc = ZERO
            for k in range(len(g.col_types)):
                acc = mc_add(acc, mc_compose(g.entries[i][k], f.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return matrix(g.row_types, f.col_types, rows)


def test_mat_compose_against_dense_oracle():
    import random as _random

    from cobeq import Mode, infer_type, interpret_arrow
    from cobeq.generate import random_arrow, random_arrow_with_source

    rng = _random.Random(43)
    for _ in range(40):
        t1 = random_arrow(rng, Mode.SMCB, depth=2, obj_depth=2)
        t2 = random_arrow_with_source(rng, infer_type(t1)[1], Mode.SMCB, 1, 2)
        m1, m2 = interpret_arrow(t1), interpret_arrow(t2)
        assert mat_compose(m2, m1) == naive_mat_compose(m2, m1)


def test_kronecker_prime_layout():
    # 2x3 by 2x2 gives the 4x6 grid with block-row-major placement
    primes_x = [[2, 3, 5], [7, 11, 13]]
    primes_y = [[17, 19], [23, 29]]

    def closed(k):
        return multicob([cobordism("", "", [], 1)] * k)

    x = matrix(("", ""), ("", "", ""),
               [[closed(primes_x[i][j]) for j in range(3)] for i in range(2)])
    y = matrix(("", ""), ("", ""),
               [[closed(primes_y[i][j]) for j in range(2)] for i in range(2)])
    out = mat_tensor(x, y)
    assert out.shape == (4, 6)
    got = cardinality(out)
    expect = [
        [2 * 17, 2 * 19, 3 * 17, 3 * 19, 5 * 17, 5 * 19],
        [2 * 23, 2 * 29, 3 * 23, 3 * 29, 5 * 23, 5 * 29],
        [7 * 17, 7 * 19, 11 * 17, 11 * 19, 13 * 17, 13 * 19],
        [7 * 23, 7 * 29, 11 * 23, 11 * 29, 13 * 23, 13 * 29],
    ]
    assert [list(r) for r in got] == expect


def test_mat_hom_types_and_transpose():
    wire = singleton(identity_cob("+"))
    m = matrix(("+",), ("+",), ((wire,),))
    h = mat_hom(m, m)
    assert h.row_types == ("-+",) and h.col_types == ("-+",)
    assert h.entries[0][0] == singleton(identity_cob("-+"))


def test_mat_dagger_and_dsum():
    wire = singleton(identity_cob("+"))
    m = matrix(("+",), ("+",), ((wire,),))
    z = zero_matrix(("-",), ("+",))
    s = mat_dsum(m, z)
    assert s.row_types == ("+", "-") and s.col_types == ("+", "+")
    assert s.entries[0][1].elements == () and s.entries[1][0].elements == ()
    d = mat_dagger(s)
    assert d.row_types == s.col_types and d.col_types == s.row_types
    assert d.entries[0][0] == wire


def test_cardinality_examples():
    z = zero_matrix(("+", "-"), ("+",))
    assert cardinality(z) == ((0,), (0,))
    ident = identity_matrix(("+", "++", ""))
    assert cardinality(ident) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    both = mat_add(ident, ident)
    assert cardinality(both) == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_cardinality_homomorphisms():
    rng = random.Random(5)
    for _ in range(40):
        f, g = random_chain(rng, 2)
        mf = _one_by_one(singleton(f))
        mg = _one_by_one(singleton(g))
        comp = mat_compose(mg, mf)
        assert cardinality(comp) == ((1,),)
        both = mat_add(mf, mf)
        assert cardinality(both) == ((2,),)
        assert cardinality(mat_tensor(mf, mf)) == ((1,),)


def test_operations_are_congruences():
    # equal values produced by different routes stay equal under every op
    rng = random.Random(9)
    for _ in range(30):
        f, g = random_chain(rng, 2)
        a = _one_by_one(singleton(f))
        a2 = mat_add(a, zero_matrix(a.row_types, a.col_types))
        assert a == a2
        b = _one_by_one(singleton(g))
        assert mat_compose(b, a) == mat_compose(b, a2)
        assert mat_tensor(a, b) == mat_tensor(a2, b)
        assert mat_hom(a, b) == mat_hom(a2, b)
        assert mat_dsum(a, b) == mat_dsum(a2, b)
        assert mat_dagger(a) == mat_dagger(a2)


def test_equal_is_structural():
    m = identity_matrix(("++",))
    swapped = matrix(("++",), ("++",),
                     ((singleton(cobordism("++", "++", [(0, 3), (1, 2)])),),))
    assert m == m
    assert m != swapped
    # cells stored in another order: equal, with equal hashes
    a, b = singleton(identity_cob("+")), singleton(identity_cob("-"))
    x = CobMatrix(("+", "-"), ("+", "-"), {(0, 0): a, (1, 1): b})
    y = CobMatrix(("+", "-"), ("+", "-"), {(1, 1): b, (0, 0): a})
    assert x == y == identity_matrix(("+", "-")) and hash(x) == hash(y)
    assert len({x, y, identity_matrix(("+", "-")), m, swapped}) == 3


def test_zero_dimensional_matrices():
    z = zero_matrix((), ())
    assert z.shape == (0, 0)
    assert mat_compose(z, z) == z
    assert mat_dsum(z, identity_matrix(("+",))) == identity_matrix(("+",))
    assert identity_matrix(()) == z


def test_serialization_deterministic():
    m = mat_dsum(identity_matrix(("+-",)), zero_matrix(("",), ("+",)))
    t1, t2 = matrix_to_text(m), matrix_to_text(m)
    assert t1 == t2
    blob = matrix_to_json(m)
    assert json.dumps(blob) == json.dumps(matrix_to_json(m))
    assert blob["shape"] == [2, 2]
    assert blob["row_types"] == ["+-", ""]
    assert blob["entries"][0][0] == [{"pairs": [[0, 2], [1, 3]], "circles": 0}]
    assert "entry 1 1: (zero)" in t1

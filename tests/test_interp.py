import hashlib
import json
import random
import zlib

import pytest

from cobeq import (
    Alpha, AlphaInv, Compose, Dual, EpsC, EtaC, Gen, Hom, Id, Inj1, Lambda,
    LambdaInv, Mode, ModeViolation, Oplus, Plus, Proj2, Sigma, Tensor,
    TensorMap, Unit, Whisker, Zero, ZeroMap, decompose, dual_map,
    entry_oracle, expand_derived, infer_type, interpret_arrow,
    interpret_object, matrix_to_json, matrix_to_text, normalize_syntactic,
    term_matrix_to_json, term_matrix_to_text,
)
from cobeq.cob import (
    ZERO, CobMatrix, Cobordism, MultiCob, cobordism, identity_cob, mc_add,
    mc_dual, multicob, singleton,
)
from cobeq.cli import matrix_to_dot
from cobeq.generate import random_arrow, random_object
from cobeq.interp import TermMatrix, live_components
from cobeq.syntax import (
    Eps, Eta, Inj2, OplusMap, Proj1, node_objects, subarrows, subobjects,
)

P, Q, R = Gen("p"), Gen("q"), Gen("r")


# ---------------------------------------------------------------------------
# objects


def test_interpret_object_examples():
    assert interpret_object(Tensor(P, Oplus(Q, Unit()))) == ("++", "+")
    assert interpret_object(Zero()) == ()
    assert interpret_object(Hom(P, Q)) == ("-+",)
    assert interpret_object(Unit()) == ("",)
    assert interpret_object(Dual(Tensor(P, Q))) == ("--",)
    # zero-valued factors erase whole components
    assert interpret_object(Tensor(P, Zero())) == ()
    assert interpret_object(Oplus(P, Tensor(Q, Zero()))) == ("+",)


def test_interpret_object_strict_preservation():
    rng = random.Random(4)
    for mode in (Mode.SMCB, Mode.CCB):
        for _ in range(80):
            a = random_object(rng, mode, depth=3)
            b = random_object(rng, mode, depth=3)
            ia, ib = interpret_object(a), interpret_object(b)
            assert interpret_object(Tensor(a, b)) == \
                tuple(s + t for s in ia for t in ib)
            assert interpret_object(Oplus(a, b)) == ia + ib


def test_object_length_counts_live_components():
    rng = random.Random(6)
    for _ in range(120):
        a = random_object(rng, Mode.SMCB, depth=3)
        assert len(interpret_object(a)) == len(live_components(a))


# ---------------------------------------------------------------------------
# arrows


def test_generator_images():
    m = interpret_arrow(Inj1(P, Q))
    assert m.shape == (2, 1)
    assert m.entries[0][0] == singleton(identity_cob("+"))
    assert m.entries[1][0] == ZERO

    m2 = interpret_arrow(Plus(Id(P), Id(P)))
    assert m2.entries[0][0] == mc_add(singleton(identity_cob("+")),
                                      singleton(identity_cob("+")))

    m3 = interpret_arrow(Sigma(P, Q))
    assert m3.entries[0][0] == singleton(cobordism("++", "++", [(0, 3), (1, 2)]))


def test_adjunction_triangle_image_is_identity():
    lhs = Compose(Whisker(P, Eps(P, P)), Eta(P, Hom(P, P)))
    assert interpret_arrow(lhs) == interpret_arrow(Id(Hom(P, P)))


def test_compact_loop_has_one_circle():
    t = Compose(Compose(EpsC(P), Sigma(Dual(P), P)), EtaC(P))
    m = interpret_arrow(t, Mode.CCB)
    assert m.shape == (1, 1)
    assert m.entries[0][0] == multicob([cobordism("", "", [], 1)])


def test_interpret_checks_mode_when_given():
    with pytest.raises(ModeViolation):
        interpret_arrow(EtaC(P), Mode.SMCB)


def test_dccb_sugar_expansion_is_semantically_transparent():
    # a ccb term and its dagger-sugar expansion denote the same matrix
    rng = random.Random(14)
    for _ in range(60):
        t = random_arrow(rng, Mode.CCB, depth=3, obj_depth=2)
        assert interpret_arrow(t) == interpret_arrow(expand_derived(t, Mode.DCCB))


#: largest matrix, in cells, that the expansion property test evaluates
EXPANDED_CELL_CAP = 4096


def _max_cells(t):
    return max(len(interpret_object(a)) * len(interpret_object(b))
               for a, b in map(infer_type, subarrows(t)))


@pytest.mark.parametrize("mode", list(Mode))
def test_expand_derived_is_semantically_transparent(mode):
    # decide_equal and axiom_suite evaluate terms as written, so this is
    # where the expansion of hom(f,g) and of the dccb sugar is checked
    rng = random.Random(zlib.crc32(mode.value.encode()))
    checked = changed = 0
    for _ in range(300):
        t = random_arrow(rng, mode, depth=3, obj_depth=2)
        e = expand_derived(t, mode)
        if _max_cells(e) > EXPANDED_CELL_CAP:
            continue
        assert interpret_arrow(t) == interpret_arrow(e)
        checked += 1
        changed += e is not t
    assert checked >= 250
    # ccb has no derived kinds, so there the expansion is the identity
    assert (changed > 0) == (mode is not Mode.CCB)


def _output_corpus(mode):
    """The seeded terms of `test_output_bytes` and `test_dot_bytes`: 200
    draws, less those whose expansion exceeds the cell cap."""
    rng = random.Random(zlib.crc32(b"output-bytes " + mode.value.encode()))
    for _ in range(200):
        t = random_arrow(rng, mode, depth=3, obj_depth=2)
        if _max_cells(expand_derived(t, mode)) <= EXPANDED_CELL_CAP:
            yield t


#: sha256 of the serialized images of the seeded terms in `test_output_bytes`
OUTPUT_DIGESTS = {
    Mode.SMCB: "4b4b64b784f2f36a656a2a47dda57ad9437ea0692f2839c2beb358ed80c99c3b",
    Mode.CCB: "fd62b096e7365e9c5e4d5bf84885471207d11fa22b1846d76c2c3ac5fb9a05d7",
    Mode.DCCB: "d005297bb9fcd110bcb250f07e8a96b61e730cd511a1a656c90a1b7da022c4bb",
}


@pytest.mark.parametrize("mode", list(Mode))
def test_output_bytes(mode):
    """The text and JSON serializations of `interpret_arrow` (and, in smcb,
    of `normalize_syntactic`) on 200 seeded random terms, pinned by one
    sha256 per mode.

    This gate is for refactors of the evaluator and the normalizer, which
    must not change a byte of output.  Re-record the digests only in a
    change that means to change output, and say so in CHANGES.md.
    """
    digest = hashlib.sha256()
    checked = 0
    for t in _output_corpus(mode):
        m = interpret_arrow(t)
        blobs = [matrix_to_text(m), json.dumps(matrix_to_json(m))]
        if mode is Mode.SMCB:
            tm = normalize_syntactic(t)
            blobs += [term_matrix_to_text(tm), json.dumps(term_matrix_to_json(tm))]
        for b in blobs:
            digest.update(b.encode())
        checked += 1
    assert checked >= 190
    assert digest.hexdigest() == OUTPUT_DIGESTS[mode]


@pytest.mark.parametrize("mode", list(Mode))
def test_images_pass_the_public_checks(mode):
    """The evaluator builds its matrices without the constructors' checks;
    rebuilt through `Cobordism(...)`, `MultiCob(...)` and `CobMatrix(...)`,
    every image of the `test_output_bytes` corpus is unchanged."""
    for t in _output_corpus(mode):
        m = interpret_arrow(t)
        cells = {ij: MultiCob(tuple(Cobordism(c.source, c.target, c.pairs, c.circles)
                                    for c in e.elements))
                 for ij, e in m.cells.items()}
        assert CobMatrix(m.row_types, m.col_types, cells) == m


#: sha256 of the DOT renderings of the seeded terms in `test_dot_bytes`
DOT_DIGESTS = {
    Mode.SMCB: "0a86cca86d5ed2aebae5d3d52dd6854db59a86b80a235df687cd2da6335177d9",
    Mode.CCB: "20d1e86d4de51a058f2d7b4b0251297eadb93d1d0bb6d89fb494af01493ce894",
    Mode.DCCB: "18d3e1d6cfc1633691370392ae5cbd7437d96318b1e935f150ba3a3fa6a63ca9",
}


@pytest.mark.parametrize("mode", list(Mode))
def test_dot_bytes(mode):
    """`cli.matrix_to_dot` of the images of the `test_output_bytes` corpus,
    pinned by one sha256 per mode, zero entries included."""
    digest = hashlib.sha256()
    for t in _output_corpus(mode):
        digest.update(matrix_to_dot(interpret_arrow(t)).encode())
    assert digest.hexdigest() == DOT_DIGESTS[mode]


def test_dual_map_agrees_with_entrywise_dual():
    rng = random.Random(12)
    for _ in range(40):
        f = random_arrow(rng, Mode.CCB, depth=2, obj_depth=2)
        m = interpret_arrow(f)
        d = interpret_arrow(expand_derived(dual_map(f), Mode.CCB))
        assert d.row_types == tuple(map(lambda b: b.translate(str.maketrans("+-", "-+")), m.col_types))
        for i in range(len(m.row_types)):
            for j in range(len(m.col_types)):
                assert d.entries[j][i] == mc_dual(m.entries[i][j])


def test_functoriality_against_entry_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        t = random_arrow(rng, Mode.SMCB, depth=3, obj_depth=2, gens=("p", "q"))
        m = interpret_arrow(t)
        for i in range(len(m.row_types)):
            for j in range(len(m.col_types)):
                assert entry_oracle(t, i, j) == m.entries[i][j]
                checked += 1
    assert checked > 100


def test_entry_oracle_examples():
    t = Id(Oplus(P, Q))
    assert entry_oracle(t, 0, 0) == singleton(identity_cob("+"))
    assert entry_oracle(t, 1, 0) == ZERO
    with pytest.raises(IndexError):
        entry_oracle(t, 2, 0)


# ---------------------------------------------------------------------------
# syntactic normalization


def test_normalize_identity_of_sum():
    tm = normalize_syntactic(Id(Oplus(P, Q)))
    assert tm.row_types == (P, Q) == tm.col_types
    assert tm.entries == (((Id(P),), ()), ((), (Id(Q),)))
    # the nonzero cells alone, in any order, give an equal, equally hashed value
    other = TermMatrix((P, Q), (P, Q), {(1, 1): (Id(Q),), (0, 0): (Id(P),)})
    assert dict(tm.cells) == {(0, 0): (Id(P),), (1, 1): (Id(Q),)}
    assert other == tm and hash(other) == hash(tm)
    assert other != TermMatrix((P, Q), (P, Q), {(0, 0): (Id(P),)})


def test_normalize_pure_term_is_itself():
    u = Compose(Sigma(P, Q), TensorMap(Id(P), Id(Q)))
    tm = normalize_syntactic(u)
    assert tm.shape == (1, 1)
    assert tm.entries[0][0] == (u,)


def test_normalize_mixed_projection_injection_is_zero():
    tm = normalize_syntactic(Compose(Proj2(P, Q), Inj1(P, Q)))
    assert tm.shape == (1, 1)
    assert tm.entries[0][0] == ()


def test_normalize_rejects_compact_closed_terms():
    with pytest.raises(ModeViolation):
        normalize_syntactic(EtaC(P))


def _forbidden_nodes(term):
    for sub in subarrows(term):
        if isinstance(sub, (OplusMap, Inj1, Inj2, Proj1, Proj2, Plus, ZeroMap)):
            return sub
        for obj in node_objects(sub):
            for s in subobjects(obj):
                if isinstance(s, Oplus):
                    return s
    return None


def test_normalize_purity_and_soundness():
    rng = random.Random(8)
    from cobeq.biproduct import Valuation, valuation
    terms = [random_arrow(rng, Mode.SMCB, depth=3, obj_depth=2)
             for _ in range(60)]
    # every smcb generator kind, over arguments of several components with
    # a 0-valued or an I-valued one among them
    objs = (Oplus(P, Q), Oplus(P, Zero()), Oplus(Unit(), P))
    for k in range(3):
        a, b, c = objs[k:] + objs[:k]
        terms += [Id(a), Alpha(a, b, c), AlphaInv(a, b, c), Lambda(a),
                  LambdaInv(a), Sigma(a, b), Eta(a, b), Eps(a, b), Inj1(a, b),
                  Inj2(a, b), Proj1(a, b), Proj2(a, b), ZeroMap(a, b)]
    for t in terms:
        tm = normalize_syntactic(t)
        src, tgt = infer_type(t)
        assert tm.col_types == decompose(src).components
        assert tm.row_types == decompose(tgt).components
        m = interpret_arrow(t)
        live_r = [k for k, c in enumerate(tm.row_types)
                  if valuation(c) is not Valuation.ZERO_VALUED]
        live_c = [k for k, c in enumerate(tm.col_types)
                  if valuation(c) is not Valuation.ZERO_VALUED]
        for i, row in enumerate(tm.entries):
            for j, summands in enumerate(row):
                for s in summands:
                    assert _forbidden_nodes(s) is None, s
                    assert infer_type(s) == (tm.col_types[j],
                                             tm.row_types[i])
                if i in live_r and j in live_c:
                    gi, gj = live_r.index(i), live_c.index(j)
                    acc = ZERO
                    for s in summands:
                        part = interpret_arrow(s)
                        assert part.shape == (1, 1)
                        acc = mc_add(acc, part.entries[0][0])
                    assert acc == m.entries[gi][gj]


def test_normalize_whisker_blocks():
    t = Whisker(Oplus(P, Q), Id(R))
    tm = normalize_syntactic(t)
    assert tm.row_types == (Hom(P, R), Hom(Q, R))
    assert tm.entries[0][0] == (Whisker(P, Id(R)),)
    assert tm.entries[0][1] == ()
    assert tm.entries[1][1] == (Whisker(Q, Id(R)),)


def test_term_matrix_serialization():
    tm = normalize_syntactic(Inj1(P, Q))
    text = term_matrix_to_text(tm)
    assert "entry 0 0: id[p]" in text
    assert "entry 1 0: 0" in text
    blob = term_matrix_to_json(tm)
    assert blob["shape"] == [2, 1]
    assert blob["entries"][0][0] == ["id[p]"]
    assert blob["entries"][1][0] == []

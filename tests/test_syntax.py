import collections
import copy
import dataclasses
import gc
import hashlib
import pickle
import random
import sys
import time
import zlib

import pytest

from cobeq import (
    Alpha, AlphaInv, Arrow, Compose, Dagger, Dual, Eps, EpsC, Eta, EtaC, Gen,
    Hom, HomMap, Id, Inj1, Inj2, Lambda, LambdaInv, Mode, ModeViolation, Obj,
    Oplus, OplusMap, ParseError, Plus, Proj1, Proj2, Sigma, Tensor, TensorMap,
    TypeMismatch, Unit, Whisker, Zero, ZeroMap, check_mode, dual_map,
    expand_derived, infer_type, normalize_syntactic, parse_arrow, parse_object,
    render_arrow, render_object, render_text,
)
from cobeq import syntax
from cobeq.cli import main
from cobeq.generate import random_arrow, random_object
from cobeq.syntax import (
    arrow_children, is_reserved_word, node_objects, object_children,
    rebuild_arrow, subarrows, subobjects, tokenize,
)

P, Q, R = Gen("p"), Gen("q"), Gen("r")


# ---------------------------------------------------------------------------
# object parsing and printing


def test_parse_object_examples():
    assert parse_object("p (x) (q (+) I)") == Tensor(P, Oplus(Q, Unit()))
    assert parse_object("p -o I") == Hom(P, Unit())
    assert parse_object("p*", Mode.CCB) == Dual(P)
    assert parse_object("0") == Zero()


def test_object_precedence():
    # tensor left-associative, tighter than oplus; hom lowest, right-assoc
    assert parse_object("p (x) q (x) r") == Tensor(Tensor(P, Q), R)
    assert parse_object("p (+) q (x) r") == Oplus(P, Tensor(Q, R))
    assert parse_object("p -o q -o r") == Hom(P, Hom(Q, R))
    assert parse_object("p (x) q -o r") == Hom(Tensor(P, Q), R)
    assert parse_object("p**", Mode.CCB) == Dual(Dual(P))
    assert parse_object("(p (x) q)*", Mode.CCB) == Dual(Tensor(P, Q))


def test_object_mode_violations():
    with pytest.raises(ModeViolation):
        parse_object("p*")
    with pytest.raises(ModeViolation):
        parse_object("p -o q", Mode.CCB)
    with pytest.raises(ModeViolation):
        parse_object("p -o q", Mode.DCCB)


def test_parse_object_errors():
    with pytest.raises(ParseError):
        parse_object("p (x)")
    with pytest.raises(ParseError):
        parse_object("id")  # reserved word
    with pytest.raises(ParseError):
        parse_object("3")
    with pytest.raises(ParseError):
        parse_object("p q")


def test_render_object_examples():
    assert render_object(Tensor(P, Oplus(Q, Unit()))) == "p (x) (q (+) I)"
    assert render_text(Zero()) == "0"
    assert render_object(Dual(Tensor(P, Q))) == "(p (x) q)*"


def test_primed_generators_allowed():
    assert parse_object("p'") == Gen("p'")
    with pytest.raises(ParseError):
        parse_object("eta'")  # primes do not unreserve a keyword


# ---------------------------------------------------------------------------
# arrow parsing, printing, typing


def test_parse_arrow_examples():
    t = parse_arrow("proj1[p,q] . inj1[p,q]")
    assert t == Compose(Proj1(P, Q), Inj1(P, Q))
    assert infer_type(t) == (P, P)
    assert parse_arrow("id[p] + zero[p,p]") == Plus(Id(P), ZeroMap(P, P))


def test_parse_arrow_type_error():
    with pytest.raises(TypeMismatch):
        parse_arrow("sigma[p,q] . sigma[p,q]")
    with pytest.raises(TypeMismatch):
        parse_arrow("id[p] + id[q]")


def test_semicolon_is_flipped_composition():
    assert parse_arrow("inj1[p,q] ; proj1[p,q]") == \
        parse_arrow("proj1[p,q] . inj1[p,q]")


def test_arrow_precedence():
    # (x) binds tighter than ., which binds tighter than +
    t = parse_arrow("sigma[p,q] . id[p] (x) id[q] + zero[p (x) q, q (x) p]")
    assert isinstance(t, Plus)
    assert t.left == Compose(Sigma(P, Q), TensorMap(Id(P), Id(Q)))


def test_whisker_and_sugar_forms():
    w = parse_arrow("[p -o id[q]]")
    assert w == Whisker(P, Id(Q))
    h = parse_arrow("hom(id[p], id[q])")
    assert h == HomMap(Id(P), Id(Q))
    d = parse_arrow("dg(eps[p])", Mode.DCCB)
    assert d == Dagger(EpsC(P))
    assert parse_arrow("[(p -o q) -o id[r]]") == Whisker(Hom(P, Q), Id(R))


def test_eta_arity_follows_mode():
    assert parse_arrow("eta[p,q]") == Eta(P, Q)
    assert parse_arrow("eta[p]", Mode.CCB) == EtaC(P)
    with pytest.raises(ModeViolation):
        parse_arrow("eta[p]")
    with pytest.raises(ModeViolation):
        parse_arrow("eta[p,q]", Mode.CCB)
    with pytest.raises(ModeViolation):
        parse_arrow("dg(id[p])", Mode.CCB)
    with pytest.raises(ModeViolation):
        parse_arrow("[p -o id[q]]", Mode.DCCB)


def test_infer_type_component_table():
    assert infer_type(Eta(P, Q)) == (Q, Hom(P, Tensor(P, Q)))
    assert infer_type(Eps(P, Q)) == (Tensor(P, Hom(P, Q)), Q)
    assert infer_type(EtaC(P)) == (Unit(), Tensor(Dual(P), P))
    assert infer_type(EpsC(P)) == (Tensor(P, Dual(P)), Unit())
    f = Inj1(P, Q)  # f : p -> p (+) q
    assert infer_type(Dagger(f)) == (Oplus(P, Q), P)
    assert infer_type(Whisker(P, Id(Q))) == (Hom(P, Q), Hom(P, Q))
    # hom(f, g) is contravariant on the left
    f = ZeroMap(P, Q)
    g = ZeroMap(R, Unit())
    assert infer_type(HomMap(f, g)) == (Hom(Q, R), Hom(P, Unit()))


def test_type_error_names_path():
    bad = Plus(Id(P), Compose(Sigma(P, Q), Sigma(P, Q)))
    with pytest.raises(TypeMismatch) as exc:
        infer_type(bad)
    assert "right" in str(exc.value)


def test_render_arrow_examples():
    assert render_arrow(Compose(Proj1(P, Q), Inj1(P, Q))) == "proj1[p,q] . inj1[p,q]"
    assert render_arrow(ZeroMap(Zero(), Zero())) == "zero[0,0]"
    assert render_arrow(Whisker(Hom(P, Q), Id(R))) == "[(p -o q) -o id[r]]"


def test_named_definitions():
    defs = {"a": Oplus(P, Q)}
    assert parse_object("a (x) a", defs=defs) == Tensor(Oplus(P, Q), Oplus(P, Q))
    defs2 = {"f": Inj1(P, Q)}
    assert parse_arrow("proj1[p,q] . f", defs=defs2) == \
        Compose(Proj1(P, Q), Inj1(P, Q))
    with pytest.raises(ParseError):
        parse_arrow("g", defs=defs2)


# ---------------------------------------------------------------------------
# derived forms


def test_expand_hom_map_shape():
    f = Inj1(P, Q)  # p -> p (+) q
    a, a1 = infer_type(f)
    out = expand_derived(HomMap(f, Id(Q)))
    hom_ab = Hom(a1, Q)
    assert out == Compose(
        Compose(Whisker(a, Eps(a1, Q)),
                Whisker(a, TensorMap(f, Id(hom_ab)))),
        Eta(a, hom_ab))
    # covariant-only collapses to a whisker
    assert expand_derived(HomMap(Id(P), Inj1(Q, R))) == Whisker(P, Inj1(Q, R))


def test_expand_preserves_types():
    rng = random.Random(5)
    for mode in Mode:
        for _ in range(60):
            t = random_arrow(rng, mode, depth=3, obj_depth=2)
            out = expand_derived(t, mode)
            assert infer_type(out) == infer_type(t)


def test_expand_dccb_sugar():
    assert expand_derived(EtaC(P), Mode.DCCB) == \
        Compose(Sigma(P, Dual(P)), Dagger(EpsC(P)))
    assert expand_derived(AlphaInv(P, Q, R), Mode.DCCB) == Dagger(Alpha(P, Q, R))
    assert expand_derived(LambdaInv(P), Mode.DCCB) == Dagger(Lambda(P))
    assert expand_derived(Inj1(P, Q), Mode.DCCB) == Dagger(Proj1(P, Q))
    assert expand_derived(Inj2(P, Q), Mode.DCCB) == Dagger(Proj2(P, Q))
    # same nodes are primitive in ccb
    assert expand_derived(EtaC(P), Mode.CCB) == EtaC(P)


def test_expand_long_constructed_chain_under_default_limit():
    # type inference, printing, expansion and normalization walk explicit
    # stacks: 100,000-link chains, parsed and built by constructors, pass
    # under the default recursion limit in time linear in their length
    def run(n):
        """CPU seconds of each step on n-link chains, checking each result."""
        text = " . ".join(["id[p]"] * (n + 1))
        built = Id(P)
        for _ in range(n):
            built = Compose(built, Id(P))  # `.` is left associative
        seconds = {}

        def timed(step, *args):
            t0 = time.process_time()
            out = step(*args)
            seconds[step.__name__] = time.process_time() - t0
            return out

        parsed = timed(parse_arrow, text)
        assert timed(infer_type, built) == (P, P)
        assert timed(render_arrow, parsed) == text == render_arrow(built)
        assert timed(expand_derived, built) is built and expand_derived(parsed) is parsed
        assert hash(parsed) == hash(built)
        m = timed(normalize_syntactic, parsed)
        assert m.shape == (1, 1) and [render_arrow(s) for s in m.entries[0][0]] == [text]
        return seconds

    limit, thresholds = sys.getrecursionlimit(), gc.get_threshold()
    sys.setrecursionlimit(1000)
    # without full collections, as in a CLI call, so the walks are timed
    gc.set_threshold(*thresholds[:2], 1 << 30)
    try:
        times = [run(50_000), run(100_000)]
        if any(times[1][s] > 3 * times[0][s] for s in times[0]):
            # the host may be busy: take the best of two runs of each size
            again = [run(50_000), run(100_000)]
            times = [{s: min(a[s], b[s]) for s in a} for a, b in zip(times, again)]
    finally:
        gc.set_threshold(*thresholds)
        sys.setrecursionlimit(limit)
    half, full = times
    assert all(full[s] <= 3 * half[s] for s in half), times


def test_parse_nested_parentheses_two_frames_per_level():
    # 1,200 levels fit a limit of 3000 at two Python frames per level
    # (the operand and its atom), not at three
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        assert parse_object("(" * 1200 + "p" + ")" * 1200) == Gen("p")
        assert parse_arrow("(" * 1200 + "id[p]" + ")" * 1200) == Id(P)
    finally:
        sys.setrecursionlimit(limit)


def test_hash_long_constructed_chain_under_default_limit():
    def chain(n):
        t = Id(P)
        for _ in range(n):
            t = Compose(Id(P), t)
        return t

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b = chain(20_000), chain(20_000)
        assert hash(a) == hash(b)
    finally:
        sys.setrecursionlimit(limit)
    # the same hash the parser sets as it builds each node
    short = chain(30)
    assert hash(short) == hash(parse_arrow(render_arrow(short))) == hash(chain(30))


def test_expand_fixpoint_and_mode_closure():
    rng = random.Random(9)
    for mode in Mode:
        for _ in range(40):
            t = random_arrow(rng, mode, depth=3, obj_depth=2)
            out = expand_derived(t, mode)
            assert expand_derived(out, mode) == out
            check_mode(out, mode)  # legality preserved


def test_dual_map_typing():
    f = EpsC(P)  # p (x) p* -> I
    d = dual_map(f)
    assert infer_type(d) == (Dual(Unit()), Dual(Tensor(P, Dual(P))))
    assert dual_map(Id(P)) == Id(Dual(P))


# ---------------------------------------------------------------------------
# round trip


def _hashes(t):
    """The hash of every subterm of `t` and of every subformula of its
    object annotations, in pre-order."""
    out = []
    for sub in subarrows(t):
        out.append(hash(sub))
        for a in node_objects(sub):
            out += map(hash, subobjects(a))
    return out


@pytest.mark.parametrize("mode", list(Mode))
def test_parse_render_round_trip(mode):
    """The parser sets each node's hash as it builds it; the hashes agree
    with those of the same terms built by constructors."""
    rng = random.Random(zlib.crc32(mode.value.encode()))
    for _ in range(120):
        t = random_arrow(rng, mode, depth=5, obj_depth=3)
        parsed = parse_arrow(render_arrow(t), mode)
        assert parsed == t and _hashes(parsed) == _hashes(t)
        a = random_object(rng, mode, depth=5)
        parsed = parse_object(render_object(a), mode)
        assert parsed == a
        assert list(map(hash, subobjects(parsed))) == list(map(hash, subobjects(a)))


# ---------------------------------------------------------------------------
# node contract: structural equality, cached hash and type


def test_separately_built_terms_are_equal_with_equal_hashes():
    text = "sigma[p,q] . (id[p] (x) id[q]) + zero[p (x) q, q (x) p]"
    t1, t2 = parse_arrow(text), parse_arrow(text)
    assert t1 is not t2
    assert t1 == t2 and hash(t1) == hash(t2)
    built = Plus(Compose(Sigma(P, Q), TensorMap(Id(P), Id(Q))),
                 ZeroMap(Tensor(P, Q), Tensor(Q, P)))
    assert built == t1 and hash(built) == hash(t1)
    assert {t1: 1}[built] == 1


def test_equal_subterms_of_one_parse_are_one_object():
    t = parse_arrow("id[p (x) q] . id[p (x) q] + id[p (x) q] . id[p (x) q]")
    assert t.left is t.right and t.left.after is t.left.before
    assert t.left.after.obj is infer_type(t)[0]
    a = parse_object("(p (x) p*) (+) (p (x) p*)", Mode.CCB)
    assert a.left is a.right and a.left.right.inner is a.left.left


def test_definitions_from_another_mode_are_rejected():
    eta, hom = parse_arrow("eta[p,q]"), parse_object("p -o q")
    with pytest.raises(ModeViolation, match="binary eta/eps not allowed in ccb"):
        parse_arrow("id[q (x) p] . f", Mode.CCB, {"f": eta})
    with pytest.raises(ModeViolation, match="'-o' not allowed in dccb"):
        parse_object("p (+) a", Mode.DCCB, {"a": hom})
    with pytest.raises(ModeViolation, match="'-o' not allowed in ccb"):
        parse_arrow("id[a]", Mode.CCB, {"a": hom})
    dagger = parse_arrow("dg(sigma[p,q])", Mode.DCCB)
    with pytest.raises(ModeViolation, match="dagger not allowed in smcb"):
        parse_arrow("g . id[q (x) p]", Mode.SMCB, {"g": dagger})


def test_same_fields_different_kinds_differ():
    f, g = Id(P), Id(Q)
    for x, y in [(Tensor(P, Q), Oplus(P, Q)), (Tensor(P, Q), Hom(P, Q)),
                 (Compose(f, g), Plus(f, g)), (Plus(f, g), TensorMap(f, g)),
                 (Inj1(P, Q), Proj1(P, Q)), (Inj1(P, Q), Sigma(P, Q))]:
        assert x != y and hash(x) != hash(y)


def test_fields_stay_frozen():
    t = Compose(Id(P), Id(P))
    hash(t)
    infer_type(t)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.after = Id(Q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.name = "q"
    assert t.after == Id(P) and P.name == "p"


def test_type_error_text_does_not_depend_on_earlier_calls():
    expected = ("cannot compose at right.before: 'before' ends at p "
                "but 'after' starts at p (x) q")

    def bad_term():
        good = Compose(Proj1(P, Q), Inj1(P, Q))  # p -> p
        return good, Plus(Id(P), Compose(Id(P), Compose(Sigma(P, Q), good)))

    _, fresh = bad_term()
    with pytest.raises(TypeMismatch) as first:
        infer_type(fresh)
    with pytest.raises(TypeMismatch) as again:
        infer_type(fresh)
    good, bad = bad_term()
    assert infer_type(Plus(good, Id(P))) == (P, P)  # types `good` in a parent
    with pytest.raises(TypeMismatch) as typed_sub:
        infer_type(bad)
    assert str(first.value) == str(again.value) == str(typed_sub.value) == expected


_COMPOSE_FAILS = "id[p] . id[q]"
_PLUS_FAILS = "id[p] + id[q]"
_AT_COMPOSE = "cannot compose at {}: 'before' ends at q but 'after' starts at p"
_AT_PLUS = "cannot add at {}: left is p -> p but right is q -> q"


@pytest.mark.parametrize("text,expected", [
    # both sides fail: `before` is typed ahead of `after`, other kinds in
    # field order
    (f"({_COMPOSE_FAILS}) . ({_PLUS_FAILS})", _AT_PLUS.format("before")),
    (f"({_PLUS_FAILS}) . ({_COMPOSE_FAILS})", _AT_COMPOSE.format("before")),
    (f"({_COMPOSE_FAILS}) + ({_PLUS_FAILS})", _AT_COMPOSE.format("left")),
    (f"({_PLUS_FAILS}) + ({_COMPOSE_FAILS})", _AT_PLUS.format("left")),
    (f"({_COMPOSE_FAILS}) (x) ({_PLUS_FAILS})", _AT_COMPOSE.format("left")),
    (f"({_PLUS_FAILS}) (x) ({_COMPOSE_FAILS})", _AT_PLUS.format("left")),
    (f"({_COMPOSE_FAILS}) (+) ({_PLUS_FAILS})", _AT_COMPOSE.format("left")),
    (f"({_PLUS_FAILS}) (+) ({_COMPOSE_FAILS})", _AT_PLUS.format("left")),
    (f"hom({_COMPOSE_FAILS}, {_PLUS_FAILS})", _AT_COMPOSE.format("contra")),
    (f"hom({_PLUS_FAILS}, {_COMPOSE_FAILS})", _AT_PLUS.format("contra")),
    # failures inside a whisker and a dagger
    (f"[r -o {_COMPOSE_FAILS}]", _AT_COMPOSE.format("body")),
    (f"[r (x) q -o id[r] . ({_PLUS_FAILS})]", _AT_PLUS.format("body.before")),
    (f"dg({_COMPOSE_FAILS})", _AT_COMPOSE.format("inner")),
    (f"dg(id[r] + ({_PLUS_FAILS}))", _AT_PLUS.format("inner.right")),
    # one failing subterm on both sides, one object once parsed
    (f"(id[q] . ({_COMPOSE_FAILS})) + (({_COMPOSE_FAILS}) . id[p])",
     _AT_COMPOSE.format("left.before")),
    (f"(({_COMPOSE_FAILS}) (x) id[r]) . (id[r] (x) ({_COMPOSE_FAILS}))",
     _AT_COMPOSE.format("before.right")),
    # the side conditions at the top, and under a well-typed sibling
    ("id[p] . sigma[p,q]",
     "cannot compose at top: 'before' ends at q (x) p but 'after' starts at p"),
    ("sigma[p,q] + id[p (x) q]",
     "cannot add at top: left is p (x) q -> q (x) p but right is p (x) q -> p (x) q"),
    (f"(id[r] (x) ({_COMPOSE_FAILS})) . (sigma[p,q] . sigma[p,q] + id[p (x) q])",
     "cannot compose at before.left: 'before' ends at q (x) p but 'after' starts at p (x) q"),
])
def test_first_type_error_is_pinned(text, expected):
    def unshared(x):
        return type(x)(*[unshared(v) if isinstance(v, (Obj, Arrow)) else v
                         for v in (getattr(x, f) for f in x.__match_args__)])

    with pytest.raises(TypeMismatch) as parsed:
        parse_arrow(text, Mode.DCCB if "dg(" in text else Mode.SMCB)
    with pytest.raises(TypeMismatch) as built:
        infer_type(unshared(_parse_any(text, Arrow)))
    assert str(parsed.value) == str(built.value) == expected


def test_expand_derived_keeps_primitive_terms():
    t = parse_arrow("proj1[p,q] . inj1[p,q] + zero[p,p]")
    assert expand_derived(t) is t
    w = parse_arrow("[q -o sigma[p,r]] . [q -o id[p (x) r]]")
    assert expand_derived(w) is w
    d = parse_arrow("dg(eps[p]) . eps[p]", Mode.DCCB)
    assert expand_derived(d, Mode.DCCB) is d


def test_long_chain_decides_through_cli(tmp_path, capsys):
    chain = " . ".join(["id[p]"] * 2000)
    path = tmp_path / "chain.cob"
    path.write_text(f"check {chain} = id[p]\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(": equal\n")


# ---------------------------------------------------------------------------
# node table: fields and keywords declared once per kind

F, G = Id(P), Sigma(Q, R)
ONE_OF_EACH_ARROW = [
    Id(P), Alpha(P, Q, R), AlphaInv(P, Q, R), Lambda(P), LambdaInv(P),
    Sigma(P, Q), Eta(P, Q), Eps(P, Q), EtaC(P), EpsC(P), Inj1(P, Q),
    Inj2(P, Q), Proj1(P, Q), Proj2(P, Q), ZeroMap(P, Q), Compose(F, G),
    Plus(F, G), TensorMap(F, G), OplusMap(F, G), Whisker(P, G),
    HomMap(F, G), Dagger(G),
]
ONE_OF_EACH_OBJECT = [
    P, Unit(), Zero(), Tensor(P, Q), Oplus(P, Q), Hom(P, Q), Dual(P),
]


def _fields_of_kind(node, kind):
    values = (getattr(node, f) for f in node.__match_args__)
    return tuple(v for v in values if isinstance(v, kind))


def test_every_arrow_kind_rebuilds_from_its_children():
    assert len({type(t) for t in ONE_OF_EACH_ARROW}) == 22
    for t in ONE_OF_EACH_ARROW:
        kids = arrow_children(t)
        assert kids == _fields_of_kind(t, Arrow)
        assert rebuild_arrow(t, kids) == t
    assert rebuild_arrow(Compose(F, G), (G, F)) == Compose(G, F)
    assert rebuild_arrow(Whisker(P, G), (F,)) == Whisker(P, F)


def test_object_fields_in_declaration_order():
    for t in ONE_OF_EACH_ARROW:
        assert node_objects(t) == _fields_of_kind(t, Obj)
    assert node_objects(Alpha(R, P, Q)) == (R, P, Q)
    assert node_objects(ZeroMap(Q, P)) == (Q, P)
    for a in ONE_OF_EACH_OBJECT:
        assert object_children(a) == _fields_of_kind(a, Obj)
    assert object_children(Hom(Q, P)) == (Q, P)


def _parse_any(text, sort):
    """The term or formula of `text` as the parser builds it, in no dialect
    and without type checking, so ill-typed terms round-trip too."""
    p = syntax._Parser(tokenize(text), Mode.SMCB, {})
    t = p.expr(syntax._ARROW_OPS if sort is Arrow else syntax._OBJ_OPS)
    p.expect_eof()
    return t


def test_every_kind_keeps_the_node_contract():
    for t in ONE_OF_EACH_ARROW + ONE_OF_EACH_OBJECT:
        values = [getattr(t, f) for f in t.__match_args__]
        rebuilt = type(t)(*values)
        assert rebuilt == t and hash(rebuilt) == hash(t) and rebuilt is not t
        parsed = _parse_any(render_text(t), Arrow if isinstance(t, Arrow) else Obj)
        assert type(parsed) is type(t)
        assert parsed == t and hash(parsed) == hash(t)
        for f, v in zip(t.__match_args__, values):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f, v)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, f)
            assert getattr(t, f) is v
        assert not hasattr(t, "__dict__")
    assert Gen(name="p") == Gen("p") and Compose(before=G, after=F) == Compose(F, G)
    assert repr(Compose(Id(P), Whisker(Dual(Q), Sigma(Unit(), R)))) == (
        "Compose(after=Id(obj=Gen(name='p')), before=Whisker(obj=Dual(inner=Gen("
        "name='q')), body=Sigma(a=Unit(), b=Gen(name='r'))))")


def test_nodes_pickle_and_copy():
    t = parse_arrow("sigma[p,q] . (id[p] (x) id[q]) + zero[p (x) q, q (x) p]")
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again == t and hash(again) == hash(t)


def test_every_generator_typing_rule():
    PQ, QP = Tensor(P, Q), Tensor(Q, P)
    expected = {
        Id(P): (P, P),
        Alpha(P, Q, R): (Tensor(P, Tensor(Q, R)), Tensor(PQ, R)),
        AlphaInv(P, Q, R): (Tensor(PQ, R), Tensor(P, Tensor(Q, R))),
        Lambda(P): (Tensor(Unit(), P), P),
        LambdaInv(P): (P, Tensor(Unit(), P)),
        Sigma(P, Q): (PQ, QP),
        Eta(P, Q): (Q, Hom(P, PQ)),
        Eps(P, Q): (Tensor(P, Hom(P, Q)), Q),
        EtaC(P): (Unit(), Tensor(Dual(P), P)),
        EpsC(P): (Tensor(P, Dual(P)), Unit()),
        Inj1(P, Q): (P, Oplus(P, Q)),
        Inj2(P, Q): (Q, Oplus(P, Q)),
        Proj1(P, Q): (Oplus(P, Q), P),
        Proj2(P, Q): (Oplus(P, Q), Q),
        ZeroMap(P, Q): (P, Q),
    }
    assert {type(t) for t in expected} == {
        type(t) for t in ONE_OF_EACH_ARROW if not arrow_children(t)}
    for t, ty in expected.items():
        assert infer_type(t) == ty


@pytest.mark.parametrize("text,mode,kind", [
    ("id[p]", Mode.SMCB, Id), ("alpha[p,q,r]", Mode.SMCB, Alpha),
    ("alpha'[p,q,r]", Mode.SMCB, AlphaInv), ("lambda[p]", Mode.SMCB, Lambda),
    ("lambda'[p]", Mode.SMCB, LambdaInv), ("sigma[p,q]", Mode.SMCB, Sigma),
    ("eta[p,q]", Mode.SMCB, Eta), ("eps[p,q]", Mode.SMCB, Eps),
    ("eta[p]", Mode.CCB, EtaC), ("eps[p]", Mode.CCB, EpsC),
    ("inj1[p,q]", Mode.SMCB, Inj1), ("inj2[p,q]", Mode.SMCB, Inj2),
    ("proj1[p,q]", Mode.SMCB, Proj1), ("proj2[p,q]", Mode.SMCB, Proj2),
    ("zero[p,q]", Mode.SMCB, ZeroMap),
])
def test_every_keyword_arity_parses_to_its_kind(text, mode, kind):
    t = parse_arrow(text, mode)
    assert type(t) is kind
    assert render_arrow(t) == text


def test_arity_error_texts():
    with pytest.raises(ParseError) as exc:
        parse_arrow("eta[p,q,r]")
    assert exc.value.message == "eta takes 1 or 2 object arguments, got 3"
    with pytest.raises(ParseError) as exc:
        parse_arrow("id[p,q]")
    assert exc.value.message == "id takes 1 object arguments, got 2"


def test_reserved_words():
    for word in ["id", "alpha", "lambda", "sigma", "eta", "eps", "inj1",
                 "inj2", "proj1", "proj2", "zero", "hom", "dg", "I", "mode",
                 "obj", "arrow", "check", "normalize", "interpret",
                 "decompose"]:
        assert is_reserved_word(word) and is_reserved_word(word + "'")
    assert not is_reserved_word("p") and not is_reserved_word("idx")


# ---------------------------------------------------------------------------
# tokenizer and parser outputs, recorded as exact values and digests.  These
# gates are for rewrites of the front end, which must not change a token, a
# term or an error text.  Re-record them only in a change that means to.


def _tokens_or_error(text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e)


TOKEN_EDGES = {
    '':
        [('eof', '', 0)],
    '   \t\r\n  ':
        [('eof', '', 8)],
    'id[p]\t.\tsigma[p,q]':
        [('ident', 'id', 0), ('op', '[', 2), ('ident', 'p', 3), ('op', ']', 4), ('op', '.', 6), ('ident', 'sigma', 8), ('op', '[', 13), ('ident', 'p', 14), ('op', ',', 15), ('ident', 'q', 16), ('op', ']', 17), ('eof', '', 18)],
    'p\r\n(x)\rq':
        [('ident', 'p', 0), ('op', '(x)', 3), ('ident', 'q', 7), ('eof', '', 8)],
    'p\nq':
        [('ident', 'p', 0), ('ident', 'q', 2), ('eof', '', 3)],
    'id[p] # comment . sigma':
        [('ident', 'id', 0), ('op', '[', 2), ('ident', 'p', 3), ('op', ']', 4), ('eof', '', 23)],
    '# only a comment':
        [('eof', '', 16)],
    'id[p]#x\n. id[q]':
        [('ident', 'id', 0), ('op', '[', 2), ('ident', 'p', 3), ('op', ']', 4), ('eof', '', 15)],
    "f' . g'' . h'x":
        [('ident', "f'", 0), ('op', '.', 3), ('ident', "g''", 5), ('op', '.', 9), ('ident', "h'", 11), ('ident', 'x', 13), ('eof', '', 14)],
    "p''''":
        [('ident', "p''''", 0), ('eof', '', 5)],
    "p'q'":
        [('ident', "p'", 0), ('ident', "q'", 2), ('eof', '', 4)],
    "p'_":
        [('ident', "p'", 0), ('ident', '_', 2), ('eof', '', 3)],
    "'p":
        'col 1: unexpected character "\'"',
    'p -o q':
        [('ident', 'p', 0), ('op', '-o', 2), ('ident', 'q', 5), ('eof', '', 6)],
    'p->q':
        [('ident', 'p', 0), ('op', '->', 1), ('ident', 'q', 3), ('eof', '', 4)],
    'p-oq':
        [('ident', 'p', 0), ('op', '-o', 1), ('ident', 'q', 3), ('eof', '', 4)],
    'p - q':
        "col 3: unexpected character '-'",
    'p -> -o q':
        [('ident', 'p', 0), ('op', '->', 2), ('op', '-o', 5), ('ident', 'q', 8), ('eof', '', 9)],
    '(x)':
        [('op', '(x)', 0), ('eof', '', 3)],
    '( x )':
        [('op', '(', 0), ('ident', 'x', 2), ('op', ')', 4), ('eof', '', 5)],
    '(x':
        [('op', '(', 0), ('ident', 'x', 1), ('eof', '', 2)],
    '(xy)':
        [('op', '(', 0), ('ident', 'xy', 1), ('op', ')', 3), ('eof', '', 4)],
    '(p)(x)(q)':
        [('op', '(', 0), ('ident', 'p', 1), ('op', ')', 2), ('op', '(x)', 3), ('op', '(', 6), ('ident', 'q', 7), ('op', ')', 8), ('eof', '', 9)],
    '(+)':
        [('op', '(+)', 0), ('eof', '', 3)],
    '( + )':
        [('op', '(', 0), ('op', '+', 2), ('op', ')', 4), ('eof', '', 5)],
    '(+':
        [('op', '(', 0), ('op', '+', 1), ('eof', '', 2)],
    'p @ q':
        "col 3: unexpected character '@'",
    'p\xa0q':
        "col 2: unexpected character '\\xa0'",
    'p\u2003q':
        "col 2: unexpected character '\\u2003'",
    'p\x0bq':
        "col 2: unexpected character '\\x0b'",
    'é':
        [('ident', 'é', 0), ('eof', '', 1)],
    'é . p':
        [('ident', 'é', 0), ('op', '.', 2), ('ident', 'p', 4), ('eof', '', 5)],
    'pé':
        [('ident', 'pé', 0), ('eof', '', 2)],
    "Éa_b'":
        [('ident', "Éa_b'", 0), ('eof', '', 5)],
    "α'β":
        [('ident', "α'", 0), ('ident', 'β', 2), ('eof', '', 3)],
    '½':
        "col 1: unexpected character '½'",
    'p½':
        [('ident', 'p½', 0), ('eof', '', 2)],
    '²':
        [('num', '²', 0), ('eof', '', 1)],
    '1²3':
        [('num', '1²3', 0), ('eof', '', 3)],
    'x²':
        [('ident', 'x²', 0), ('eof', '', 2)],
    '٣':
        [('num', '٣', 0), ('eof', '', 1)],
    'p٣':
        [('ident', 'p٣', 0), ('eof', '', 2)],
    'ⅷ':
        "col 1: unexpected character 'ⅷ'",
    'pⅷ':
        [('ident', 'pⅷ', 0), ('eof', '', 2)],
    '007':
        [('num', '007', 0), ('eof', '', 3)],
    '0x1':
        [('num', '0', 0), ('ident', 'x1', 1), ('eof', '', 3)],
    '12ab':
        [('num', '12', 0), ('ident', 'ab', 2), ('eof', '', 4)],
    '_a_b':
        [('ident', '_a_b', 0), ('eof', '', 4)],
    'a_':
        [('ident', 'a_', 0), ('eof', '', 2)],
    '__':
        [('ident', '__', 0), ('eof', '', 2)],
    'id[p]=id[p]:x,y;z+w*':
        [('ident', 'id', 0), ('op', '[', 2), ('ident', 'p', 3), ('op', ']', 4), ('op', '=', 5), ('ident', 'id', 6), ('op', '[', 8), ('ident', 'p', 9), ('op', ']', 10), ('op', ':', 11), ('ident', 'x', 12), ('op', ',', 13), ('ident', 'y', 14), ('op', ';', 15), ('ident', 'z', 16), ('op', '+', 17), ('ident', 'w', 18), ('op', '*', 19), ('eof', '', 20)],
}


def test_tokenize_edge_corpus():
    for text, expected in TOKEN_EDGES.items():
        assert _tokens_or_error(text) == expected, text


#: names outside ASCII exercise the tokenizer's `str.isalpha`/`isdigit` rules
TOKEN_GENS = ("p", "q", "é", "x²", "p½", "ab_1", "α'", "z٣")
TOKEN_DIGEST = "77e892c13b5b0e4229717a179374e53662c9fa730bec380f6a0dc3c7c0da1ee1"


def test_tokenize_digest_on_generated_terms():
    rng = random.Random(zlib.crc32(b"tokens"))
    spaces = [" ", " ", "", "\t", "\r\n", "  "]
    digest = hashlib.sha256()
    for mode in Mode:
        for _ in range(150):
            t = random_arrow(rng, mode, depth=4, obj_depth=3, gens=TOKEN_GENS)
            text = "".join(c if c != " " else rng.choice(spaces)
                           for c in render_arrow(t))
            if rng.random() < 0.2:
                text += " # " + render_arrow(t)
            digest.update(repr(_tokens_or_error(text)).encode())
    assert digest.hexdigest() == TOKEN_DIGEST


_MUTANT_CHARS = "()[],.;+*-o>x#'@ \t0I pqé½²"
_MUTANT_WORDS = ("id", "eta", "eps", "dg", "hom", "sigma", "alpha'", "zero",
                 "p", "q (x) r", "p -o q", "p*", "I", "0", "f", "a", "(", ")")
#: rewrites that keep the text parseable but may break its type or mode
_MUTANT_SWAPS = (("p", "q"), ("q", "r"), ("(x)", "(+)"), ("(+)", "(x)"),
                 ("eta", "eps"), ("eps", "eta"), ("inj1", "proj1"),
                 ("proj2", "inj2"), ("-o", "(x)"), ("*", ""), (",", "*,"),
                 ("]", "*]"), ("p]", "p,q]"), ("id", "dg(id"), ("I", "0"))


def _mutate(rng, text):
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 6))
        match rng.randrange(8):
            case 0:
                text = text[:i] + text[j:]
            case 1:
                text = text[:i] + rng.choice(_MUTANT_CHARS) + text[i:]
            case 2:
                text = text[:i] + rng.choice(_MUTANT_WORDS) + text[j:]
            case 3:
                text = text[:i] + text[j:] + text[i:j]
            case _:
                old, new = rng.choice(_MUTANT_SWAPS)
                k = text.find(old, i)
                k = text.find(old) if k < 0 else k
                if k >= 0:
                    text = text[:k] + new + text[k + len(old):]
    return text


def _parse_outcome(text, mode, defs):
    """`ok` and the rendered term with its type, or the error class and
    text."""
    try:
        if defs is None:
            return "ok", render_object(parse_object(text, mode))
        t = parse_arrow(text, mode, defs)
    except (ParseError, ModeViolation, TypeMismatch) as e:
        return type(e).__name__, str(e)
    src, tgt = infer_type(t)
    return "ok", f"{render_arrow(t)} : {render_object(src)} -> {render_object(tgt)}"


PARSE_DIGEST = "c2933d139415bd6b6c7a3d95c4912585a54277965bfbbb0939e7d4fc6559d104"


def test_parse_digest_on_mutated_terms():
    """Mutated terms and objects parsed in every mode, with definitions
    drawn in a random mode, so mode violations come from the text and from
    the definitions."""
    rng = random.Random(zlib.crc32(b"mutants"))
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for _ in range(400):
        gen_mode, def_mode = rng.choice(list(Mode)), rng.choice(list(Mode))
        defs = {"f": random_arrow(rng, def_mode, depth=1, obj_depth=1),
                "a": random_object(rng, def_mode, depth=2)}
        cases = [(_mutate(rng, render_arrow(random_arrow(rng, gen_mode, 3))), defs),
                 (_mutate(rng, render_object(random_object(rng, gen_mode, 3))), None)]
        for text, d in cases:
            for mode in Mode:
                kind, out = _parse_outcome(text, mode, d)
                kinds[kind] += 1
                digest.update(f"{mode} {text!r} {kind} {out}\n".encode())
    for kind in ("ok", "ParseError", "ModeViolation", "TypeMismatch"):
        assert kinds[kind] >= 50, kinds
    assert digest.hexdigest() == PARSE_DIGEST

"""Seeded random generation of objects and well-typed arrow terms, plus a
catalogue of equality-preserving rewrites.

The rewrites implement single equational steps (unit insertion, functoriality
fusion, naturality slides, triangle and biproduct laws, distributivity), so a
chain of them applied to a seed term yields a pair of known-equal terms
without consulting the decision procedure under test.

Each draw picks from a list of the builders themselves: node classes, or
small functions for the options that draw further.  The order, repeats and
conditions of each list fix what every seed draws, and so pin the axiom
battery, the seeded test corpora and the benchmark inputs.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable

from .biproduct import is_proper
from .syntax import (
    Alpha, AlphaInv, Arrow, Compose, Dagger, Dual, Eps, EpsC, Eta, EtaC,
    Gen, Hom, HomMap, Id, Inj1, Inj2, Lambda, LambdaInv, Mode, Obj, Oplus,
    OplusMap, Plus, Proj1, Proj2, Sigma, Tensor, TensorMap, Unit, Whisker,
    Zero, ZeroMap, arrow_children, infer_type, rebuild_arrow,
)

DEFAULT_GENS = ("p", "q", "r")

#: leaf generators of `random_arrow`, before the dialect's eta and eps; the
#: order and the repeated Id fix the draws of every seed
_LEAVES = (Id, Id, Alpha, AlphaInv, Lambda, LambdaInv, Sigma, Inj1, Inj2,
           Proj1, Proj2, ZeroMap)


@cache
def _object_leaves(gens: tuple[str, ...]) -> tuple[Obj, ...]:
    """The leaves `random_object` draws from; each generator twice."""
    return (*map(Gen, gens),) * 2 + (Unit(), Zero())


def random_object(rng: random.Random, mode: Mode = Mode.SMCB, depth: int = 2,
                  gens: tuple[str, ...] = DEFAULT_GENS) -> Obj:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(_object_leaves(gens))
    kind = rng.choice((Tensor, Oplus, Hom) if mode is Mode.SMCB else (Tensor, Oplus, Dual))
    return kind(*[random_object(rng, mode, depth - 1, gens) for _ in kind._objs])


#: the builders `same_type_variant` draws from, given `f` and its endpoints
_VARIANTS = (lambda f, a, b: f, lambda f, a, b: ZeroMap(a, b),
             lambda f, a, b: Plus(f, ZeroMap(a, b)),
             lambda f, a, b: Compose(f, Id(a)), lambda f, a, b: Compose(Id(b), f),
             lambda f, a, b: Plus(f, f))


def same_type_variant(rng: random.Random, f: Arrow) -> Arrow:
    """Another term with the same source and target as `f`."""
    return _VARIANTS[rng.randrange(6)](f, *infer_type(f))


def random_arrow(rng: random.Random, mode: Mode = Mode.SMCB, depth: int = 2,
                 obj_depth: int = 2, gens: tuple[str, ...] = DEFAULT_GENS) -> Arrow:
    """A random well-typed term legal for `mode` (sugar kinds included)."""
    if depth <= 0 or rng.random() < 0.3:
        gen = rng.choice(_LEAVES + ((Eta, Eps) if mode is Mode.SMCB else (EtaC, EpsC)))
        return gen(*[random_object(rng, mode, rng.randint(0, obj_depth), gens)
                     for _ in gen._objs])
    sub = lambda: random_arrow(rng, mode, depth - 1, obj_depth, gens)
    on = lambda a: random_arrow_with_source(rng, a, mode, depth - 1, obj_depth, gens)
    kinds = [lambda: _then(sub(), on)] * 2 + [
        lambda: _plus_variant(rng, sub()), lambda: TensorMap(sub(), sub()),
        lambda: OplusMap(sub(), sub())]
    if mode is Mode.SMCB:
        kinds += [lambda: Whisker(random_object(rng, mode, 1, gens), sub()),
                  lambda: HomMap(sub(), sub())]
    if mode is Mode.DCCB:
        kinds += [lambda: Dagger(sub())] * 2
    return rng.choice(kinds)()


def random_arrow_with_source(rng: random.Random, src: Obj,
                             mode: Mode = Mode.SMCB, depth: int = 2,
                             obj_depth: int = 2,
                             gens: tuple[str, ...] = DEFAULT_GENS) -> Arrow:
    """A random well-typed term whose source is exactly `src`."""
    ro = lambda: random_object(rng, mode, rng.randint(0, obj_depth), gens)
    on = lambda a: random_arrow_with_source(rng, a, mode, depth - 1, obj_depth, gens)
    options = [lambda: Id(src)] * 2 + [
        lambda: ZeroMap(src, ro()), lambda: Inj1(src, ro()),
        lambda: Inj2(ro(), src), lambda: LambdaInv(src)]
    if mode is Mode.SMCB:
        options.append(lambda: Eta(ro(), src))
    if mode is not Mode.SMCB and src == Unit():
        options.append(lambda: EtaC(ro()))
    match src:
        case Tensor(x, y):
            options += [lambda: Sigma(x, y), lambda: TensorMap(on(x), on(y))]
            if isinstance(y, Tensor):
                options.append(lambda: Alpha(x, y.left, y.right))
            if isinstance(x, Tensor):
                options.append(lambda: AlphaInv(x.left, x.right, y))
            if x == Unit():
                options.append(lambda: Lambda(y))
            if mode is Mode.SMCB and isinstance(y, Hom) and y.left == x:
                options.append(lambda: Eps(x, y.right))
            if mode is not Mode.SMCB and y == Dual(x):
                options.append(lambda: EpsC(x))
        case Oplus(x, y):
            options += [lambda: Proj1(x, y), lambda: Proj2(x, y),
                        lambda: OplusMap(on(x), on(y))]
        case Hom(x, y) if mode is Mode.SMCB:
            options.append(lambda: Whisker(x, on(y)))
    if depth > 0:
        options += [lambda: _then(on(src), on)] * 2 + [
            lambda: _plus_variant(rng, on(src))]
    return rng.choice(options)()


def _then(f: Arrow, on: Callable[[Obj], Arrow]) -> Arrow:
    """`f` followed by the arrow that `on` draws out of its target."""
    return Compose(on(infer_type(f)[1]), f)


def _plus_variant(rng: random.Random, f: Arrow) -> Arrow:
    """`f` plus a `same_type_variant` of it."""
    return Plus(f, same_type_variant(rng, f))


#: arrows `random_proper_arrow` draws before it gives up
_PROPER_TRIES = 200


def random_proper_arrow(rng: random.Random, mode: Mode = Mode.SMCB,
                        depth: int = 2, obj_depth: int = 2) -> Arrow:
    """A random term whose endpoints are both proper."""
    for _ in range(_PROPER_TRIES):
        f = random_arrow(rng, mode, depth, obj_depth)
        a, b = infer_type(f)
        if is_proper(a) and is_proper(b):
            return f
    return Id(Gen(DEFAULT_GENS[0]))


# ---------------------------------------------------------------------------
# Term positions


def replace_at(t: Arrow, path: tuple[int, ...], new: Arrow) -> Arrow:
    if not path:
        return new
    kids = list(arrow_children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild_arrow(t, tuple(kids))


# ---------------------------------------------------------------------------
# Equality-preserving rewrites

Rule = Callable[[random.Random, Mode, Arrow], "Arrow | None"]


def _rw_insert_id(rng, mode, t):
    a, b = infer_type(t)
    return Compose(t, Id(a)) if rng.random() < 0.5 else Compose(Id(b), t)


def _rw_drop_id(rng, mode, t):
    match t:
        case Compose(x, Id()):
            return x
        case Compose(Id(), x):
            return x
    return None


def _rw_reassociate(rng, mode, t):
    match t:
        case Compose(h, Compose(g, f)):
            return Compose(Compose(h, g), f)
        case Compose(Compose(h, g), f):
            return Compose(h, Compose(g, f))
    return None


def _rw_insert_zero(rng, mode, t):
    a, b = infer_type(t)
    return Plus(t, ZeroMap(a, b))


def _rw_drop_zero(rng, mode, t):
    match t:
        case Plus(x, ZeroMap()):
            return x
        case Plus(ZeroMap(), x):
            return x
    return None


def _rw_plus_comm(rng, mode, t):
    match t:
        case Plus(l, r):
            return Plus(r, l)
    return None


def _rw_plus_assoc(rng, mode, t):
    match t:
        case Plus(a, Plus(b, c)):
            return Plus(Plus(a, b), c)
        case Plus(Plus(a, b), c):
            return Plus(a, Plus(b, c))
    return None


def _rw_tensor_fuse(rng, mode, t):
    match t:
        case Compose(TensorMap(f2, g2), TensorMap(f1, g1)):
            return TensorMap(Compose(f2, f1), Compose(g2, g1))
        case TensorMap(Compose(f2, f1), Compose(g2, g1)):
            return Compose(TensorMap(f2, g2), TensorMap(f1, g1))
    return None


def _rw_oplus_fuse(rng, mode, t):
    match t:
        case Compose(OplusMap(f2, g2), OplusMap(f1, g1)):
            return OplusMap(Compose(f2, f1), Compose(g2, g1))
        case OplusMap(Compose(f2, f1), Compose(g2, g1)):
            return Compose(OplusMap(f2, g2), OplusMap(f1, g1))
    return None


def _rw_id_fuse(rng, mode, t):
    match t:
        case TensorMap(Id(a), Id(b)):
            return Id(Tensor(a, b))
        case OplusMap(Id(a), Id(b)):
            return Id(Oplus(a, b))
        case Whisker(a, Id(b)):
            return Id(Hom(a, b))
        case Id(Tensor(a, b)):
            return TensorMap(Id(a), Id(b))
        case Id(Oplus(a, b)):
            return OplusMap(Id(a), Id(b))
        case Id(Hom(a, b)):
            return Whisker(a, Id(b))
    return None


def _rw_whisker_fuse(rng, mode, t):
    match t:
        case Compose(Whisker(a, g2), Whisker(a2, g1)) if a == a2:
            return Whisker(a, Compose(g2, g1))
        case Whisker(a, Compose(g2, g1)):
            return Compose(Whisker(a, g2), Whisker(a, g1))
    return None


def _rw_sigma_natural(rng, mode, t):
    match t:
        case Compose(Sigma(), TensorMap(f, g)):
            fs, _ = infer_type(f)
            gs, _ = infer_type(g)
            return Compose(TensorMap(g, f), Sigma(fs, gs))
        case Compose(TensorMap(g, f), Sigma()):
            _, ft = infer_type(f)
            _, gt = infer_type(g)
            return Compose(Sigma(ft, gt), TensorMap(f, g))
    return None


def _rw_sigma_cancel(rng, mode, t):
    match t:
        case Compose(Sigma(b2, a2), Sigma(a, b)) if a == a2 and b == b2:
            return Id(Tensor(a, b))
        case Id(Tensor(a, b)):
            return Compose(Sigma(b, a), Sigma(a, b))
    return None


def _rw_assoc_cancel(rng, mode, t):
    match t:
        case Compose(AlphaInv(a, b, c), Alpha(a2, b2, c2)) if (a, b, c) == (a2, b2, c2):
            return Id(Tensor(a, Tensor(b, c)))
        case Compose(Alpha(a, b, c), AlphaInv(a2, b2, c2)) if (a, b, c) == (a2, b2, c2):
            return Id(Tensor(Tensor(a, b), c))
    return None


def _rw_unit_cancel(rng, mode, t):
    match t:
        case Compose(Lambda(a), LambdaInv(a2)) if a == a2:
            return Id(a)
        case Compose(LambdaInv(a), Lambda(a2)) if a == a2:
            return Id(Tensor(Unit(), a))
    return None


def _rw_triangle(rng, mode, t):
    match t:
        case Compose(Whisker(a, Eps(a2, b)), Eta(a3, h)) if (
                a == a2 == a3 and h == Hom(a, b)):
            return Id(Hom(a, b))
        case Compose(Eps(a, ab), TensorMap(Id(a2), Eta(a3, b))) if (
                a == a2 == a3 and ab == Tensor(a, b)):
            return Id(Tensor(a, b))
        case Id(Hom(a, b)):
            return Compose(Whisker(a, Eps(a, b)), Eta(a, Hom(a, b)))
        case Id(Tensor(a, b)):
            return Compose(Eps(a, Tensor(a, b)), TensorMap(Id(a), Eta(a, b)))
    return None


def _rw_proj_inj(rng, mode, t):
    match t:
        case Compose(Proj1(a, b), Inj1(a2, b2)) if (a, b) == (a2, b2):
            return Id(a)
        case Compose(Proj2(a, b), Inj2(a2, b2)) if (a, b) == (a2, b2):
            return Id(b)
        case Compose(Proj2(a, b), Inj1(a2, b2)) if (a, b) == (a2, b2):
            return ZeroMap(a, b)
        case Compose(Proj1(a, b), Inj2(a2, b2)) if (a, b) == (a2, b2):
            return ZeroMap(b, a)
        case Id(a):
            other = random_object(rng, mode, 1)
            return Compose(Proj1(a, other), Inj1(a, other))
    return None


def _rw_biproduct_resolution(rng, mode, t):
    match t:
        case Id(Oplus(a, b)):
            return Plus(Compose(Inj1(a, b), Proj1(a, b)),
                        Compose(Inj2(a, b), Proj2(a, b)))
        case Plus(Compose(Inj1(a, b), Proj1(a2, b2)),
                  Compose(Inj2(a3, b3), Proj2(a4, b4))) if (
                (a, b) == (a2, b2) == (a3, b3) == (a4, b4)):
            return Id(Oplus(a, b))
    return None


def _rw_distribute(rng, mode, t):
    match t:
        case Compose(g, Plus(f1, f2)):
            return Plus(Compose(g, f1), Compose(g, f2))
        case Compose(Plus(g1, g2), f):
            return Plus(Compose(g1, f), Compose(g2, f))
        case Plus(Compose(g, f1), Compose(g2, f2)) if g == g2:
            return Compose(g, Plus(f1, f2))
        case Plus(Compose(g1, f), Compose(g2, f2)) if f == f2:
            return Compose(Plus(g1, g2), f)
    return None


def _rw_zero_absorb(rng, mode, t):
    match t:
        case Compose(ZeroMap(_, c), f):
            return ZeroMap(infer_type(f)[0], c)
        case Compose(f, ZeroMap(a, _)):
            return ZeroMap(a, infer_type(f)[1])
    return None


def _rw_unitor_natural(rng, mode, t):
    match t:
        case Compose(f, Lambda(a)) if infer_type(f)[0] == a:
            return Compose(Lambda(infer_type(f)[1]), TensorMap(Id(Unit()), f))
        case Compose(Lambda(a1), TensorMap(Id(Unit()), f)) if infer_type(f)[1] == a1:
            return Compose(f, Lambda(infer_type(f)[0]))
    return None


RULES: tuple[Rule, ...] = (
    _rw_insert_id, _rw_drop_id, _rw_reassociate, _rw_insert_zero,
    _rw_drop_zero, _rw_plus_comm, _rw_plus_assoc, _rw_tensor_fuse,
    _rw_oplus_fuse, _rw_id_fuse, _rw_whisker_fuse, _rw_sigma_natural,
    _rw_sigma_cancel, _rw_assoc_cancel, _rw_unit_cancel, _rw_triangle,
    _rw_proj_inj, _rw_biproduct_resolution, _rw_distribute, _rw_zero_absorb,
    _rw_unitor_natural,
)

_SMCB_ONLY = {_rw_whisker_fuse, _rw_triangle}


def rewrite_once(rng: random.Random, t: Arrow, mode: Mode = Mode.SMCB) -> Arrow | None:
    """One random equality-preserving step applied at a random position, or
    None if no rule applies anywhere."""
    rules = [r for r in RULES
             if mode is Mode.SMCB or r not in _SMCB_ONLY]
    candidates = []
    # positions in pre-order, children in field order (the sorted order of
    # their paths): the order of `candidates` fixes what each seed draws
    stack = [((), t)]
    while stack:
        path, sub = stack.pop()
        for rule in rules:
            out = rule(rng, mode, sub)
            if out is not None and out != sub:
                candidates.append((path, out))
        kids = arrow_children(sub)
        stack += [(path + (i,), kids[i]) for i in reversed(range(len(kids)))]
    if not candidates:
        return None
    path, out = candidates[rng.randrange(len(candidates))]
    return replace_at(t, path, out)


def random_equal_pair(rng: random.Random, steps: int,
                      mode: Mode = Mode.SMCB, depth: int = 2,
                      obj_depth: int = 2) -> tuple[Arrow, Arrow]:
    """A pair of terms related by up to `steps` axiom steps; endpoints proper."""
    seed = random_proper_arrow(rng, mode, depth, obj_depth)
    out = seed
    for _ in range(steps):
        nxt = rewrite_once(rng, out, mode)
        if nxt is not None:
            out = nxt
    return seed, out

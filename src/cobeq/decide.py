"""The equality decision procedure and the axiom self-test battery.

Two terms with the same endpoints are compared through their matrix images.
Unequal images always refute equality; equal images certify it whenever
both endpoints are proper.  On a non-proper endpoint with equal images the
verdict is Inconclusive: neither answer is justified there.  Only a hom
(`-o`) can be improper, so in the compact closed dialects, which have no
hom, equal images always mean `equal`.  The verdict depends on the two terms
only; no dialect is passed in.

Both terms are evaluated as written: `interpret_arrow` has a direct case for
every derived kind, so no expansion runs first.

The axiom battery is one table, `FAMILIES`.  Each `AxiomFamily` names its
dialects and a draw spec, a space-separated list of metavariables in draw
order: `a` is an object; `f:a>b` is an arrow, drawn from `a` when `a` is
already bound and free otherwise, whose named endpoints are bound (either
may be left unnamed, as in `f:>b` or `f:>`); `g~f` is a same-type variant of
`f`.  Its `laws` function takes the bound names as keywords and returns the
(lhs, rhs) pairs of one instance.  The generators are called through this
module's globals, so rebinding them here reaches every draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .biproduct import improper_subformula
from .cob import CobMatrix, cardinality, matrix_to_json, matrix_to_text
from .generate import (
    DEFAULT_GENS, random_arrow, random_arrow_with_source, random_object,
    same_type_variant,
)
from .interp import interpret_arrow
from .syntax import (
    Alpha, AlphaInv, Arrow, Compose, Dagger, Dual, Eps, EpsC, Eta, EtaC,
    Hom, HomMap, Id, Inj1, Inj2, Lambda, LambdaInv, Mode, Oplus, OplusMap,
    Plus, Proj1, Proj2, Sigma, Tensor, TensorMap, TypeMismatch, Unit,
    Whisker, Zero, ZeroMap, infer_type, render_arrow, render_object,
)
# not used here: bench/layers.py rebinds cobeq.decide.expand_derived by name
from .syntax import expand_derived  # noqa: F401


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equality query.

    `not-equal` always means the images differ.  `equal` is backed either by
    syntactic identity or by equal images over proper endpoints.
    `inconclusive` is reserved for equal images over a non-proper endpoint,
    where faithfulness is not available.
    """

    kind: str  # "equal" | "not-equal" | "inconclusive"
    reason: str = ""
    lhs_image: CobMatrix | None = None
    rhs_image: CobMatrix | None = None

    def summary(self) -> str:
        if self.kind == "inconclusive":
            return f"inconclusive: {self.reason}"
        return self.kind

    def to_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.reason:
            out["reason"] = self.reason
        if self.lhs_image is not None and self.rhs_image is not None:
            out["certificate"] = {
                "lhs_image": matrix_to_json(self.lhs_image),
                "rhs_image": matrix_to_json(self.rhs_image),
            }
        return out


def card_matrix(t: Arrow) -> tuple[tuple[int, ...], ...]:
    """Entrywise multiset sizes of the image of `t`."""
    return cardinality(interpret_arrow(t))


def decide_equal(f: Arrow, g: Arrow, *, certificate: bool = False) -> Verdict:
    """Decide whether two terms denote the same arrow.

    Both terms are evaluated as written, and the verdict depends on them
    alone.  With `certificate=True` a not-equal verdict carries both images,
    whose serializations reproduce the difference.
    """
    fty, gty = infer_type(f), infer_type(g)
    if fty != gty:
        raise TypeMismatch(
            f"cannot compare {render_object(fty[0])} -> {render_object(fty[1])} "
            f"with {render_object(gty[0])} -> {render_object(gty[1])}")
    if f == g:
        return Verdict("equal")
    mf, mg = interpret_arrow(f), interpret_arrow(g)
    if mf != mg:
        if certificate:
            return Verdict("not-equal", lhs_image=mf, rhs_image=mg)
        return Verdict("not-equal")
    src, tgt = fty
    bad = improper_subformula(src) or improper_subformula(tgt)
    if bad is None:
        return Verdict("equal")
    return Verdict("inconclusive",
                   reason=f"endpoint subformula {render_object(bad)} is not proper")


# ---------------------------------------------------------------------------
# Axiom families


@dataclass(frozen=True)
class AxiomFamily:
    """One family of laws over the metavariables that `spec` draws (see the
    module docstring).  An arrow drawn free has depth `depth`; one drawn
    from a bound source has depth 1."""

    name: str
    modes: frozenset[Mode]
    spec: str
    laws: Callable[..., list[tuple[Arrow, Arrow]]]
    depth: int = 1

    def build(self, rng: random.Random, mode: Mode, od: int,
              gens: tuple[str, ...]) -> list[tuple[Arrow, Arrow]]:
        env: dict = {}
        for var in self.spec.split():
            name, colon, ends = var.partition(":")
            if colon:
                src, _, tgt = ends.partition(">")
                if src in env:
                    f = random_arrow_with_source(rng, env[src], mode, 1, od, gens)
                    src = ""  # bound already
                else:
                    f = random_arrow(rng, mode, self.depth, od, gens)
                if src or tgt:
                    env.update((e, o) for e, o in zip((src, tgt), infer_type(f)) if e)
                env[name] = f
            elif "~" in var:
                name, _, of = var.partition("~")
                env[name] = same_type_variant(rng, env[of])
            else:
                env[var] = random_object(rng, mode, od, gens)
        return self.laws(**env)


_ALL = frozenset(Mode)
_SMCB = frozenset({Mode.SMCB})
_CC = frozenset({Mode.CCB, Mode.DCCB})
_DCCB = frozenset({Mode.DCCB})

#: The core equational presentation (one entry per family) followed by the
#: derived laws and the compact closed / dagger extensions.
FAMILIES: tuple[AxiomFamily, ...] = (
    AxiomFamily("category-laws", _ALL, "f:a>b g:b>c h:c>", lambda f, a, b, g, h, **_: [
        (Compose(f, Id(a)), f),
        (Compose(Id(b), f), f),
        (Compose(Compose(h, g), f), Compose(h, Compose(g, f))),
    ], depth=2),
    AxiomFamily("tensor-functorial", _ALL, "a b f1:>x f2:x> g1:>y g2:y>",
                lambda a, b, f1, f2, g1, g2, **_: [
        (TensorMap(Id(a), Id(b)), Id(Tensor(a, b))),
        (Compose(TensorMap(f2, g2), TensorMap(f1, g1)),
         TensorMap(Compose(f2, f1), Compose(g2, g1))),
    ]),
    AxiomFamily("oplus-functorial", _ALL, "a b f1:>x f2:x> g1:>y g2:y>",
                lambda a, b, f1, f2, g1, g2, **_: [
        (OplusMap(Id(a), Id(b)), Id(Oplus(a, b))),
        (Compose(OplusMap(f2, g2), OplusMap(f1, g1)),
         OplusMap(Compose(f2, f1), Compose(g2, g1))),
    ]),
    AxiomFamily("hom-functorial", _SMCB, "a b g1:>y g2:y>", lambda a, b, g1, g2, **_: [
        (Whisker(a, Id(b)), Id(Hom(a, b))),
        (Compose(Whisker(a, g2), Whisker(a, g1)), Whisker(a, Compose(g2, g1))),
    ]),
    AxiomFamily("associator", _ALL, "f:a>a1 g:b>b1 h:c>c1",
                lambda f, g, h, a, a1, b, b1, c, c1: [
        (Compose(TensorMap(TensorMap(f, g), h), Alpha(a, b, c)),
         Compose(Alpha(a1, b1, c1), TensorMap(f, TensorMap(g, h)))),
        (Compose(AlphaInv(a, b, c), Alpha(a, b, c)), Id(Tensor(a, Tensor(b, c)))),
        (Compose(Alpha(a, b, c), AlphaInv(a, b, c)), Id(Tensor(Tensor(a, b), c))),
    ]),
    AxiomFamily("unitor", _ALL, "f:a>a1", lambda f, a, a1: [
        (Compose(f, Lambda(a)), Compose(Lambda(a1), TensorMap(Id(Unit()), f))),
        (Compose(LambdaInv(a), Lambda(a)), Id(Tensor(Unit(), a))),
        (Compose(Lambda(a), LambdaInv(a)), Id(a)),
    ]),
    AxiomFamily("symmetry", _ALL, "f:a>a1 g:b>b1", lambda f, g, a, a1, b, b1: [
        (Compose(TensorMap(g, f), Sigma(a, b)), Compose(Sigma(a1, b1), TensorMap(f, g))),
        (Compose(Sigma(b, a), Sigma(a, b)), Id(Tensor(a, b))),
    ]),
    AxiomFamily("curry-natural", _SMCB, "g:b>b1 a", lambda g, b, b1, a: [
        (Compose(Whisker(a, TensorMap(Id(a), g)), Eta(a, b)), Compose(Eta(a, b1), g)),
    ]),
    AxiomFamily("uncurry-natural", _SMCB, "g:b>b1 a", lambda g, b, b1, a: [
        (Compose(g, Eps(a, b)), Compose(Eps(a, b1), TensorMap(Id(a), Whisker(a, g)))),
    ]),
    AxiomFamily("injection-natural", _ALL, "f:a>a1 g:b>b1", lambda f, g, a, a1, b, b1: [
        (Compose(OplusMap(f, g), Inj1(a, b)), Compose(Inj1(a1, b1), f)),
        (Compose(OplusMap(f, g), Inj2(a, b)), Compose(Inj2(a1, b1), g)),
    ]),
    AxiomFamily("projection-natural", _ALL, "f:a>a1 g:b>b1", lambda f, g, a, a1, b, b1: [
        (Compose(f, Proj1(a, b)), Compose(Proj1(a1, b1), OplusMap(f, g))),
        (Compose(g, Proj2(a, b)), Compose(Proj2(a1, b1), OplusMap(f, g))),
    ]),
    AxiomFamily("adjunction-triangles", _SMCB, "a b", lambda a, b: [
        (Compose(Whisker(a, Eps(a, b)), Eta(a, Hom(a, b))), Id(Hom(a, b))),
        (Compose(Eps(a, Tensor(a, b)), TensorMap(Id(a), Eta(a, b))), Id(Tensor(a, b))),
    ]),
    AxiomFamily("proj-inj-identity", _ALL, "a b", lambda a, b: [
        (Compose(Proj1(a, b), Inj1(a, b)), Id(a)),
        (Compose(Proj2(a, b), Inj2(a, b)), Id(b)),
    ]),
    AxiomFamily("proj-inj-zero", _ALL, "a b", lambda a, b: [
        (Compose(Proj2(a, b), Inj1(a, b)), ZeroMap(a, b)),
        (Compose(Proj1(a, b), Inj2(a, b)), ZeroMap(b, a)),
    ]),
    AxiomFamily("biproduct-resolution", _ALL, "a b", lambda a, b: [
        (Plus(Compose(Inj1(a, b), Proj1(a, b)), Compose(Inj2(a, b), Proj2(a, b))),
         Id(Oplus(a, b))),
    ]),
    AxiomFamily("sum-monoid", _ALL, "f1:a>b f2~f1 f3~f1", lambda f1, f2, f3, a, b: [
        (Plus(f1, Plus(f2, f3)), Plus(Plus(f1, f2), f3)),
        (Plus(f1, f2), Plus(f2, f1)),
        (Plus(f1, ZeroMap(a, b)), f1),
    ]),
    AxiomFamily("sum-distributes", _ALL, "f:a>b f2~f g1:b> g2~g1",
                lambda f, f2, g1, g2, **_: [
        (Compose(Plus(g1, g2), f), Plus(Compose(g1, f), Compose(g2, f))),
        (Compose(g1, Plus(f, f2)), Plus(Compose(g1, f), Compose(g1, f2))),
    ]),
    AxiomFamily("zero-absorbs", _ALL, "f:a>b c", lambda f, a, b, c: [
        (Compose(ZeroMap(b, c), f), ZeroMap(a, c)),
        (Compose(f, ZeroMap(c, a)), ZeroMap(c, b)),
    ]),
    AxiomFamily("pentagon", _ALL, "a b c d", lambda a, b, c, d: [
        (Compose(Alpha(Tensor(a, b), c, d), Alpha(a, b, Tensor(c, d))),
         Compose(Compose(TensorMap(Alpha(a, b, c), Id(d)), Alpha(a, Tensor(b, c), d)),
                 TensorMap(Id(a), Alpha(b, c, d)))),
    ]),
    AxiomFamily("unit-coherence", _ALL, "a b", lambda a, b: [
        (Lambda(Tensor(a, b)), Compose(TensorMap(Lambda(a), Id(b)), Alpha(Unit(), a, b))),
    ]),
    AxiomFamily("hexagon", _ALL, "a b c", lambda a, b, c: [
        (Compose(Compose(Alpha(c, a, b), Sigma(Tensor(a, b), c)), Alpha(a, b, c)),
         Compose(Compose(TensorMap(Sigma(a, c), Id(b)), Alpha(a, c, b)),
                 TensorMap(Id(a), Sigma(b, c)))),
    ]),
    AxiomFamily("zero-endo-identity", _ALL, "", lambda: [
        (ZeroMap(Zero(), Zero()), Id(Zero())),
    ]),
    AxiomFamily("curry-dinatural", _SMCB, "f:a>a1 b", lambda f, a, a1, b: [
        (Compose(Whisker(a, TensorMap(f, Id(b))), Eta(a, b)),
         Compose(HomMap(f, Id(Tensor(a1, b))), Eta(a1, b))),
    ]),
    AxiomFamily("uncurry-dinatural", _SMCB, "f:a>a1 b", lambda f, a, a1, b: [
        (Compose(Eps(a, b), TensorMap(Id(a), HomMap(f, Id(b)))),
         Compose(Eps(a1, b), TensorMap(f, Id(Hom(a1, b))))),
    ]),
    AxiomFamily("tensor-distributes", _ALL, "f:> g1:> g2~g1", lambda f, g1, g2: [
        (TensorMap(f, Plus(g1, g2)), Plus(TensorMap(f, g1), TensorMap(f, g2))),
        (TensorMap(Plus(g1, g2), f), Plus(TensorMap(g1, f), TensorMap(g2, f))),
    ]),
    AxiomFamily("hom-distributes", _SMCB, "f:> f2~f g1:> g2~g1", lambda f, f2, g1, g2: [
        (HomMap(f, Plus(g1, g2)), Plus(HomMap(f, g1), HomMap(f, g2))),
        (HomMap(Plus(f, f2), g1), Plus(HomMap(f, g1), HomMap(f2, g1))),
    ]),
    AxiomFamily("tensor-zero", _ALL, "f:a>a1 b b1", lambda f, a, a1, b, b1: [
        (TensorMap(f, ZeroMap(b, b1)), ZeroMap(Tensor(a, b), Tensor(a1, b1))),
        (TensorMap(ZeroMap(b, b1), f), ZeroMap(Tensor(b, a), Tensor(b1, a1))),
    ]),
    AxiomFamily("hom-zero", _SMCB, "f:a>a1 b b1", lambda f, a, a1, b, b1: [
        (HomMap(f, ZeroMap(b, b1)), ZeroMap(Hom(a1, b), Hom(a, b1))),
        (HomMap(ZeroMap(b, b1), f), ZeroMap(Hom(b1, a), Hom(b, a1))),
    ]),
    AxiomFamily("compact-triangles", _CC, "a", lambda a: [
        (Compose(Compose(TensorMap(Id(Dual(a)), EpsC(a)), AlphaInv(Dual(a), a, Dual(a))),
                 TensorMap(EtaC(a), Id(Dual(a)))),
         Sigma(Unit(), Dual(a))),
        (Compose(Compose(TensorMap(EpsC(a), Id(a)), Alpha(a, Dual(a), a)),
                 TensorMap(Id(a), EtaC(a))),
         Sigma(a, Unit())),
    ]),
    AxiomFamily("dagger-involution", _DCCB, "f:>", lambda f: [
        (Dagger(Dagger(f)), f),
    ], depth=2),
    AxiomFamily("dagger-contravariant", _DCCB, "f:>b g:b>", lambda f, b, g: [
        (Dagger(Compose(g, f)), Compose(Dagger(f), Dagger(g))),
    ]),
    AxiomFamily("dagger-tensor", _DCCB, "f:> g:>", lambda f, g: [
        (Dagger(TensorMap(f, g)), TensorMap(Dagger(f), Dagger(g))),
    ]),
    AxiomFamily("dagger-structure", _DCCB, "a b c", lambda a, b, c: [
        (Dagger(Alpha(a, b, c)), AlphaInv(a, b, c)),
        (Dagger(Lambda(a)), LambdaInv(a)),
        (Dagger(Sigma(a, b)), Sigma(b, a)),
    ]),
    AxiomFamily("dagger-compact-unit", _DCCB, "a", lambda a: [
        (Compose(Sigma(a, Dual(a)), Dagger(EpsC(a))), EtaC(a)),
    ]),
    AxiomFamily("dagger-biproduct", _DCCB, "a b", lambda a, b: [
        (Inj1(a, b), Dagger(Proj1(a, b))),
        (Inj2(a, b), Dagger(Proj2(a, b))),
    ]),
    AxiomFamily("dagger-sum", _DCCB, "f:a>b g~f", lambda f, a, b, g: [
        (Dagger(Plus(f, g)), Plus(Dagger(f), Dagger(g))),
        (Dagger(ZeroMap(a, b)), ZeroMap(b, a)),
    ]),
)

#: Names of the core equational families checked by the smcb battery.
CORE_SMCB_FAMILIES: tuple[str, ...] = tuple(
    f.name for f in FAMILIES[:22])


@dataclass(frozen=True)
class AxiomFailure:
    family: str
    instance: int
    lhs: str
    rhs: str
    lhs_image: str
    rhs_image: str


@dataclass(frozen=True)
class FamilyResult:
    name: str
    instances: int
    failures: tuple[AxiomFailure, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class SuiteReport:
    mode: Mode
    seed: int
    object_depth: int
    instance_count: int
    families: tuple[FamilyResult, ...]

    @property
    def total_failures(self) -> int:
        return sum(len(f.failures) for f in self.families)

    def to_text(self) -> str:
        lines = [f"selftest mode={self.mode} depth={self.object_depth} "
                 f"instances={self.instance_count} seed={self.seed}"]
        for fam in self.families:
            lines.append(f"{fam.name}: {fam.instances} instances, "
                         f"{len(fam.failures)} failures")
            for fl in fam.failures:
                lines.append(f"  instance {fl.instance}: {fl.lhs}  !=  {fl.rhs}")
        lines.append(f"total: {len(self.families)} families, "
                     f"{self.total_failures} failures")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "mode": str(self.mode),
            "seed": self.seed,
            "object_depth": self.object_depth,
            "instance_count": self.instance_count,
            "families": [
                {
                    "name": fam.name,
                    "instances": fam.instances,
                    "failures": [
                        {"instance": fl.instance, "lhs": fl.lhs, "rhs": fl.rhs,
                         "lhs_image": fl.lhs_image, "rhs_image": fl.rhs_image}
                        for fl in fam.failures
                    ],
                }
                for fam in self.families
            ],
            "total_failures": self.total_failures,
        }


def axiom_suite(mode: Mode = Mode.SMCB, object_depth: int = 2,
                instance_count: int = 25, seed: int = 0,
                gens: tuple[str, ...] = DEFAULT_GENS) -> SuiteReport:
    """Randomized instantiation of every axiom family legal for `mode`,
    checked through the matrix images.  Deterministic for a given seed."""
    rng = random.Random(seed)
    results = []
    for fam in FAMILIES:
        if mode not in fam.modes:
            continue
        failures = []
        for k in range(instance_count):
            for lhs, rhs in fam.build(rng, mode, object_depth, gens):
                lm, rm = interpret_arrow(lhs), interpret_arrow(rhs)
                if lm != rm:
                    failures.append(AxiomFailure(
                        fam.name, k, render_arrow(lhs), render_arrow(rhs),
                        matrix_to_text(lm), matrix_to_text(rm)))
        results.append(FamilyResult(fam.name, instance_count, tuple(failures)))
    return SuiteReport(mode, seed, object_depth, instance_count, tuple(results))

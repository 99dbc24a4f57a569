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

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

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

Builder = Callable[[random.Random, Mode, int, tuple[str, ...]],
                   list[tuple[Arrow, Arrow]]]


@dataclass(frozen=True)
class AxiomFamily:
    name: str
    modes: frozenset[Mode]
    build: Builder


_ALL = frozenset(Mode)
_SMCB = frozenset({Mode.SMCB})
_CC = frozenset({Mode.CCB, Mode.DCCB})
_DCCB = frozenset({Mode.DCCB})


def _arrow(rng, mode, od, gens, depth=1):
    return random_arrow(rng, mode, depth, od, gens)


def _obj(rng, mode, od, gens):
    return random_object(rng, mode, od, gens)


def _f_category(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens, depth=2)
    a, b = infer_type(f)
    g = random_arrow_with_source(rng, b, mode, 1, od, gens)
    h = random_arrow_with_source(rng, infer_type(g)[1], mode, 1, od, gens)
    return [
        (Compose(f, Id(a)), f),
        (Compose(Id(b), f), f),
        (Compose(Compose(h, g), f), Compose(h, Compose(g, f))),
    ]


def _f_tensor_functor(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    f1 = _arrow(rng, mode, od, gens)
    f2 = random_arrow_with_source(rng, infer_type(f1)[1], mode, 1, od, gens)
    g1 = _arrow(rng, mode, od, gens)
    g2 = random_arrow_with_source(rng, infer_type(g1)[1], mode, 1, od, gens)
    return [
        (TensorMap(Id(a), Id(b)), Id(Tensor(a, b))),
        (Compose(TensorMap(f2, g2), TensorMap(f1, g1)),
         TensorMap(Compose(f2, f1), Compose(g2, g1))),
    ]


def _f_oplus_functor(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    f1 = _arrow(rng, mode, od, gens)
    f2 = random_arrow_with_source(rng, infer_type(f1)[1], mode, 1, od, gens)
    g1 = _arrow(rng, mode, od, gens)
    g2 = random_arrow_with_source(rng, infer_type(g1)[1], mode, 1, od, gens)
    return [
        (OplusMap(Id(a), Id(b)), Id(Oplus(a, b))),
        (Compose(OplusMap(f2, g2), OplusMap(f1, g1)),
         OplusMap(Compose(f2, f1), Compose(g2, g1))),
    ]


def _f_hom_functor(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    g1 = _arrow(rng, mode, od, gens)
    g2 = random_arrow_with_source(rng, infer_type(g1)[1], mode, 1, od, gens)
    return [
        (Whisker(a, Id(b)), Id(Hom(a, b))),
        (Compose(Whisker(a, g2), Whisker(a, g1)), Whisker(a, Compose(g2, g1))),
    ]


def _f_associator(rng, mode, od, gens):
    f, g, h = (_arrow(rng, mode, od, gens) for _ in range(3))
    (a, a1), (b, b1), (c, c1) = infer_type(f), infer_type(g), infer_type(h)
    return [
        (Compose(TensorMap(TensorMap(f, g), h), Alpha(a, b, c)),
         Compose(Alpha(a1, b1, c1), TensorMap(f, TensorMap(g, h)))),
        (Compose(AlphaInv(a, b, c), Alpha(a, b, c)), Id(Tensor(a, Tensor(b, c)))),
        (Compose(Alpha(a, b, c), AlphaInv(a, b, c)), Id(Tensor(Tensor(a, b), c))),
    ]


def _f_unitor(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, a1 = infer_type(f)
    return [
        (Compose(f, Lambda(a)), Compose(Lambda(a1), TensorMap(Id(Unit()), f))),
        (Compose(LambdaInv(a), Lambda(a)), Id(Tensor(Unit(), a))),
        (Compose(Lambda(a), LambdaInv(a)), Id(a)),
    ]


def _f_symmetry(rng, mode, od, gens):
    f, g = _arrow(rng, mode, od, gens), _arrow(rng, mode, od, gens)
    (a, a1), (b, b1) = infer_type(f), infer_type(g)
    return [
        (Compose(TensorMap(g, f), Sigma(a, b)), Compose(Sigma(a1, b1), TensorMap(f, g))),
        (Compose(Sigma(b, a), Sigma(a, b)), Id(Tensor(a, b))),
    ]


def _f_curry_natural(rng, mode, od, gens):
    g = _arrow(rng, mode, od, gens)
    b, b1 = infer_type(g)
    a = _obj(rng, mode, od, gens)
    return [
        (Compose(Whisker(a, TensorMap(Id(a), g)), Eta(a, b)),
         Compose(Eta(a, b1), g)),
    ]


def _f_uncurry_natural(rng, mode, od, gens):
    g = _arrow(rng, mode, od, gens)
    b, b1 = infer_type(g)
    a = _obj(rng, mode, od, gens)
    return [
        (Compose(g, Eps(a, b)),
         Compose(Eps(a, b1), TensorMap(Id(a), Whisker(a, g)))),
    ]


def _f_injection_natural(rng, mode, od, gens):
    f, g = _arrow(rng, mode, od, gens), _arrow(rng, mode, od, gens)
    (a, a1), (b, b1) = infer_type(f), infer_type(g)
    return [
        (Compose(OplusMap(f, g), Inj1(a, b)), Compose(Inj1(a1, b1), f)),
        (Compose(OplusMap(f, g), Inj2(a, b)), Compose(Inj2(a1, b1), g)),
    ]


def _f_projection_natural(rng, mode, od, gens):
    f, g = _arrow(rng, mode, od, gens), _arrow(rng, mode, od, gens)
    (a, a1), (b, b1) = infer_type(f), infer_type(g)
    return [
        (Compose(f, Proj1(a, b)), Compose(Proj1(a1, b1), OplusMap(f, g))),
        (Compose(g, Proj2(a, b)), Compose(Proj2(a1, b1), OplusMap(f, g))),
    ]


def _f_adjunction_triangles(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Compose(Whisker(a, Eps(a, b)), Eta(a, Hom(a, b))), Id(Hom(a, b))),
        (Compose(Eps(a, Tensor(a, b)), TensorMap(Id(a), Eta(a, b))),
         Id(Tensor(a, b))),
    ]


def _f_proj_inj_identity(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Compose(Proj1(a, b), Inj1(a, b)), Id(a)),
        (Compose(Proj2(a, b), Inj2(a, b)), Id(b)),
    ]


def _f_proj_inj_zero(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Compose(Proj2(a, b), Inj1(a, b)), ZeroMap(a, b)),
        (Compose(Proj1(a, b), Inj2(a, b)), ZeroMap(b, a)),
    ]


def _f_biproduct_resolution(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Plus(Compose(Inj1(a, b), Proj1(a, b)), Compose(Inj2(a, b), Proj2(a, b))),
         Id(Oplus(a, b))),
    ]


def _f_sum_monoid(rng, mode, od, gens):
    f1 = _arrow(rng, mode, od, gens)
    a, b = infer_type(f1)
    f2 = same_type_variant(rng, f1)
    f3 = same_type_variant(rng, f1)
    return [
        (Plus(f1, Plus(f2, f3)), Plus(Plus(f1, f2), f3)),
        (Plus(f1, f2), Plus(f2, f1)),
        (Plus(f1, ZeroMap(a, b)), f1),
    ]


def _f_sum_distributes(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, b = infer_type(f)
    f2 = same_type_variant(rng, f)
    g1 = random_arrow_with_source(rng, b, mode, 1, od, gens)
    g2 = same_type_variant(rng, g1)
    return [
        (Compose(Plus(g1, g2), f), Plus(Compose(g1, f), Compose(g2, f))),
        (Compose(g1, Plus(f, f2)), Plus(Compose(g1, f), Compose(g1, f2))),
    ]


def _f_zero_absorbs(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, b = infer_type(f)
    c = _obj(rng, mode, od, gens)
    return [
        (Compose(ZeroMap(b, c), f), ZeroMap(a, c)),
        (Compose(f, ZeroMap(c, a)), ZeroMap(c, b)),
    ]


def _f_pentagon(rng, mode, od, gens):
    a, b, c, d = (_obj(rng, mode, od, gens) for _ in range(4))
    return [
        (Compose(Alpha(Tensor(a, b), c, d), Alpha(a, b, Tensor(c, d))),
         Compose(Compose(TensorMap(Alpha(a, b, c), Id(d)),
                         Alpha(a, Tensor(b, c), d)),
                 TensorMap(Id(a), Alpha(b, c, d)))),
    ]


def _f_unit_coherence(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Lambda(Tensor(a, b)),
         Compose(TensorMap(Lambda(a), Id(b)), Alpha(Unit(), a, b))),
    ]


def _f_hexagon(rng, mode, od, gens):
    a, b, c = (_obj(rng, mode, od, gens) for _ in range(3))
    return [
        (Compose(Compose(Alpha(c, a, b), Sigma(Tensor(a, b), c)), Alpha(a, b, c)),
         Compose(Compose(TensorMap(Sigma(a, c), Id(b)), Alpha(a, c, b)),
                 TensorMap(Id(a), Sigma(b, c)))),
    ]


def _f_zero_endo(rng, mode, od, gens):
    return [(ZeroMap(Zero(), Zero()), Id(Zero()))]


def _f_curry_dinatural(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, a1 = infer_type(f)
    b = _obj(rng, mode, od, gens)
    return [
        (Compose(Whisker(a, TensorMap(f, Id(b))), Eta(a, b)),
         Compose(HomMap(f, Id(Tensor(a1, b))), Eta(a1, b))),
    ]


def _f_uncurry_dinatural(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, a1 = infer_type(f)
    b = _obj(rng, mode, od, gens)
    return [
        (Compose(Eps(a, b), TensorMap(Id(a), HomMap(f, Id(b)))),
         Compose(Eps(a1, b), TensorMap(f, Id(Hom(a1, b))))),
    ]


def _f_tensor_distributes(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    g1 = _arrow(rng, mode, od, gens)
    g2 = same_type_variant(rng, g1)
    return [
        (TensorMap(f, Plus(g1, g2)), Plus(TensorMap(f, g1), TensorMap(f, g2))),
        (TensorMap(Plus(g1, g2), f), Plus(TensorMap(g1, f), TensorMap(g2, f))),
    ]


def _f_hom_distributes(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    f2 = same_type_variant(rng, f)
    g1 = _arrow(rng, mode, od, gens)
    g2 = same_type_variant(rng, g1)
    return [
        (HomMap(f, Plus(g1, g2)), Plus(HomMap(f, g1), HomMap(f, g2))),
        (HomMap(Plus(f, f2), g1), Plus(HomMap(f, g1), HomMap(f2, g1))),
    ]


def _f_tensor_zero(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, a1 = infer_type(f)
    b, b1 = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (TensorMap(f, ZeroMap(b, b1)), ZeroMap(Tensor(a, b), Tensor(a1, b1))),
        (TensorMap(ZeroMap(b, b1), f), ZeroMap(Tensor(b, a), Tensor(b1, a1))),
    ]


def _f_hom_zero(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, a1 = infer_type(f)
    b, b1 = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (HomMap(f, ZeroMap(b, b1)), ZeroMap(Hom(a1, b), Hom(a, b1))),
        (HomMap(ZeroMap(b, b1), f), ZeroMap(Hom(b1, a), Hom(b, a1))),
    ]


def _f_compact_triangles(rng, mode, od, gens):
    a = _obj(rng, mode, od, gens)
    da = Dual(a)
    return [
        (Compose(Compose(TensorMap(Id(da), EpsC(a)), AlphaInv(da, a, da)),
                 TensorMap(EtaC(a), Id(da))),
         Sigma(Unit(), da)),
        (Compose(Compose(TensorMap(EpsC(a), Id(a)), Alpha(a, da, a)),
                 TensorMap(Id(a), EtaC(a))),
         Sigma(a, Unit())),
    ]


def _f_dagger_involution(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens, depth=2)
    return [(Dagger(Dagger(f)), f)]


def _f_dagger_contravariant(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    g = random_arrow_with_source(rng, infer_type(f)[1], mode, 1, od, gens)
    return [(Dagger(Compose(g, f)), Compose(Dagger(f), Dagger(g)))]


def _f_dagger_tensor(rng, mode, od, gens):
    f, g = _arrow(rng, mode, od, gens), _arrow(rng, mode, od, gens)
    return [(Dagger(TensorMap(f, g)), TensorMap(Dagger(f), Dagger(g)))]


def _f_dagger_structure(rng, mode, od, gens):
    a, b, c = (_obj(rng, mode, od, gens) for _ in range(3))
    return [
        (Dagger(Alpha(a, b, c)), AlphaInv(a, b, c)),
        (Dagger(Lambda(a)), LambdaInv(a)),
        (Dagger(Sigma(a, b)), Sigma(b, a)),
    ]


def _f_dagger_compact_unit(rng, mode, od, gens):
    a = _obj(rng, mode, od, gens)
    return [(Compose(Sigma(a, Dual(a)), Dagger(EpsC(a))), EtaC(a))]


def _f_dagger_biproduct(rng, mode, od, gens):
    a, b = _obj(rng, mode, od, gens), _obj(rng, mode, od, gens)
    return [
        (Inj1(a, b), Dagger(Proj1(a, b))),
        (Inj2(a, b), Dagger(Proj2(a, b))),
    ]


def _f_dagger_sum(rng, mode, od, gens):
    f = _arrow(rng, mode, od, gens)
    a, b = infer_type(f)
    g = same_type_variant(rng, f)
    return [
        (Dagger(Plus(f, g)), Plus(Dagger(f), Dagger(g))),
        (Dagger(ZeroMap(a, b)), ZeroMap(b, a)),
    ]


#: The core equational presentation (one entry per family) followed by the
#: derived laws and the compact closed / dagger extensions.
FAMILIES: tuple[AxiomFamily, ...] = (
    AxiomFamily("category-laws", _ALL, _f_category),
    AxiomFamily("tensor-functorial", _ALL, _f_tensor_functor),
    AxiomFamily("oplus-functorial", _ALL, _f_oplus_functor),
    AxiomFamily("hom-functorial", _SMCB, _f_hom_functor),
    AxiomFamily("associator", _ALL, _f_associator),
    AxiomFamily("unitor", _ALL, _f_unitor),
    AxiomFamily("symmetry", _ALL, _f_symmetry),
    AxiomFamily("curry-natural", _SMCB, _f_curry_natural),
    AxiomFamily("uncurry-natural", _SMCB, _f_uncurry_natural),
    AxiomFamily("injection-natural", _ALL, _f_injection_natural),
    AxiomFamily("projection-natural", _ALL, _f_projection_natural),
    AxiomFamily("adjunction-triangles", _SMCB, _f_adjunction_triangles),
    AxiomFamily("proj-inj-identity", _ALL, _f_proj_inj_identity),
    AxiomFamily("proj-inj-zero", _ALL, _f_proj_inj_zero),
    AxiomFamily("biproduct-resolution", _ALL, _f_biproduct_resolution),
    AxiomFamily("sum-monoid", _ALL, _f_sum_monoid),
    AxiomFamily("sum-distributes", _ALL, _f_sum_distributes),
    AxiomFamily("zero-absorbs", _ALL, _f_zero_absorbs),
    AxiomFamily("pentagon", _ALL, _f_pentagon),
    AxiomFamily("unit-coherence", _ALL, _f_unit_coherence),
    AxiomFamily("hexagon", _ALL, _f_hexagon),
    AxiomFamily("zero-endo-identity", _ALL, _f_zero_endo),
    AxiomFamily("curry-dinatural", _SMCB, _f_curry_dinatural),
    AxiomFamily("uncurry-dinatural", _SMCB, _f_uncurry_dinatural),
    AxiomFamily("tensor-distributes", _ALL, _f_tensor_distributes),
    AxiomFamily("hom-distributes", _SMCB, _f_hom_distributes),
    AxiomFamily("tensor-zero", _ALL, _f_tensor_zero),
    AxiomFamily("hom-zero", _SMCB, _f_hom_zero),
    AxiomFamily("compact-triangles", _CC, _f_compact_triangles),
    AxiomFamily("dagger-involution", _DCCB, _f_dagger_involution),
    AxiomFamily("dagger-contravariant", _DCCB, _f_dagger_contravariant),
    AxiomFamily("dagger-tensor", _DCCB, _f_dagger_tensor),
    AxiomFamily("dagger-structure", _DCCB, _f_dagger_structure),
    AxiomFamily("dagger-compact-unit", _DCCB, _f_dagger_compact_unit),
    AxiomFamily("dagger-biproduct", _DCCB, _f_dagger_biproduct),
    AxiomFamily("dagger-sum", _DCCB, _f_dagger_sum),
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

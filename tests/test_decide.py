import random

import pytest

from cobeq import (
    Compose, Dagger, Gen, Hom, Id, Inj1, Inj2, Lambda, LambdaInv, Mode,
    Oplus, Plus, Proj1, Proj2, Sigma, Tensor, TypeMismatch, Unit, ZeroMap,
    axiom_suite, cardinality, decide_equal, expand_derived, infer_type,
    interpret_arrow, matrix_to_text,
)
from cobeq.decide import CORE_SMCB_FAMILIES, FAMILIES, card_matrix
from cobeq.generate import random_arrow, random_equal_pair

P, Q, R = Gen("p"), Gen("q"), Gen("r")


def test_biproduct_resolution_is_equal():
    f = Plus(Compose(Inj1(P, Q), Proj1(P, Q)), Compose(Inj2(P, Q), Proj2(P, Q)))
    assert decide_equal(f, Id(Oplus(P, Q))).kind == "equal"


def test_identity_vs_zero_not_equal():
    v = decide_equal(Id(P), ZeroMap(P, P))
    assert v.kind == "not-equal"


def test_inconclusive_names_the_offender():
    h = Hom(P, Unit())
    v = decide_equal(Id(h), Compose(Lambda(h), LambdaInv(h)))
    assert v.kind == "inconclusive"
    assert "p -o I" in v.reason
    assert v.summary().startswith("inconclusive: ")


def test_syntactic_identity_wins_even_on_improper_endpoints():
    f = Id(Hom(P, Unit()))
    assert decide_equal(f, f).kind == "equal"


def test_dagger_involution_equal():
    rng = random.Random(1)
    for _ in range(15):
        t = random_arrow(rng, Mode.DCCB, depth=2, obj_depth=2)
        assert decide_equal(Dagger(Dagger(t)), t, Mode.DCCB).kind == "equal"


def test_type_mismatch_raises():
    with pytest.raises(TypeMismatch):
        decide_equal(Id(P), Id(Q))


def test_reflexive_and_symmetric():
    rng = random.Random(2)
    for mode in Mode:
        for _ in range(25):
            f = random_arrow(rng, mode, depth=2, obj_depth=2)
            assert decide_equal(f, f, mode).kind == "equal"
            g = random_arrow(rng, mode, depth=2, obj_depth=2)
            try:
                v1 = decide_equal(f, g, mode)
            except TypeMismatch:
                continue
            assert v1.kind == decide_equal(g, f, mode).kind


def test_card_matrix_matches_interpretation():
    rng = random.Random(3)
    for mode in Mode:
        for _ in range(40):
            t = expand_derived(random_arrow(rng, mode, depth=3, obj_depth=2),
                               mode)
            got = card_matrix(t)
            m = interpret_arrow(t)
            assert got.shape == m.shape
            for i, row in enumerate(cardinality(m)):
                for j, c in enumerate(row):
                    assert got[i, j] == c


def test_import_does_not_load_numpy():
    # numpy is needed by card_matrix only, which imports it when called
    import os
    import subprocess
    import sys

    import cobeq

    src = os.path.dirname(os.path.dirname(cobeq.__file__))
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, cobeq; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_card_prefilter_never_contradicts():
    # f and f + 0 denote the same arrow, so decide_equal never refutes
    # them; exercised through random pairs of the same type
    rng = random.Random(4)
    for _ in range(60):
        f = random_arrow(rng, Mode.SMCB, depth=2, obj_depth=2)
        g = Plus(f, ZeroMap(*infer_type(f)))
        assert decide_equal(f, g).kind in ("equal", "inconclusive")


def test_certificate_reproducible():
    v = decide_equal(Id(Tensor(P, P)), Sigma(P, P), certificate=True)
    assert v.kind == "not-equal"
    s1 = matrix_to_text(v.lhs_image), matrix_to_text(v.rhs_image)
    v2 = decide_equal(Id(Tensor(P, P)), Sigma(P, P), certificate=True)
    s2 = matrix_to_text(v2.lhs_image), matrix_to_text(v2.rhs_image)
    assert s1 == s2
    assert s1[0] != s1[1]
    blob = v.to_json()
    assert blob["verdict"] == "not-equal" and "certificate" in blob


def test_rewrite_closure():
    rng = random.Random(11)
    for _ in range(40):
        a, b = random_equal_pair(rng, steps=rng.randint(1, 5), mode=Mode.SMCB)
        assert decide_equal(a, b, Mode.SMCB).kind == "equal"


def test_axiom_suite_deterministic_and_green():
    r1 = axiom_suite(Mode.SMCB, object_depth=2, instance_count=5, seed=42)
    r2 = axiom_suite(Mode.SMCB, object_depth=2, instance_count=5, seed=42)
    assert r1 == r2
    assert r1.total_failures == 0
    assert "total:" in r1.to_text()
    assert r1.to_json()["total_failures"] == 0


@pytest.mark.parametrize("mode", list(Mode))
def test_axiom_suite_all_modes_small(mode):
    rep = axiom_suite(mode, object_depth=2, instance_count=5, seed=9)
    assert rep.total_failures == 0


def test_core_family_inventory():
    assert len(CORE_SMCB_FAMILIES) == 22
    smcb = [f for f in FAMILIES if Mode.SMCB in f.modes]
    assert set(CORE_SMCB_FAMILIES) <= {f.name for f in smcb}
    dccb = {f.name for f in FAMILIES if Mode.DCCB in f.modes}
    assert "dagger-involution" in dccb and "compact-triangles" in dccb
    assert "hom-functorial" not in dccb

"""Acceptance suite.

One test per acceptance criterion, at the stated scale and tolerance (all
checks here are exact).  Each test prints a single PASS line; run with
`pytest tests/test_acceptance.py -s` to see them.
"""

import json
import random
import time

import pytest

from cobeq import (
    Compose, Dual, EpsC, Eta, EtaC, Eps, Gen, Hom, Id, Inj1, Inj2, Lambda,
    Mode, Oplus, Plus, Proj1, Proj2, Sigma, Tensor, TensorMap, Unit, Whisker,
    ZeroMap, axiom_suite, decide_equal, decompose, entry_oracle,
    expand_derived, interpret_arrow, normalize_syntactic, parse_arrow,
    parse_object, render_arrow, render_object,
)
from cobeq.biproduct import Valuation, valuation
from cobeq.cob import (
    ZERO, cardinality, cobordism, matrix, mat_hom, mat_tensor, mc_add,
    multicob,
)
from cobeq.cli import main
from cobeq.decide import CORE_SMCB_FAMILIES
from cobeq.generate import random_arrow, random_equal_pair, random_object
from cobeq.syntax import (
    HomMap, Inj2 as _Inj2, OplusMap, node_objects, subarrows, subobjects,
)

P, Q, R = Gen("p"), Gen("q"), Gen("r")
GENS_PQR = ("p", "q", "r")
GENS_PQ = ("p", "q")


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


# ---------------------------------------------------------------------------


def test_acceptance_1_axiom_soundness_smcb():
    t0 = time.time()
    rep = axiom_suite(Mode.SMCB, object_depth=3, instance_count=50,
                      seed=20250809, gens=GENS_PQR)
    elapsed = time.time() - t0
    core = {f.name: f for f in rep.families if f.name in CORE_SMCB_FAMILIES}
    assert len(core) == 22
    for fam in rep.families:
        assert fam.instances == 50
        assert not fam.failures, f"{fam.name}: {fam.failures[0]}"
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    report(1, f"22 smcb families x50 in {elapsed:.1f}s")


def test_acceptance_2_ccb_dccb_soundness():
    for mode in (Mode.CCB, Mode.DCCB):
        rep = axiom_suite(mode, object_depth=3, instance_count=50,
                          seed=20250810, gens=GENS_PQR)
        by_name = {f.name: f for f in rep.families}
        assert "compact-triangles" in by_name
        if mode is Mode.DCCB:
            for name in ("dagger-involution", "dagger-tensor",
                         "dagger-structure", "dagger-compact-unit"):
                assert name in by_name
        for fam in rep.families:
            assert not fam.failures, f"{mode} {fam.name}: {fam.failures[0]}"

    # the closed loop, against an independent path-following oracle:
    # stage matchings listed by hand, components found by set merging
    loop = Compose(Compose(EpsC(P), Sigma(Dual(P), P)), EtaC(P))
    m = interpret_arrow(loop, Mode.CCB)
    assert m.shape == (1, 1)
    (got,) = m.entries[0][0].elements

    # points: cap emits x0 x1; swap maps x0->y1, x1->y0; cup joins y0 y1
    edges = [("x0", "x1"), ("x0", "y1"), ("x1", "y0"), ("y0", "y1")]
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    components = {find(v) for v in parent}
    assert len(components) == 1  # a single closed component, no open ends
    assert got.pairs == () and got.circles == 1
    report(2, "ccb/dccb batteries x50 and the closed-loop oracle")


def test_acceptance_3_functoriality_oracle():
    rng = random.Random(303)
    checked = 0
    for _ in range(200):
        t = random_arrow(rng, Mode.SMCB, depth=4, obj_depth=3, gens=GENS_PQ)
        m = interpret_arrow(t)
        for i in range(len(m.row_types)):
            for j in range(len(m.col_types)):
                assert entry_oracle(t, i, j) == m.entries[i][j], \
                    (render_arrow(t), i, j)
                checked += 1
    report(3, f"200 terms, {checked} entries against the oracle")


def test_acceptance_4_biproduct_laws():
    rng = random.Random(404)
    for _ in range(100):
        a = random_object(rng, Mode.SMCB, depth=4, gens=GENS_PQ)
        d = decompose(a)
        resolution = None
        for i, (inj, proj) in enumerate(zip(d.injections, d.projections)):
            term = Compose(inj, proj)
            resolution = term if resolution is None else Plus(resolution, term)
            for j, proj_j in enumerate(d.projections):
                got = interpret_arrow(expand_derived(Compose(proj_j, inj)))
                if i == j:
                    want = interpret_arrow(Id(d.components[i]))
                else:
                    want = interpret_arrow(
                        ZeroMap(d.components[i], d.components[j]))
                assert got == want, (render_object(a), i, j)
        got = interpret_arrow(expand_derived(resolution))
        assert got == interpret_arrow(Id(a)), render_object(a)
    report(4, "100 objects: projection/injection table and resolution of id")


def _forbidden(term):
    for sub in subarrows(term):
        if isinstance(sub, (OplusMap, Inj1, _Inj2, Proj1, Proj2)):
            return sub
        for obj in node_objects(sub):
            for s in subobjects(obj):
                if isinstance(s, Oplus):
                    return s
    return None


def test_acceptance_5_purity_and_reinterpretation():
    rng = random.Random(505)
    for _ in range(200):
        t = random_arrow(rng, Mode.SMCB, depth=3, obj_depth=2, gens=GENS_PQ)
        tm = normalize_syntactic(t)
        m = interpret_arrow(t)
        live_r = [k for k, c in enumerate(tm.row_types)
                  if valuation(c) is not Valuation.ZERO_VALUED]
        live_c = [k for k, c in enumerate(tm.col_types)
                  if valuation(c) is not Valuation.ZERO_VALUED]
        for i, row in enumerate(tm.entries):
            for j, summands in enumerate(row):
                for s in summands:
                    assert _forbidden(s) is None, render_arrow(s)
                if i in live_r and j in live_c:
                    gi, gj = live_r.index(i), live_c.index(j)
                    acc = ZERO
                    for s in summands:
                        acc = mc_add(acc, interpret_arrow(s).entries[0][0])
                    assert acc == m.entries[gi][gj]
    report(5, "200 terms: no (+)/inj/proj in entries; entries re-interpret")


def _times(f, k):
    out = f
    for _ in range(k - 1):
        out = Plus(out, f)
    return out


def inequivalent_pairs():
    pairs = []
    # multiplicities on identities
    for k in range(1, 11):
        pairs.append((_times(Id(P), k), _times(Id(P), k + 1)))
    # swap against identity over assorted objects
    for x in (P, Q, R, Tensor(P, Q), Oplus(P, Q), Tensor(P, P), Oplus(P, P)):
        pairs.append((Id(Tensor(x, x)), Sigma(x, x)))
    # swap multiplicity ladders
    for k in range(1, 6):
        pairs.append((_times(Sigma(P, P), k), _times(Id(Tensor(P, P)), k)))
    # biproduct projections and injections
    pairs.append((Compose(Inj1(P, Q), Proj1(P, Q)), Id(Oplus(P, Q))))
    pairs.append((Compose(Inj2(P, Q), Proj2(P, Q)), Id(Oplus(P, Q))))
    pairs.append((Compose(Inj1(P, P), Proj1(P, P)),
                  Compose(Inj2(P, P), Proj2(P, P))))
    pairs.append((Compose(Inj1(P, P), Proj2(P, P)),
                  Compose(Inj1(P, P), Proj1(P, P))))
    pairs.append((Compose(Inj1(P, P), Proj2(P, P)),
                  Compose(Inj2(P, P), Proj1(P, P))))
    # zero against structure maps
    pairs.append((ZeroMap(P, P), Id(P)))
    pairs.append((ZeroMap(Q, Hom(P, Tensor(P, Q))), Eta(P, Q)))
    pairs.append((ZeroMap(Tensor(P, Hom(P, Q)), Q), Eps(P, Q)))
    pairs.append((ZeroMap(Tensor(Unit(), P), P), Lambda(P)))
    pairs.append((ZeroMap(Oplus(P, Q), P), Proj1(P, Q)))
    pairs.append((ZeroMap(P, Oplus(P, Q)), Inj1(P, Q)))
    # curry of a twist against the plain curry
    pairs.append((Compose(Whisker(P, Sigma(P, P)), Eta(P, P)), Eta(P, P)))
    # doubled vs single eta
    pairs.append((_times(Eta(P, Q), 2), Eta(P, Q)))
    # identity against a swapped biproduct resolution
    pairs.append((Id(Oplus(P, P)),
                  Plus(Compose(Inj1(P, P), Proj2(P, P)),
                       Compose(Inj2(P, P), Proj1(P, P)))))
    # whiskered zero against whiskered identity
    pairs.append((Whisker(P, ZeroMap(Q, Q)), Whisker(P, Id(Q))))
    # unit maps with extra multiplicity
    for k in range(1, 6):
        pairs.append((_times(Lambda(P), k), _times(Lambda(P), k + 1)))
    # curry multiplicity ladders
    for k in range(1, 7):
        pairs.append((_times(Eta(P, Q), k), _times(Eta(P, Q), k + 1)))
    # the two projections and the two injections out of p (+) p
    pairs.append((Proj1(P, P), Proj2(P, P)))
    pairs.append((Inj1(P, P), Inj2(P, P)))
    # double swap against the doubled identity and against zero
    pairs.append((Compose(Sigma(Q, P), Sigma(P, Q)),
                  ZeroMap(Tensor(P, Q), Tensor(P, Q))))
    pairs.append((_times(Compose(Sigma(Q, P), Sigma(P, Q)), 2),
                  Id(Tensor(P, Q))))
    return pairs


def test_acceptance_6_decision_closure():
    rng = random.Random(606)
    for _ in range(200):
        a, b = random_equal_pair(rng, steps=rng.randint(1, 5),
                                 mode=Mode.SMCB, depth=2, obj_depth=2)
        v = decide_equal(a, b)
        assert v.kind == "equal", (render_arrow(a), render_arrow(b), v.summary())
    pairs = inequivalent_pairs()
    assert len(pairs) >= 50
    for lhs, rhs in pairs:
        v = decide_equal(lhs, rhs)
        assert v.kind == "not-equal", (render_arrow(lhs), render_arrow(rhs))
    report(6, f"200 rewrite pairs equal; {len(pairs)} listed pairs not-equal")


def test_acceptance_7_worked_examples():
    # component sequences for n1 = 3, n2 = 2
    a1 = Oplus(Oplus(P, Q), R)
    a2 = Oplus(P, Q)
    d1, d2 = decompose(a1), decompose(a2)
    assert len(d1) == 3 and len(d2) == 2
    dt = decompose(Tensor(a1, a2))
    assert dt.injections == tuple(
        TensorMap(d1.injections[i], d2.injections[j])
        for i in range(3) for j in range(2))
    assert dt.projections == tuple(
        TensorMap(d1.projections[i], d2.projections[j])
        for i in range(3) for j in range(2))
    dh = decompose(Hom(a1, a2))
    assert dh.injections == tuple(
        HomMap(d1.projections[i], d2.injections[j])
        for i in range(3) for j in range(2))
    assert dh.projections == tuple(
        HomMap(d1.injections[i], d2.projections[j])
        for i in range(3) for j in range(2))
    do = decompose(Oplus(a1, a2))
    assert do.injections == tuple(
        [Compose(Inj1(a1, a2), i) for i in d1.injections]
        + [Compose(Inj2(a1, a2), i) for i in d2.injections])
    assert do.projections == tuple(
        [Compose(pr, Proj1(a1, a2)) for pr in d1.projections]
        + [Compose(pr, Proj2(a1, a2)) for pr in d2.projections])

    # the 4x6 Kronecker layout, position for position, via prime tags
    px = [[2, 3, 5], [7, 11, 13]]
    py = [[17, 19], [23, 29]]

    def closed(k):
        return multicob([cobordism("", "", [], 1)] * k)

    x = matrix(("", ""), ("", "", ""),
               [[closed(px[i][j]) for j in range(3)] for i in range(2)])
    y = matrix(("", ""), ("", ""),
               [[closed(py[i][j]) for j in range(2)] for i in range(2)])
    got = [list(r) for r in cardinality(mat_tensor(x, y))]
    assert got == [
        [px[0][0] * py[0][0], px[0][0] * py[0][1], px[0][1] * py[0][0],
         px[0][1] * py[0][1], px[0][2] * py[0][0], px[0][2] * py[0][1]],
        [px[0][0] * py[1][0], px[0][0] * py[1][1], px[0][1] * py[1][0],
         px[0][1] * py[1][1], px[0][2] * py[1][0], px[0][2] * py[1][1]],
        [px[1][0] * py[0][0], px[1][0] * py[0][1], px[1][1] * py[0][0],
         px[1][1] * py[0][1], px[1][2] * py[0][0], px[1][2] * py[0][1]],
        [px[1][0] * py[1][0], px[1][0] * py[1][1], px[1][1] * py[1][0],
         px[1][1] * py[1][1], px[1][2] * py[1][0], px[1][2] * py[1][1]],
    ]
    # the hom combination transposes its first argument
    got_h = [list(r) for r in cardinality(mat_hom(x, y))]
    assert got_h == [
        [px[0][0] * py[0][0], px[0][0] * py[0][1], px[1][0] * py[0][0],
         px[1][0] * py[0][1]],
        [px[0][0] * py[1][0], px[0][0] * py[1][1], px[1][0] * py[1][0],
         px[1][0] * py[1][1]],
        [px[0][1] * py[0][0], px[0][1] * py[0][1], px[1][1] * py[0][0],
         px[1][1] * py[0][1]],
        [px[0][1] * py[1][0], px[0][1] * py[1][1], px[1][1] * py[1][0],
         px[1][1] * py[1][1]],
        [px[0][2] * py[0][0], px[0][2] * py[0][1], px[1][2] * py[0][0],
         px[1][2] * py[0][1]],
        [px[0][2] * py[1][0], px[0][2] * py[1][1], px[1][2] * py[1][0],
         px[1][2] * py[1][1]],
    ]
    report(7, "component sequences term-for-term; Kronecker layout")


def test_acceptance_8_round_trip_and_cli_determinism(tmp_path, capsys):
    rng = random.Random(808)
    for k in range(500):
        mode = (Mode.SMCB, Mode.CCB, Mode.DCCB)[k % 3]
        t = random_arrow(rng, mode, depth=5, obj_depth=3)
        assert parse_arrow(render_arrow(t), mode) == t
        a = random_object(rng, mode, depth=4)
        assert parse_object(render_object(a), mode) == a

    path = tmp_path / "det.cob"
    path.write_text(
        "mode smcb\n"
        "obj a = p (+) (q (x) r)\n"
        "check inj1[p, q (x) r] . proj1[p, q (x) r]"
        " + inj2[p, q (x) r] . proj2[p, q (x) r] = id[a]\n"
        "interpret sigma[p,q] (+) id[a]\n"
        "normalize proj1[p,q]\n"
        "decompose a (x) a\n",
        encoding="utf-8")
    runs = []
    for _ in range(2):
        code = main(["check", str(path), "--format", "json"])
        out = capsys.readouterr().out
        runs.append((code, out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    json.loads(runs[0][1])

    for _ in range(2):
        code = main(["selftest", "--depth", "2", "--instances", "5",
                     "--seed", "13"])
        out = capsys.readouterr().out
        runs.append((code, out))
    assert runs[2] == runs[3]
    report(8, "500 round trips; byte-identical check and selftest runs")

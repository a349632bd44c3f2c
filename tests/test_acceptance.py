"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check is exact (no tolerances); the measured
size/depth bounds are asserted exactly as stated.
"""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (MutationBase, internal_gates, mutate_certificate, ref_evaluate,
                     retrieval_point)

from ipscert.circuit import (
    CONST,
    MUL,
    CircuitBuilder,
    eval_circuit,
    expand,
    measure,
    partial_evaluate,
    subcircuit,
)
from ipscert.gadget import address_code, literal_gates, t_for
from ipscert.instances import (
    extract_clique_component,
    gadgeted_ry_circuit,
    lifted_subset_sum,
    mnc_instance,
    subset_sum,
    uvar,
)
from ipscert.poly import SparsePoly, Var, boolean_axiom
from ipscert.rank import balanced_partitions, exact_rank, fullrank_witness, rank_matrix
from ipscert.refute import assemble_refutation, certificate_to_json, gate_square_certificates
from ipscert.verify import PitConfig, boolean_image, verify_exact, verify_pit

# SHA-256 of criterion 5's 1,000 mutated certificate documents, taken when
# every mutant laid its base certificate out again.
MUTANT_DOCUMENTS_SHA256 = "b658d0a8c42554a2274789cf4a1b55a4e5b02700d8777907b2413e1587268dfa"
# Pinned constant for the transform size ledger: size(C') <= K * s * log2(s + 2).
SIZE_LEDGER_K = 6


def report(criterion: int, message: str, started: float) -> None:
    print(f"[criterion {criterion}] PASS ({time.perf_counter() - started:.2f}s): {message}")


def certifiable_gate_ids(c):
    """Gates whose cube values are 0/1: everything except constants outside
    {0,1} and the products scaled by them (the negations inside (1 - y))."""
    out = []
    for i, g in enumerate(c.gates):
        if g.op == CONST and g.const not in (0, 1):
            continue
        if g.op == MUL and any(
                c.gates[a].op == CONST and c.gates[a].const not in (0, 1) for a in g.args):
            continue
        out.append(i)
    return out


def test_criterion_1_gadget_truth_tables():
    started = time.perf_counter()
    checked = 0
    for n in range(9):
        t = t_for(n)
        vs = [Var("y", 0, b) for b in range(t + 1)]
        retrieval = {v: Fraction(1, 2) for v in vs[:-1]}
        retrieval[vs[-1]] = Fraction(1 << t)
        for j in range(n + 1):
            b = CircuitBuilder()
            circ = b.formula(b.prod(literal_gates(b, address_code(j, vs))))
            code = j + (1 << t)
            expected = tuple(code >> b & 1 for b in range(t + 1))
            ones = []
            for bits in itertools.product((0, 1), repeat=t + 1):
                val = eval_circuit(circ, dict(zip(vs, bits)))
                assert val in (0, 1)
                if val == 1:
                    ones.append(bits)
            assert ones == [expected]
            assert eval_circuit(circ, retrieval) == 1
            checked += 1
    report(1, f"{checked} gadget truth tables exhaustive, retrieval point exact", started)


def test_criterion_2_transform_correctness(transformed01):
    started = time.perf_counter()
    assert len(transformed01) == 200
    for c, cprime, ledger in transformed01:
        assert expand(partial_evaluate(cprime, retrieval_point(ledger))) == expand(c)
        m, mp = measure(c), measure(cprime)
        assert mp.depth <= 2 * m.depth + 2
        assert mp.size <= SIZE_LEDGER_K * max(m.size, 1) * math.log2(m.size + 2)
    report(2, "200 formulas: retrieval equality exact, depth <= 2*depth+2, "
              f"size <= {SIZE_LEDGER_K}*s*log2(s+2)", started)


def test_criterion_3_boolean_image(transformed01, transformed_pm1):
    started = time.perf_counter()
    checked01 = 0
    for _, cprime, _ in transformed01:
        if len(cprime.variables()) <= 16:
            rep = boolean_image(cprime, target=frozenset((0, 1)), exhaustive_limit=16)
            assert rep.exhaustive and rep.contained
            checked01 += 1
    checked_pm = 0
    for _, cprime, _ in transformed_pm1:
        if len(cprime.variables()) <= 16:
            rep = boolean_image(cprime, target=frozenset((-1, 0, 1)), exhaustive_limit=16)
            assert rep.exhaustive and rep.contained
            checked_pm += 1
    assert checked01 >= 100 and checked_pm >= 50
    report(3, f"exhaustive images: {checked01} transformed {{0,1}}-leaf formulas in {{0,1}}, "
              f"{checked_pm} {{-1,0,1}}-leaf formulas in {{-1,0,1}}", started)


def test_criterion_4_certificate_identities(transformed01):
    started = time.perf_counter()
    gates_checked = 0
    for c, cprime, ledger in transformed01:
        gids = certifiable_gate_ids(cprime)
        internal = internal_gates(ledger)
        skipped = set(range(len(cprime.gates))) - set(gids)
        assert skipped <= internal  # only gadget negations are exempt
        b, certs = gate_square_certificates(cprime, gids)
        # b starts from cprime's gates: each gate and its cofactors are one
        # group, and every gate they reach is expanded once.
        groups = [[gid, *certs[gid].values()] for gid in gids]
        for gid, (g, *cof_polys) in zip(gids, b.expand_each(groups)):
            rhs = SparsePoly.zero()
            mg = measure(subcircuit(cprime, gid))
            for (v, cof), cof_poly in zip(certs[gid].items(), cof_polys):
                m = b.metrics([cof])[0]
                assert m.size <= 100 * mg.size ** 4
                assert m.depth <= 2 * mg.depth
                rhs = rhs + cof_poly * boolean_axiom(v)
            assert g * g - g == rhs
            gates_checked += 1
        cert = assemble_refutation(cprime)
        assert verify_exact(cert).verdict == "verified-exact"
        m = measure(cprime)
        assert cert.total_size <= 100 * max(m.size, 1) ** 5
        assert cert.total_depth <= 2 * m.depth + 2
    report(4, f"{gates_checked} gate identities exact with ledger bounds; "
              "200 assembled refutations sum to 1 exactly", started)


@pytest.fixture(scope="module")
def base_certificates(transformed01):
    chosen = []
    for c, cprime, ledger in transformed01:
        if measure(cprime).size <= 60:
            chosen.append(assemble_refutation(cprime))
        if len(chosen) == 10:
            break
    assert len(chosen) == 10
    return chosen


def test_criterion_5_pit_soundness_surrogate(base_certificates):
    started = time.perf_counter()
    rng = random.Random(1009)
    bases = [MutationBase(cert) for cert in base_certificates]
    mutants = hashlib.sha256()
    rejected = 0
    for i in range(1000):
        k = i % len(base_certificates)
        mutated = mutate_certificate(rng, base_certificates[k], seed=i, base=bases[k])
        mutants.update(certificate_to_json(mutated).encode())
        rep = verify_pit(mutated, PitConfig(trials=20, seed=i))
        assert rep.verdict == "refuted"
        rejected += 1
    assert mutants.hexdigest() == MUTANT_DOCUMENTS_SHA256
    accepted = 0
    for seed in range(100):
        for cert in base_certificates:
            rep = verify_pit(cert, PitConfig(trials=20, seed=seed))
            assert rep.verdict == "verified-probabilistic"
            accepted += 1
    report(5, f"{rejected} single-site mutations rejected; "
              f"{accepted} valid runs accepted across 100 seeds", started)


def test_criterion_6_hard_instance_suite():
    started = time.perf_counter()
    for n in (1, 2):
        p, _ = gadgeted_ry_circuit(n)
        rep = boolean_image(p, target=frozenset((0, 1)), exhaustive_limit=16)
        assert rep.exhaustive and rep.contained
    p3, _ = gadgeted_ry_circuit(3)
    rep3 = boolean_image(p3, target=frozenset((0, 1)), exhaustive_limit=16,
                         samples=100_000, seed=2026)
    assert not rep3.exhaustive and rep3.points == 100_000 and rep3.contained
    for n in (1, 2):
        bundle = mnc_instance(n)
        product = bundle.instance_poly() * bundle.refutation_poly()
        assert product.multilinear_reduce() == SparsePoly.constant(1)
    report(6, "P image in {0,1} (exhaustive n<=2, 100000 samples n=3); "
              "reduce((2-P)(1+P)/2) = 1 for n<=2", started)


def test_criterion_7_rank_evidence():
    started = time.perf_counter()
    for n in (1, 2, 3, 4):
        circ, wsets = gadgeted_ry_circuit(n)
        parts = list(balanced_partitions([uvar(k) for k in range(1, 2 * n + 1)]))
        for part in parts:
            witness = fullrank_witness(wsets, part)
            f = expand(partial_evaluate(circ, witness))
            assert exact_rank(rank_matrix(f, part)) == 2 ** n
    assert len(parts) == 35  # n = 4
    report(7, "witnessed rank = 2^n for all balanced partitions, n <= 4 "
              "(35 partitions, rank 16 at n=4)", started)


def test_criterion_8_subset_sum():
    started = time.perf_counter()
    for n in range(1, 11):
        for beta in (n + 1, n * n + 1):
            bundle = subset_sum(n, beta)
            product = bundle.instance_poly() * bundle.refutation_poly()
            assert product.multilinear_reduce() == SparsePoly.constant(1)
    lifted = lifted_subset_sum(3)
    inst, refu = lifted.instance_poly(), lifted.refutation_poly()
    vars_ = sorted(set(inst.variables()) | set(refu.variables()))
    assert len(vars_) == 6
    for bits in itertools.product((0, 1), repeat=6):
        a = dict(zip(vars_, bits))
        assert ref_evaluate(dict(inst.items()), a) * ref_evaluate(dict(refu.items()), a) == 1
    g4 = lifted_subset_sum(4)
    comp = extract_clique_component(g4.refutation_poly(), 4, 2)
    expected = SparsePoly.zero()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            expected = expected + (SparsePoly.variable(Var("z", i, j))
                                   * SparsePoly.variable(Var("x", i))
                                   * SparsePoly.variable(Var("x", j)))
    assert comp == expected
    report(8, "subset-sum reduce(g*f)=1 for n<=10 at beta=n+1 and n^2+1; "
              "lifted n=3 exhaustive; clique component exact at n=4, l=2", started)

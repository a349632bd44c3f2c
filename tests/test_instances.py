import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from helpers import random_dag_circuit, random_layered_formula

from ipscert.circuit import (
    compile_evaluator,
    cvar,
    eval_circuit,
    eval_circuit_mod,
    expand,
    is_syntactically_multilinear,
    partial_evaluate,
)
from ipscert.instances import (
    extract_clique_component,
    functional_identity_holds,
    gadgeted_ry_circuit,
    lifted_subset_sum,
    mnc_instance,
    ry_circuit,
    subset_sum,
    subset_sum_alphas,
    uvar,
    valid_splits,
    vvar,
    wvar,
)
from ipscert.poly import SparsePoly, UnassignedVariableError, Var, mono_from_pairs
from ipscert.verify import DEFAULT_PIT_PRIME, boolean_image, boolean_image_poly

U = {i: SparsePoly.variable(uvar(i)) for i in range(1, 9)}


def test_valid_splits_even_only():
    assert valid_splits(1, 2) == ()
    assert valid_splits(1, 4) == (2,)
    assert valid_splits(1, 6) == (2, 4)
    assert valid_splits(1, 8) == (2, 4, 6)
    assert valid_splits(3, 6) == (4,)
    with pytest.raises(ValueError, match="even"):
        valid_splits(1, 3)


def test_ry_n1():
    assert expand(ry_circuit(1)) == 1 + U[1] * U[2]


def test_ry_n2():
    v = SparsePoly.variable(vvar(1, 2, 4))
    expected = (1 + U[1] * U[4]) * (1 + U[2] * U[3]) + v * (1 + U[1] * U[2]) * (1 + U[3] * U[4])
    assert expand(ry_circuit(2)) == expected


def test_ry_syntactically_multilinear():
    for n in (1, 2, 3, 4):
        assert is_syntactically_multilinear(ry_circuit(n))


def test_gadgeted_n1_formula():
    c, wsets = gadgeted_ry_circuit(1)
    wt = SparsePoly.variable(wvar(1, 2, "top"))
    wl = SparsePoly.variable(wvar(1, 2, "leaf"))
    assert expand(c) == (1 - wt) * ((1 - wl) + wl * U[1] * U[2])
    assert len(wsets) == 1
    assert wsets[0].address_vars == ()


def test_gadgeted_wvar_blocks_disjoint():
    _, wsets = gadgeted_ry_circuit(3)
    blocks = [{ws.w_top, ws.w_leaf, *ws.address_vars} for ws in wsets]
    for a, b in itertools.combinations(blocks, 2):
        assert not (a & b)


def test_gadgeted_address_block_sizes():
    _, wsets = gadgeted_ry_circuit(4)
    by_len = {}
    for ws in wsets:
        by_len.setdefault(ws.j - ws.i + 1, set()).add(len(ws.address_vars))
    # lengths 2, 4, 6, 8 have 0, 1, 2, 3 valid splits -> 0, 1, 2, 3 address bits
    assert by_len[2] == {0}
    assert by_len[4] == {1}
    assert by_len[6] == {2}
    assert by_len[8] == {3}


def test_gadgeted_syntactically_multilinear():
    for n in (1, 2, 3):
        c, _ = gadgeted_ry_circuit(n)
        assert is_syntactically_multilinear(c)


def test_gadgeted_image_exhaustive_n1():
    c, _ = gadgeted_ry_circuit(1)
    assert len(c.variables()) == 4
    report = boolean_image(c, target=frozenset((0, 1)))
    assert report.exhaustive and report.contained


def test_gadgeted_image_exhaustive_n2():
    c, _ = gadgeted_ry_circuit(2)
    assert len(c.variables()) <= 15
    report = boolean_image(c, target=frozenset((0, 1)))
    assert report.exhaustive and report.contained


def test_gadgeted_split_substitution_factors():
    # selecting a split address reduces the interval to the product of halves
    c, wsets = gadgeted_ry_circuit(2)
    ws = next(w for w in wsets if (w.i, w.j) == (1, 4))
    assignment = {ws.w_top: 1}
    # address 0 encodes the only valid split r=2: code 0 + 2^0 = 1
    assignment[ws.address_vars[0]] = 1
    reduced = expand(partial_evaluate(c, assignment))
    c12, _ = gadgeted_ry_circuit(1)
    p12 = expand(c12)
    mapping = {uvar(1): U[3], uvar(2): U[4],
               wvar(1, 2, "top"): SparsePoly.variable(wvar(3, 4, "top")),
               wvar(1, 2, "leaf"): SparsePoly.variable(wvar(3, 4, "leaf"))}
    p34 = p12.substitute(mapping)
    assert reduced == p12 * p34


def test_mnc_identity_small():
    for n in (1, 2):
        bundle = mnc_instance(n)
        assert functional_identity_holds(bundle)


def test_mnc_instance_never_zero_on_cube():
    bundle = mnc_instance(1)
    values = boolean_image_poly(bundle.instance_poly())
    assert Fraction(0) not in values
    assert values <= {Fraction(1), Fraction(2)}


def test_mnc_refutation_is_pointwise_inverse():
    bundle = mnc_instance(1)
    inst, refu = bundle.instance_poly(), bundle.refutation_poly()
    vars_ = inst.variables()
    for bits in itertools.product((0, 1), repeat=len(vars_)):
        a = dict(zip(vars_, bits))
        assert inst.evaluate(a) * refu.evaluate(a) == 1


def test_subset_sum_alphas_example():
    assert subset_sum_alphas(1, Fraction(2)) == [Fraction(-1, 2), Fraction(-1, 2)]


def test_subset_sum_identity_small():
    b = subset_sum(1, 2)
    z = SparsePoly.variable(Var("z", 1))
    assert b.refutation_poly() == -Fraction(1, 2) - z * Fraction(1, 2)
    assert functional_identity_holds(b)


def test_subset_sum_rejects_achievable_beta():
    for beta in (0, 1, 3, 7):
        with pytest.raises(ValueError, match="satisfiable"):
            subset_sum(7, beta)


def test_subset_sum_unsat_spot_check():
    b = subset_sum(5, 6)
    point = {Var("z", i): 1 for i in range(1, 6)}
    assert b.instance_poly().evaluate(point) == -1


def test_subset_sum_cube_identity_exhaustive():
    for n, beta in ((4, 5), (4, 17), (6, 7)):
        b = subset_sum(n, beta)
        inst, refu = b.instance_poly(), b.refutation_poly()
        zs = [Var("z", i) for i in range(1, n + 1)]
        for bits in itertools.product((0, 1), repeat=n):
            a = dict(zip(zs, bits))
            assert inst.evaluate(a) * refu.evaluate(a) == 1


def test_lifted_subset_sum_n2():
    b = lifted_subset_sum(2)
    # one pair: instance z12*x1*x2 - 2 with the n_vars=1, beta=2 alphas
    z = Var("z", 1, 2)
    x1, x2 = Var("x", 1), Var("x", 2)
    zm = SparsePoly({mono_from_pairs([(z, 1), (x1, 1), (x2, 1)]): Fraction(1)})
    assert b.instance_poly() == zm - 2
    assert b.refutation_poly() == -Fraction(1, 2) - zm * Fraction(1, 2)
    assert functional_identity_holds(b)


def test_lifted_subset_sum_n3_exhaustive():
    b = lifted_subset_sum(3)
    inst, refu = b.instance_poly(), b.refutation_poly()
    assert refu.is_multilinear()
    vars_ = sorted(set(inst.variables()) | set(refu.variables()))
    assert len(vars_) == 6
    for bits in itertools.product((0, 1), repeat=len(vars_)):
        a = dict(zip(vars_, bits))
        assert inst.evaluate(a) * refu.evaluate(a) == 1


def test_clique_component_n4_ell2():
    b = lifted_subset_sum(4)
    comp = extract_clique_component(b.refutation_poly(), 4, 2)
    expected = SparsePoly.zero()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            expected = expected + SparsePoly({mono_from_pairs(
                [(Var("z", i, j), 1), (Var("x", i), 1), (Var("x", j), 1)]): Fraction(1)})
    assert comp == expected


def test_clique_component_full_clique():
    b = lifted_subset_sum(4)
    comp = extract_clique_component(b.refutation_poly(), 4, 4)
    # single vertex set of size 4: all six edges and all four vertices
    assert len(comp.terms) == 1
    (mono, coeff), = comp.terms.items()
    assert coeff == 1
    assert sum(1 for v, _ in mono if v.ns == "z") == comb(4, 2)
    assert sum(1 for v, _ in mono if v.ns == "x") == 4


def test_clique_component_trivial_cases():
    b = lifted_subset_sum(3)
    comp0 = extract_clique_component(b.refutation_poly(), 3, 0)
    assert comp0 == 1
    assert extract_clique_component(SparsePoly.zero(), 3, 2) == SparsePoly.zero()


def test_instance_sampling_evaluator_consistency():
    c, _ = gadgeted_ry_circuit(2)
    run = compile_evaluator(c)
    rng = random.Random(9)
    vars_ = c.variables()
    for _ in range(50):
        a = {v: rng.randrange(2) for v in vars_}
        assert Fraction(run(a)) == eval_circuit(c, a)

    # Differential check of the one compiled evaluator against exact
    # expansion, over Q and over GF(p), on random formulas and DAGs.
    pool = (0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3))
    circuits = [c]
    circuits += [random_layered_formula(rng, max_nodes=25, const_pool=pool) for _ in range(25)]
    circuits += [random_dag_circuit(rng, n_gates=14) for _ in range(25)]
    for c in circuits:
        run = compile_evaluator(c)
        p = expand(c)
        vars_ = c.variables()
        integral = all(q.denominator == 1 for q in c.constants())
        for _ in range(4):
            bits = {v: rng.randrange(2) for v in vars_}
            ints = {v: rng.randint(-5, 5) for v in vars_}
            fracs = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in vars_}
            for a in (bits, ints, fracs):
                assert Fraction(run(a)) == p.evaluate(a) == eval_circuit(c, a)
            assert run({v: str(q) for v, q in fracs.items()}) == run(fracs)
            assert type(run(ints)) is int or not integral
            big = {v: rng.randint(-10 ** 30, 10 ** 30) for v in vars_}
            for prime in (DEFAULT_PIT_PRIME, 101):
                assert run(big, prime) == p.evaluate_mod(big, prime) \
                    == eval_circuit_mod(c, big, prime)
        missing = dict(bits)
        del missing[vars_[0]]
        for prime in (None, 101):
            with pytest.raises(UnassignedVariableError, match=vars_[0].name):
                run(missing, prime)
    x1 = Var("x", 1)
    assert compile_evaluator(cvar(x1))({x1: -5}, 101) == 96

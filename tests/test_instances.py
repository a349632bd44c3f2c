import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pointwise,
    random_dag_circuit,
    random_layered_formula,
    ref_evaluate,
    ref_evaluate_mod,
    reference_inverse_differences,
    reference_lifted_subset_sum,
    reference_subset_sum,
)

from ipscert.circuit import (
    CONST,
    as_circuit,
    circuit_sha256,
    cvar,
    eval_circuit,
    eval_circuit_mod,
    expand,
    format_circuit,
    is_syntactically_multilinear,
    partial_evaluate,
)
from ipscert.instances import (
    FAMILIES,
    extract_clique_component,
    functional_identity_holds,
    gadgeted_ry_circuit,
    interval_wvarsets,
    inverse_differences,
    lifted_subset_sum,
    mnc_instance,
    ry_circuit,
    subset_sum,
    uvar,
    valid_splits,
    vvar,
    wvar,
)
from ipscert import instances
from ipscert.poly import ResourceLimitError, SparsePoly, UnassignedVariableError, Var, format_poly
from ipscert.verify import DEFAULT_PIT_PRIME, boolean_image, boolean_image_poly

U = {i: SparsePoly.variable(uvar(i)) for i in range(1, 9)}


def value(p, point):
    return ref_evaluate(dict(p.items()), point)

# SHA-256 of mnc's instance and refutation text as written when they were
# composed by the value-style constructors (cadd, cconst, cscale).
MNC_SHA256 = {
    1: ("253aa9c96999de2fcd09787094a87d932e46a506e5f2e34aa4490798fb613099",
        "cfc5b686fcfefc821429b5f6049baa12c121faf1aa6c3b32936967f01f3d0182"),
    2: ("36be1b231a859c8ee932cd3e981000afd3ede2b766dfbb9f1f2461aadfead8e0",
        "bbc4d8c2d1d948621dfaeb6a8b8b5d2ecc0439d6935e6e98133196d12164d218"),
    3: ("dee79a0e9f9929766caa0dc0bba1a09eb7ceec444d0870d884c0a9aa06f7cd1f",
        "bca501b29510a890c5709af3e724436b501e1586f336c6b64a81d766c6f619bd"),
}

# SHA-256 of the subset-sum families' instance and refutation text, over the
# listed n: each polynomial's circuit text, then its format_poly text.  Taken
# when the polynomials were built from tuple monomials.
SUBSET_SUM_SHA256 = {
    ("subset-sum", None, range(1, 9)):
        "07608afe8533e5950307434341302c2070f3c30529b02a6232682690f7a1431a",
    ("subset-sum", "-1", range(1, 9)):
        "b2222c32cb836672b7c53ca20994c90ccfcc7bec68d177aa270b8d43aa5d376e",
    ("subset-sum", "1/2", range(1, 9)):
        "13d39bf999961544cc1918c3a242f54fbdba2ae8c94313879e5bcc5d5cb1bddc",
    ("lifted-subset-sum", None, range(2, 6)):
        "144441be322a2576da7621651fcd16b93e3cefbc13c2c38cf400e09dc0ecd70d",
}

# SHA-256 of the interval families' circuit text, taken before ry_circuit and
# gadgeted_ry_circuit were built by one shared interval walk.  The text pins
# the gate order: each gate id is a position in it.
RY_SHA256 = {
    1: "9d3dfe903b05f420dc76fd6479ceac49beee646a929d8c24894c887c4465963c",
    2: "4fde080cafff551f6569777bd97ac09633769f5c20d9c409e03638cf3a5f2dba",
    3: "ff007b72cd91fe38e27db993b9a0d61faa51cf7ab51015be30471992e96f5352",
    4: "50db3e8b8efc168160caf3f05be37b57f4dcb8d2bfa3f78ce770928663ef3719",
    5: "5f168d15de8efafce177c5e80e6a338b4da58f81321822218ee0b0cf3b9aa5e0",
    6: "d5ca50fc07e4a7096286f3cbda7c9df16e742049d2e59f6f01926fdbb19c6677",
}
GADGETED_RY_SHA256 = {
    4: "639dee48884c7ba1256310a94a91607a310f76528ca014c78bce78161ec89251",
    5: "b1743e2e554c22e39726847382a8e978dd1760ac5a65f34193a56ba9f309aa34",
    6: "5acf36831fb3cab9e1993e0e6068f935ea456aba22a348ec2a608a22d9c5e297",
}


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


def test_interval_wvarsets_lists_exactly_the_control_variables_of_the_circuit():
    for n in range(1, 7):
        c, wsets = gadgeted_ry_circuit(n)
        listed = interval_wvarsets(n)
        assert listed == wsets
        assert [(ws.i, ws.j) for ws in listed] == sorted(
            ((ws.i, ws.j) for ws in listed), key=lambda ij: (ij[1] - ij[0], ij[0]))
        controls = {v for ws in listed for v in (ws.w_top, ws.w_leaf, *ws.address_vars)}
        assert controls == {v for v in c.variables() if v.ns == "w"}
    with pytest.raises(ValueError, match="at least 1"):
        interval_wvarsets(0)


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
        assert value(inst, a) * value(refu, a) == 1


def test_inverse_differences_example():
    assert inverse_differences(1, Fraction(2)) == [Fraction(-1, 2), Fraction(-1, 2)]


# A target off {0..k}: negative, past the top, or fractional.
_OFF_IMAGE = st.integers(0, 12).flatmap(lambda k: st.tuples(st.just(k), st.one_of(
    st.integers(-50, -1).map(Fraction),
    st.integers(k + 1, k + 50).map(Fraction),
    st.fractions(-20, 20).filter(lambda b: b.denominator > 1))))


@settings(max_examples=200, deadline=None)
@given(_OFF_IMAGE)
def test_inverse_differences_match_the_triangular_solve(k_beta):
    k, beta = k_beta
    assert inverse_differences(k, beta) == reference_inverse_differences(k, beta)


def test_inverse_differences_reject_every_target_in_the_image():
    for k in range(13):
        for beta in range(k + 1):
            with pytest.raises(ValueError, match=f"beta = {beta} .*satisfiable"):
                inverse_differences(k, Fraction(beta))


def test_subset_sum_identity_small():
    b = subset_sum(1, 2)
    z = SparsePoly.variable(Var("z", 1))
    assert b.refutation_poly() == -Fraction(1, 2) - z * Fraction(1, 2)
    assert functional_identity_holds(b)


def test_subset_sum_rejects_achievable_beta():
    for beta in (0, 1, 3, 7):
        with pytest.raises(ValueError, match="satisfiable"):
            subset_sum(7, beta)


def test_subset_sum_refutation_over_the_guard_is_refused_before_any_e_k(monkeypatch):
    # The refutation over m terms has exactly 2^m terms.
    monkeypatch.setattr(instances, "TERM_GUARD", 1 << 10)
    assert len(subset_sum(10).refutation_poly()) == 1 << 10

    def formed(*args):
        raise AssertionError("an e_k was formed")

    monkeypatch.setattr(SparsePoly, "multilinear_product", formed)
    with pytest.raises(ResourceLimitError, match=r"2\^11 terms is over the dense-size guard"):
        subset_sum(11)
    with pytest.raises(ValueError, match="satisfiable"):
        subset_sum(11, 3)


def test_subset_sum_unsat_spot_check():
    b = subset_sum(5, 6)
    point = {Var("z", i): 1 for i in range(1, 6)}
    assert value(b.instance_poly(), point) == -1


def test_subset_sum_cube_identity_exhaustive():
    for n, beta in ((4, 5), (4, 17), (6, 7)):
        b = subset_sum(n, beta)
        inst, refu = b.instance_poly(), b.refutation_poly()
        zs = [Var("z", i) for i in range(1, n + 1)]
        for bits in itertools.product((0, 1), repeat=n):
            a = dict(zip(zs, bits))
            assert value(inst, a) * value(refu, a) == 1


def test_lifted_subset_sum_n2():
    b = lifted_subset_sum(2)
    # one pair: instance z12*x1*x2 - 2 with the n_vars=1, beta=2 alphas
    z = Var("z", 1, 2)
    x1, x2 = Var("x", 1), Var("x", 2)
    zm = SparsePoly.variable(z) * SparsePoly.variable(x1) * SparsePoly.variable(x2)
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
        assert value(inst, a) * value(refu, a) == 1


def _same_bundle(got, want):
    assert got.name == want.name and got.params == want.params
    assert got.provenance == want.provenance
    for x, y in ((got.instance, want.instance), (got.refutation, want.refutation)):
        assert x == y and format_poly(x) == format_poly(y)


@pytest.mark.parametrize("beta", [None, Fraction(-3), Fraction(7, 2)])
def test_subset_sum_matches_the_substitution_construction(beta):
    for n in range(1, 11):
        _same_bundle(subset_sum(n, beta), reference_subset_sum(n, beta))


@pytest.mark.parametrize("beta", [None, Fraction(-1), Fraction(5, 3)])
def test_lifted_subset_sum_matches_the_substitution_construction(beta):
    for n in range(2, 6):
        _same_bundle(lifted_subset_sum(n, beta), reference_lifted_subset_sum(n, beta))


def test_clique_component_n4_ell2():
    b = lifted_subset_sum(4)
    comp = extract_clique_component(b.refutation_poly(), 4, 2)
    expected = SparsePoly.zero()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            expected = expected + (SparsePoly.variable(Var("z", i, j))
                                   * SparsePoly.variable(Var("x", i))
                                   * SparsePoly.variable(Var("x", j)))
    assert comp == expected


def test_clique_component_full_clique():
    b = lifted_subset_sum(4)
    comp = extract_clique_component(b.refutation_poly(), 4, 4)
    # single vertex set of size 4: all six edges and all four vertices
    assert len(comp) == 1
    (mono, coeff), = comp.items()
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
    run = pointwise(c)
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
        run = pointwise(c)
        terms = dict(expand(c).items())
        vars_ = c.variables()
        integral = all(g.const.denominator == 1 for g in c.gates if g.op == CONST)
        for _ in range(4):
            bits = {v: rng.randrange(2) for v in vars_}
            ints = {v: rng.randint(-5, 5) for v in vars_}
            fracs = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in vars_}
            for a in (bits, ints, fracs):
                assert Fraction(run(a)) == ref_evaluate(terms, a) == eval_circuit(c, a)
            assert run({v: str(q) for v, q in fracs.items()}) == run(fracs)
            assert type(run(ints)) is int or not integral
            big = {v: rng.randint(-10 ** 30, 10 ** 30) for v in vars_}
            for prime in (DEFAULT_PIT_PRIME, 101):
                assert run(big, prime) == ref_evaluate_mod(terms, big, prime) \
                    == eval_circuit_mod(c, big, prime)
        missing = dict(bits)
        del missing[vars_[0]]
        for prime in (None, 101):
            with pytest.raises(UnassignedVariableError, match=vars_[0].name):
                run(missing, prime)
    x1 = Var("x", 1)
    assert pointwise(cvar(x1))({x1: -5}, 101) == 96


@pytest.mark.parametrize("n", sorted(MNC_SHA256))
def test_mnc_text_is_pinned(n):
    bundle = mnc_instance(n)
    assert (circuit_sha256(bundle.instance), circuit_sha256(bundle.refutation)) == MNC_SHA256[n]


@pytest.mark.parametrize("family, beta, ns", sorted(SUBSET_SUM_SHA256, key=str))
def test_subset_sum_text_is_pinned(family, beta, ns):
    h = hashlib.sha256()
    for n in ns:
        b = FAMILIES[family](n, None if beta is None else Fraction(beta))
        for x, p in ((b.instance, b.instance_poly()), (b.refutation, b.refutation_poly())):
            h.update((format_circuit(as_circuit(x)) + format_poly(p) + "\n").encode())
    assert h.hexdigest() == SUBSET_SUM_SHA256[family, beta, ns]


@pytest.mark.parametrize("n", sorted(RY_SHA256))
def test_ry_text_is_pinned(n):
    assert circuit_sha256(ry_circuit(n)) == RY_SHA256[n]


@pytest.mark.parametrize("n", sorted(GADGETED_RY_SHA256))
def test_gadgeted_ry_text_is_pinned(n):
    c, _ = gadgeted_ry_circuit(n)
    assert circuit_sha256(c) == GADGETED_RY_SHA256[n]

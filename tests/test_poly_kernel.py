"""The packed-monomial kernel against a tuple-monomial reference.

The reference below keeps polynomials as plain dicts from sorted
(Var, exponent) tuples to Fractions and is used as an oracle only.
"""

import random
from contextlib import nullcontext
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipscert.circuit import Circuit, cadd, cconst, expand, poly_to_circuit
from ipscert import poly
from ipscert.gadget import gadgetize
from ipscert.poly import (
    NAMESPACES,
    ResourceLimitError,
    SparsePoly,
    Var,
    _Accumulator,
    _EXP_MAX,
    elementary_sum,
    format_poly,
    fresh_slots,
    parse_poly,
    parse_var,
)
from ipscert.refute import assemble_refutation
from ipscert.verify import verify_exact

from helpers import (certificate_of, laid_out, pointwise, poly_of, random_layered_formula,
                     ref_evaluate, ref_evaluate_mod)

KERNEL = settings(max_examples=150, deadline=None, derandomize=True, database=None)

POOL = (Var("x", 1), Var("x", 2), Var("u", 3), Var("y", 4, 0), Var("w", 1, 2, "top"),
        Var("v", 1, 2, 4), Var("z", 3, 5), Var("fresh", 7))
PRIME = 1_000_003


# ---------------------------------------------------------------------------
# Reference implementation on tuple monomials.

def _mono(exps: dict) -> tuple:
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda ve: ve[0]._key))


def _clean(d: dict) -> dict:
    return {m: c for m, c in d.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            m = _mono(exps)
            out[m] = out.get(m, 0) + ca * cb
    return _clean(out)


def ref_pow(a: dict, k: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_restrict(a: dict, v: Var, value: Fraction) -> dict:
    out: dict = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.pop(v, 0)
        key = _mono(exps)
        out[key] = out.get(key, 0) + c * value ** e
    return _clean(out)


def ref_substitute(a: dict, mapping: dict) -> dict:
    out: dict = {}
    for m, c in a.items():
        term = {(): c}
        for v, e in m:
            image = mapping.get(v, {((v, 1),): Fraction(1)})
            term = ref_mul(term, ref_pow(image, e))
        out = ref_add(out, term)
    return out


def ref_reduce(a: dict) -> dict:
    out: dict = {}
    for m, c in a.items():
        key = tuple((v, 1) for v, _ in m)
        out[key] = out.get(key, 0) + c
    return _clean(out)


def ref_variables(a: dict) -> tuple:
    return tuple(sorted({v for m in a for v, _ in m}, key=lambda v: v._key))


def ref_degree_in(a: dict, v: Var) -> int:
    return max((dict(m).get(v, 0) for m in a), default=0)


# ---------------------------------------------------------------------------
# Strategies.

coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
pools = st.lists(st.sampled_from(POOL), min_size=1, max_size=8, unique=True)


@st.composite
def ref_polys(draw, pool) -> dict:
    out: dict = {}
    for exps, c in draw(st.lists(
            st.tuples(st.dictionaries(st.sampled_from(pool), st.integers(1, 5)), coeffs),
            max_size=6)):
        m = _mono(exps)
        out[m] = out.get(m, 0) + c
    return _clean(out)


@st.composite
def poly_pairs(draw):
    pool = draw(pools)
    return pool, draw(ref_polys(pool)), draw(ref_polys(pool))


def kernel(a: dict) -> SparsePoly:
    p = poly_of(a)
    assert dict(p.items()) == a
    return p


# ---------------------------------------------------------------------------
# Kernel against reference.

@KERNEL
@given(poly_pairs(), st.integers(0, 3))
def test_ring_operations_match_reference(pair, k):
    _, a, b = pair
    p, q = kernel(a), kernel(b)
    assert dict((p + q).items()) == ref_add(a, b)
    assert dict((p - q).items()) == ref_add(a, {m: -c for m, c in b.items()})
    assert dict((p * q).items()) == ref_mul(a, b)
    assert dict((p ** k).items()) == ref_pow(a, k)


@KERNEL
@given(poly_pairs(), st.data())
def test_restrict_substitute_reduce_match_reference(pair, data):
    pool, a, b = pair
    p = kernel(a)
    v = data.draw(st.sampled_from(pool))
    value = data.draw(values)
    assert dict(p.restrict(v, value).items()) == ref_restrict(a, v, value)
    image = {m: c for m, c in list(b.items())[:3]}
    assert dict(p.substitute({v: kernel(image)}).items()) == ref_substitute(a, {v: image})
    reduced = p.multilinear_reduce()
    assert dict(reduced.items()) == ref_reduce(a)
    assert reduced.is_multilinear()
    assert p.is_multilinear() == (ref_reduce(a) == a)


@KERNEL
@given(poly_pairs(), st.data())
def test_evaluation_and_queries_match_reference(pair, data):
    pool, a, _ = pair
    p = kernel(a)
    point = {v: data.draw(values) for v in pool}
    run = pointwise(poly_to_circuit(p))
    assert run(point) == ref_evaluate(a, point)
    mod_point = {v: data.draw(st.integers(0, PRIME - 1)) for v in pool}
    assert run(mod_point, PRIME) == ref_evaluate_mod(a, mod_point, PRIME)
    assert p.variables() == ref_variables(a)
    for v in POOL:
        assert p.degree_in(v) == ref_degree_in(a, v)
    constant = p
    for v in pool:
        constant = constant.restrict(v, 0)
    assert dict(constant.items()) == {m: c for m, c in a.items() if not m}
    assert all(isinstance(c, Fraction) for _, c in p.items())


@KERNEL
@given(pools.flatmap(ref_polys))
def test_text_round_trip_is_byte_identical(a):
    s = format_poly(kernel(a))
    assert parse_poly(s) == kernel(a)
    assert format_poly(parse_poly(s)) == s


# ---------------------------------------------------------------------------
# Coefficient form: nonzero int numerators over one positive denominator
# that shares no factor with all of them.

def assert_canonical(p: SparsePoly) -> None:
    nums = list(p._t.values())
    assert type(p._d) is int and p._d >= 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert gcd(p._d, *nums) == 1


FORM_STEPS = ("add", "mul", "div", "restrict", "reduce", "multilinear_product", "undo")


@KERNEL
@given(poly_pairs(), st.lists(st.tuples(st.sampled_from(FORM_STEPS), st.integers(0, 7),
                                        st.integers(0, 7), values), max_size=6))
def test_every_operation_keeps_the_canonical_form(pair, steps):
    pool, a, b = pair
    built = [parse_poly(format_poly(kernel(a))), parse_poly(format_poly(kernel(b)))]
    for step, i, j, value in steps:
        p, q = built[i % len(built)], built[j % len(built)]
        if step in ("mul", "multilinear_product") and len(p) * len(q) > 64:
            continue
        if step == "add":
            built.append(p + q)
        elif step == "mul":
            built.append(p * q)
        elif step == "div" and value:
            built.append(p / value)
        elif step == "restrict":
            built.append(p.restrict(pool[j % len(pool)], value))
        elif step == "reduce":
            built.append(p.multilinear_reduce())
        elif step == "multilinear_product":
            built.append(p.multilinear_product(q))
        elif step == "undo" and value:
            built.append(p / value * value)
    for p in built:
        assert_canonical(p)
    for p in built:
        for q in built:
            assert (p == q) == (format_poly(p) == format_poly(q))


def test_canonical_form_fixed_cases():
    x = SparsePoly.variable(Var("x", 1))
    assert (x / 2 + x / 2)._d == 1 and x / 2 + x / 2 == x
    half = (x / 6) * 3
    assert half == x / 2 and half._d == 2 and half._t == (x / 2)._t
    zeros = (SparsePoly.zero(), x / 3 - x / 3, (x / 5) * 0, (x / 7).restrict(Var("x", 1), 0))
    for z in zeros:
        assert z.is_zero() and z._d == 1
        assert_canonical(z)


# ---------------------------------------------------------------------------
# Slot tables: operands packed in two tables give what one table gives.

def _in_table(a: dict, first_use) -> SparsePoly:
    """a packed in a fresh table whose first slots go to first_use, in order."""
    with fresh_slots():
        for v in first_use:
            SparsePoly.variable(v)
        return kernel(a)


@KERNEL
@given(poly_pairs(), st.data())
def test_operands_from_two_tables_match_one_table(pair, data):
    pool, a, b = pair
    p, q = kernel(a), kernel(b)
    p2, q2 = _in_table(a, pool), _in_table(b, pool[::-1])
    assert p2._tab is not q2._tab
    for left, right in ((p2, q2), (q2, p2), (p, q2), (p2, q)):
        ab = (a, b) if left is p or left is p2 else (b, a)
        total = left + right
        assert dict(total.items()) == ref_add(*ab)
        assert total == p + q and format_poly(total) == format_poly(p + q)
        product = left * right
        assert dict(product.items()) == ref_mul(*ab)
        assert product == p * q and format_poly(product) == format_poly(p * q)
    assert p2 == p and q2 == q and p == p2
    assert (p2 == q2) == (a == b)
    acc = _Accumulator()
    acc.add(p2)
    acc.add_product(p2, q2)
    acc.add(q)
    assert dict(acc.result().items()) == ref_add(ref_add(a, ref_mul(a, b)), b)
    v = data.draw(st.sampled_from(pool))
    value = data.draw(values)
    assert dict(p2.restrict(v, value).items()) == ref_restrict(a, v, value)
    assert p2.variables() == p.variables() == ref_variables(a)
    for w in POOL:
        assert p2.degree_in(w) == p.degree_in(w) == ref_degree_in(a, w)
    reduced = p2.multilinear_reduce()
    assert dict(reduced.items()) == ref_reduce(a)
    assert reduced.subset_masks(pool) == p.multilinear_reduce().subset_masks(pool)
    assert format_poly(p2) == format_poly(p)


@KERNEL
@given(poly_pairs(), st.sampled_from(("any", "zero", "constant")), st.data())
def test_multilinear_product_matches_product_then_reduce(pair, kind, data):
    pool, a, b = pair
    if kind == "zero":
        b = {}
    elif kind == "constant":
        b = _clean({(): data.draw(coeffs)})
    want = ref_reduce(ref_mul(a, b))
    p, q = kernel(a), kernel(b)
    p2, q2 = _in_table(a, pool), _in_table(b, pool[::-1])
    assert dict((p * q).multilinear_reduce().items()) == want
    for left, right in ((p, q), (q, p), (p2, q2), (q2, p2), (p, q2), (p2, q)):
        product = left.multilinear_product(right)
        assert dict(product.items()) == want
        assert product == (left * right).multilinear_reduce()
        assert format_poly(product) == format_poly((p * q).multilinear_reduce())
    reduced = p.multilinear_reduce()
    assert reduced.multilinear_product(q2) == p.multilinear_product(q)


def test_multilinear_product_keeps_the_product_guard(monkeypatch):
    monkeypatch.setattr(poly, "TERM_GUARD", 8)
    x1, x2 = SparsePoly.variable(Var("x", 1)), SparsePoly.variable(Var("x", 2))
    p, q = x1 + x2 + 1, x1 * x1 - x2 + 3
    with pytest.raises(ResourceLimitError) as full:
        p * q
    with pytest.raises(ResourceLimitError) as reduced:
        p.multilinear_product(q)
    assert str(reduced.value) == str(full.value) \
        == "product projects to 3*3 terms, over the dense-size guard"


# ---------------------------------------------------------------------------
# multilinear_product takes the pair loop or the cube by its cost rule; both
# give (p * q).multilinear_reduce().

CUBE_POOL = tuple(Var("x", i) for i in range(1, 11))


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _dense(rng, vars_, density: float, square: bool = False) -> dict:
    """Each of the 2^k multilinear monomials over vars_ kept with probability
    density and a random rational coefficient; with square, each monomial's
    first variable is squared, so the polynomial is not multilinear."""
    terms: dict = {}
    for mask in range(1 << len(vars_)):
        if rng.random() < density:
            exps = {v: 1 for j, v in enumerate(vars_) if mask >> j & 1}
            if square and exps:
                exps[next(iter(exps))] = 2
            m = _mono(exps)
            terms[m] = terms.get(m, 0) + _fraction(rng)
    return _clean(terms)


def _parsed(a: dict, first_use=()) -> SparsePoly:
    """a through parse_poly, in a fresh table whose first slots go to
    first_use: quicker than ring operations on thousands of terms."""
    text = " + ".join(" * ".join([f"{c.numerator}/{c.denominator}"]
                                 + [v.name if e == 1 else f"{v.name}^{e}" for v, e in m])
                      for m, c in a.items())
    with fresh_slots():
        for v in first_use:
            SparsePoly.variable(v)
        p = parse_poly(text or "0")
    assert dict(p.items()) == a
    return p


def _product_cases(rng):
    """(a, b, where): seeded operand pairs on both sides of the cost rule."""
    for k in range(1, 11):
        vars_ = rng.sample(CUBE_POOL, k)
        linear = _clean({**{((v, 1),): _fraction(rng) for v in vars_}, (): _fraction(rng)})
        full = _dense(rng, vars_, 1.0)
        yield linear, full, "linear times dense"
        yield _clean({(): _fraction(rng)}), full, "a constant times dense"
        yield _dense(rng, vars_, 0.2), _dense(rng, vars_, 0.2), "sparse times sparse"
        if k > 8:
            continue    # the reference product below would take 2^(2k-1) pairs
        yield full, _dense(rng, vars_, 0.5), "dense times half dense"
        yield _dense(rng, vars_, 0.5, square=True), full, "not multilinear"
        # x_j * A times (1 - x_j) * B vanishes on the cube: every entry cancels.
        xj, rest = vars_[0], vars_[1:]
        a = {_mono({xj: 1, **dict(m)}): c for m, c in _dense(rng, rest, 1.0).items()}
        b = _dense(rng, rest, 1.0)
        b = ref_add(b, {_mono({xj: 1, **dict(m)}): -c for m, c in b.items()})
        yield a, b, "a product that cancels to zero"


def test_multilinear_product_paths_agree_with_product_then_reduce(monkeypatch):
    taken = {"_cube_product": 0, "_pair_product": 0}
    for name in taken:
        def counted(*args, real=getattr(poly, name), name=name):
            taken[name] += 1
            return real(*args)
        monkeypatch.setattr(poly, name, counted)
    rng = random.Random(37)
    for a, b, where in _product_cases(rng):
        p, q = _parsed(a, CUBE_POOL), _parsed(b, CUBE_POOL)
        want = (p * q).multilinear_reduce()
        order = list(CUBE_POOL)
        rng.shuffle(order)
        p2, q2 = _parsed(a, order), _parsed(b, order[::-1])
        for left, right in ((p, q), (q, p), (p2, q2), (p, q2)):
            got = left.multilinear_product(right)
            assert got == want, where
            assert_canonical(got)
        assert format_poly(got) == format_poly(want), where
        if where == "a product that cancels to zero":
            assert want.is_zero()
    # The sizes above put operands on both sides of the cost rule.
    assert taken["_cube_product"] and taken["_pair_product"]


def test_cost_rule_sends_dense_factors_to_the_cube(monkeypatch):
    taken = []
    for name in ("_cube_product", "_pair_product"):
        def counted(*args, real=getattr(poly, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(poly, name, counted)
    rng = random.Random(3)
    vars_ = CUBE_POOL[:8]
    full, linear = kernel(_dense(rng, vars_, 1.0)), kernel(_dense(rng, vars_[:1], 1.0))
    full.multilinear_product(full)        # 2^16 pairs over 2^8 subsets
    linear.multilinear_product(full)      # 2 * 2^8 pairs
    assert taken == ["_cube_product", "_pair_product"]


# ---------------------------------------------------------------------------
# elementary_sum: sum_k c_k e_k of monic monomials, multilinearized.

def _elementary_reference(terms: list, coeffs: list) -> SparsePoly:
    """The same sum by the e_k recurrence over multilinear_product."""
    e = [SparsePoly.constant(1)] + [SparsePoly.zero()] * len(terms)
    for j, t in enumerate(terms, start=1):
        for k in range(j, 0, -1):
            e[k] = e[k] + (t * e[k - 1]).multilinear_reduce()
    return sum((c * ek for c, ek in zip(coeffs, e)), SparsePoly.zero())


def test_elementary_sum_matches_the_e_k_recurrence():
    rng = random.Random(11)
    x = [SparsePoly.variable(v) for v in CUBE_POOL]
    cases = [
        [],                                        # the constant coeffs[0]
        x[:6],                                     # one variable each
        [z * a * b for z, a, b in zip(x[6:9], x[:3], x[1:3] + x[:1])],   # as lifted subset-sum
        [x[3] ** 2, x[4] ** 3 * x[5]],             # not multilinear
        [_in_table({((CUBE_POOL[7], 1),): 1}, CUBE_POOL[::-1]), x[8] * x[9]],   # another table
    ]
    for terms in cases:
        for coeffs in ([_fraction(rng) for _ in range(len(terms) + 1)],
                       [Fraction(0)] + [1] * len(terms)):
            got = elementary_sum(terms, coeffs)
            want = _elementary_reference(terms, coeffs)
            assert got == want and format_poly(got) == format_poly(want)
            assert_canonical(got)


def test_elementary_sum_refuses_bad_input(monkeypatch):
    x1, x2 = SparsePoly.variable(Var("x", 1)), SparsePoly.variable(Var("x", 2))
    for bad in (2 * x1, x1 / 3, x1 + x2, SparsePoly.zero()):
        with pytest.raises(ValueError, match="takes monic monomials"):
            elementary_sum([x1, bad], [1, 1, 1])
    with pytest.raises(ValueError, match="2 terms need 3 coefficients, got 2"):
        elementary_sum([x1, x2], [1, 1])
    for shared in ([x1, x1], [SparsePoly.constant(1), x2], [x1, x1 * x2, x2]):
        with pytest.raises(ValueError, match="distinct monomials for distinct subsets"):
            elementary_sum(shared, [1] * (len(shared) + 1))
    monkeypatch.setattr(poly, "TERM_GUARD", 2)
    with pytest.raises(ResourceLimitError, match=r"have 2\^2 terms, over the dense-size guard"):
        elementary_sum([x1, x2], [1, 1, 1])
    assert len(elementary_sum([x1], [1, 1])) == 2


def test_overflow_names_the_least_variable_whatever_the_slot_order():
    x1, x2 = Var("x", 1), Var("x", 2)
    messages = []
    for first_use in ((x1, x2), (x2, x1)):
        p = _in_table({((x1, _EXP_MAX), (x2, _EXP_MAX)): 1}, first_use)
        with pytest.raises(ResourceLimitError) as err:
            p * p
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "exponent of x1 " in messages[0]


# ---------------------------------------------------------------------------
# Shared support: a product of two factors on one monomial set sums each
# unordered pair of monomials once.

nonzero_coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@st.composite
def shared_support_pairs(draw):
    """(a, b): b on a's monomial set, its coefficients drawn independently
    or as +-a's, so that some pairs a_i*b_j + a_j*b_i cancel."""
    pool = draw(pools)
    a = draw(ref_polys(pool))
    if draw(st.booleans()):
        a[()] = draw(nonzero_coeffs)
    if draw(st.booleans()):
        b = {m: draw(nonzero_coeffs) for m in a}
    else:
        b = {m: c * draw(st.sampled_from((1, -1))) for m, c in a.items()}
    return a, b


def _no_row_loop(*args):
    raise AssertionError("a shared-support product went through the row loop")


@KERNEL
@given(shared_support_pairs(), pools.flatmap(ref_polys))
def test_shared_support_products_match_reference(pair, other):
    a, b = pair
    p, q, r = kernel(a), kernel(b), kernel(other)
    want = ref_mul(a, b)
    with patch.object(_Accumulator, "_add_rows", _no_row_loop) if len(a) > 1 else nullcontext():
        assert dict((p * q).items()) == want
        assert dict((q * p).items()) == want
        # Into an accumulator already holding other terms, over another
        # denominator, and into one holding -a*b, which cancels to zero.
        acc = _Accumulator()
        acc.add(r / 7)
        acc.add_product(p, q)
        assert dict(acc.result().items()) == ref_add({m: c / 7 for m, c in other.items()}, want)
        acc = _Accumulator()
        acc.add(-(p * q))
        acc.add_product(q, p)
        result = acc.result()
    assert result.is_zero() and result._d == 1
    assert_canonical(p * q)


@KERNEL
@given(pools.flatmap(ref_polys), st.integers(0, 4))
def test_squares_and_powers_match_reference(a, k):
    p = kernel(a)
    assert dict((p * p).items()) == ref_pow(a, 2)
    assert dict((p ** k).items()) == ref_pow(a, k)
    assert_canonical(p ** k)


def test_shared_support_into_an_accumulator_over_another_denominator():
    x1, x2 = SparsePoly.variable(Var("x", 1)), SparsePoly.variable(Var("x", 2))
    p, q = x1 / 2 + x2 / 3 + 1, x1 / 5 - x2 + Fraction(7, 4)
    for held in (x1 * x2 / 9, x1 / 2, (x1 + 1) / 60, SparsePoly.constant(Fraction(-1, 3))):
        acc = _Accumulator()
        acc.add(held)
        with patch.object(_Accumulator, "_add_rows", _no_row_loop):
            acc.add_product(p, q)
        total = acc.result()
        assert total == held + (p * q)
        assert dict(total.items()) == ref_add(dict(held.items()),
                                              ref_mul(dict(p.items()), dict(q.items())))
        assert_canonical(total)


def test_shared_support_keeps_the_guards(monkeypatch):
    x1, x2 = SparsePoly.variable(Var("x", 1)), SparsePoly.variable(Var("x", 2))
    p, q = x1 + x2 + 1, 2 * x1 - x2 + 3
    monkeypatch.setattr(poly, "TERM_GUARD", 8)
    with pytest.raises(ResourceLimitError,
                       match=r"^product projects to 3\*3 terms, over the dense-size guard$"):
        p * q
    monkeypatch.setattr(poly, "TERM_GUARD", 9)
    acc = _Accumulator()
    acc.add(x1 ** 3 + x2 ** 3 + x1 ** 4 + x2 ** 4 + x1 ** 5)
    with pytest.raises(ResourceLimitError, match="^sum would exceed the dense-size guard$"):
        acc.add_product(p, q)


def test_shared_support_keeps_the_overflow_error():
    lo, hi = Var("z", 9001), Var("z", 9002)
    p = poly_of({((lo, _EXP_MAX),): 1, ((hi, 1),): 2})
    q = poly_of({((lo, _EXP_MAX),): 3, ((hi, 1),): -1})
    other = poly_of({((lo, 1),): 1, ((hi, 2),): 1})
    messages = []
    for left, right in ((p, p), (p, q), (p, other)):
        with pytest.raises(ResourceLimitError) as err:
            left * right
        messages.append(str(err.value))
    assert messages == [f"exponent of z9001 in a product would exceed {_EXP_MAX}"] * 3


# ---------------------------------------------------------------------------
# Field width: an exponent past the field raises or stays exact, and never
# spills into the next variable's field.

def test_exponent_overflow_never_aliases_the_next_variable():
    # Variables first used together take consecutive slots.
    lo, hi = Var("z", 9001), Var("z", 9002)
    x, y = SparsePoly.variable(lo), SparsePoly.variable(hi)
    top = poly_of({((lo, _EXP_MAX),): 1})
    assert top.degree_in(lo) == _EXP_MAX and top.degree_in(hi) == 0
    with pytest.raises(ResourceLimitError):
        top * x
    with pytest.raises(ResourceLimitError):
        (top * y) * (x + 1)
    with pytest.raises(ValueError, match=f"bad exponent in 'z9001\\^{_EXP_MAX + 1}'"):
        parse_poly(f"1/1 * z9001^{_EXP_MAX + 1}")
    with pytest.raises(ResourceLimitError):
        x ** (_EXP_MAX + 1)
    # Exponents whose bit patterns overlap but whose sum fits stay exact.
    half = 1 << 14
    p = poly_of({((lo, half),): 1, ((lo, 1),): 1}) * poly_of({((lo, half - 1),): 1})
    assert dict(p.items()) == {((lo, _EXP_MAX),): 1, ((lo, half),): 1}
    assert dict((x ** _EXP_MAX * y).items()) == {((lo, _EXP_MAX), (hi, 1)): 1}


@KERNEL
@given(st.integers(0, _EXP_MAX), st.integers(0, _EXP_MAX))
def test_products_near_the_field_width(a, b):
    lo, hi = Var("z", 9001), Var("z", 9002)
    p = poly_of({_mono({lo: a, hi: 1}): 1})
    q = poly_of({_mono({lo: b}): 1})
    if a + b > _EXP_MAX:
        with pytest.raises(ResourceLimitError):
            p * q
    else:
        assert dict((p * q).items()) == {_mono({lo: a + b, hi: 1}): 1}


# ---------------------------------------------------------------------------
# Variable names.

index_elements = st.one_of(
    st.integers(-3, 40),
    st.text(alphabet="ab1_-Z9 ", min_size=0, max_size=4),
    st.booleans(),
)


@KERNEL
@given(st.sampled_from(NAMESPACES), st.lists(index_elements, min_size=1, max_size=3))
def test_every_accepted_var_name_parses_back(ns, idx):
    try:
        v = Var(ns, *idx)
    except ValueError as exc:
        assert any(repr(e) in str(exc) for e in idx)
        return
    assert parse_var(v.name) is v


@pytest.mark.parametrize("idx", [(-1,), ("1",), ("a_b",), (1, ""), (2, "-3")])
def test_var_rejects_index_elements_that_do_not_round_trip(idx):
    with pytest.raises(ValueError, match="index element"):
        Var("x", *idx)


@pytest.mark.parametrize("name", ["x01", "x_1", "x-1", "x_1_-1", "x1_", "u"])
def test_parse_var_rejects_non_canonical_names(name):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_var(name)


# ---------------------------------------------------------------------------
# Fused verification keeps its witness.

def test_verify_exact_refutes_a_corrupted_cofactor_with_a_witness():
    cprime, _ = gadgetize(random_layered_formula(random.Random(5), max_nodes=14))
    cert = assemble_refutation(cprime)
    assert verify_exact(cert).verdict == "verified-exact"
    axioms, cofactors = laid_out(cert)
    cofactors[-1] = cadd(cofactors[-1], cconst(1))
    report = verify_exact(certificate_of(axioms, cofactors))
    assert report.verdict == "refuted"
    residual = SparsePoly.constant(-1)
    for (_, ax), cf in zip(axioms, cofactors):
        residual = residual + expand(cf) * (expand(ax) if isinstance(ax, Circuit) else ax)
    assert ref_evaluate(dict(residual.items()), report.witness) != 0

import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import poly_of, random_poly, ref_evaluate, total_degree

from ipscert.poly import (
    ResourceLimitError,
    SparsePoly,
    Var,
    boolean_axiom,
    format_poly,
    parse_frac,
    parse_poly,
    parse_var,
)

X1, X2 = Var("x", 1), Var("x", 2)
U1, U2 = Var("u", 1), Var("u", 2)
Y1, Y2 = Var("y", 1), Var("y", 2)


def V(v):
    return SparsePoly.variable(v)


def value(p, point):
    return ref_evaluate(dict(p.items()), point)


def test_difference_of_squares():
    assert (V(X1) + 1) * (V(X1) - 1) == V(X1) ** 2 - 1


def test_additive_identity():
    p = random_poly(random.Random(7), [X1, X2])
    assert p + SparsePoly.zero() == p
    assert p + 0 == p


def test_square_of_sum():
    p = (V(X1) + V(X2)) * (V(X1) + V(X2))
    assert p == V(X1) ** 2 + 2 * V(X1) * V(X2) + V(X2) ** 2


def test_evaluate_products():
    p = V(X1) * V(X2)
    assert value(p, {X1: 1, X2: 1}) == 1
    assert value(p, {X1: 1, X2: 0}) == 0


def test_evaluate_base_case_polynomial():
    # (1 + u1*u2)/2 at the all-ones point
    p = (1 + V(U1) * V(U2)) * Fraction(1, 2)
    assert value(p, {U1: 1, U2: 1}) == 1
    assert value(p, {U1: 1, U2: 0}) == Fraction(1, 2)


def test_multilinear_reduce_clamps_exponents():
    p = V(Y1) ** 2 * V(Y2) ** 3
    assert p.multilinear_reduce() == V(Y1) * V(Y2)


def test_multilinear_reduce_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poly(rng, [X1, X2, U1, Y1])
        r = p.multilinear_reduce()
        assert r.multilinear_reduce() == r
        assert r.is_multilinear()


def test_boolean_axiom_reduces_to_zero():
    assert boolean_axiom(X1).multilinear_reduce().is_zero()


def test_reduce_commutes_with_boolean_evaluation():
    rng = random.Random(13)
    for _ in range(20):
        vars_ = [Var("x", i) for i in range(1, 6)]
        p = random_poly(rng, vars_, max_terms=8)
        r = p.multilinear_reduce()
        for bits in itertools.product((0, 1), repeat=len(vars_)):
            a = dict(zip(vars_, bits))
            assert value(p, a) == value(r, a)


def test_ring_laws_on_random_triples():
    rng = random.Random(17)
    vars_ = [X1, X2, U1, Y1, Var("z", 3)]
    for _ in range(40):
        p, q, r = (random_poly(rng, vars_) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p * q == q * p


def test_canonical_form_round_trip():
    rng = random.Random(19)
    vars_ = [X1, X2, Var("w", 1, 4, "top"), Var("v", 1, 2, 4), Y1]
    for _ in range(40):
        p = random_poly(rng, vars_)
        assert parse_poly(format_poly(p)) == p
    assert format_poly(SparsePoly.zero()) == "0"
    assert parse_poly("0") == SparsePoly.zero()


def test_items_read_terms_in_text_order():
    x10 = Var("x", 10)
    p = parse_poly("3/1 * x10 + 1/2 * x2^2 * u1 + -1/1 + 1/1 * x2 * x1^0")
    assert list(p.items()) == [((), -1), (((U1, 1), (X2, 2)), Fraction(1, 2)),
                               (((X2, 1),), 1), (((x10, 1),), 3)]
    assert all(type(c) is Fraction for _, c in p.items())
    assert format_poly(p) == "-1/1 + 1/2 * u1 * x2^2 + 1/1 * x2 + 3/1 * x10"
    assert parse_poly("1/1 * x1 * x1^2 + 2/1 * x1^3") == 3 * V(X1) ** 3
    with pytest.raises(TypeError):
        SparsePoly()


@pytest.mark.parametrize("text, token", [
    ("1/1 * x1^-1", "x1^-1"),
    ("1/1 * x1^2^3", "x1^2^3"),
    ("1/1 * x1^", "x1^"),
    ("1/1 * x1^32768", "x1^32768"),
    ("1/1 * x1^32767 * x1", "x1"),
])
def test_parse_poly_names_a_bad_exponent(text, token):
    with pytest.raises(ValueError, match=re.escape(f"bad exponent in {token!r}")):
        parse_poly(text)


def test_parse_frac_refuses_exponent_notation():
    # Fraction reads all of these, expanding 10**e first.
    for token in ("1e10000000", "1.5E-3", "2e+7", "1e\u0661\u0660"):
        with pytest.raises(ValueError, match=re.escape(f"exponent notation in {token!r}")):
            parse_frac(token)
    # Fraction reads these too, but the text format is ASCII without separators.
    for token in ("\u0661/\u0662", "1_0"):
        with pytest.raises(ValueError, match=re.escape(f"non-ASCII character or '_' in {token!r}")):
            parse_frac(token)
    assert [parse_frac(t) for t in ("0.5", " 3/4 ", "-2")] == [Fraction(1, 2), Fraction(3, 4), -2]


def test_var_names_round_trip():
    for v in (X1, Var("w", 1, 4, "top"), Var("w", 2, 5, 0), Var("v", 1, 2, 4),
              Var("y", 10, 3), Var("fresh", 7)):
        assert parse_var(v.name) == v


def test_var_order_is_numeric_not_textual():
    assert Var("x", 2) < Var("x", 10)
    assert Var("u", 1) < Var("x", 1)


def test_restrict_refuses_a_float_as_every_other_operation_does():
    p = parse_poly("1/1 * x1 * x2")
    for refused in (lambda: SparsePoly.constant(0.5), lambda: p.restrict(X1, 0.1),
                    lambda: p.restrict(Y2, 0.1)):
        with pytest.raises(TypeError, match="coefficients must be exact rationals, got float"):
            refused()
    for refused in (lambda: p * 0.5, lambda: p / 0.5):
        with pytest.raises(TypeError):
            refused()
    assert p.restrict(X1, Fraction(1, 3)) == V(X2) / 3
    assert p.restrict(X1, 2) == 2 * V(X2)
    assert p.restrict(X1, 0).is_zero()
    assert p.restrict(Y2, 5) == p


def test_zero_coefficients_never_stored():
    p = V(X1) - V(X1)
    assert p.is_zero()
    assert len(p) == 0
    q = SparsePoly.constant(0) * V(X1)
    assert q.is_zero()


def test_dense_size_guard_triggers():
    big = poly_of({((X1, k),): Fraction(1) for k in range(1, 4200)})
    other = poly_of({((X2, k),): Fraction(1) for k in range(1, 4200)})
    with pytest.raises(ResourceLimitError):
        big * other


def test_substitute_monomial_image():
    z = Var("z", 1, 2)
    p = V(z) ** 2 + 1
    image = V(z) * V(X1) * V(X2)
    q = p.substitute({z: image})
    assert q == image ** 2 + 1


def test_power_and_degree():
    p = (V(X1) + V(X2)) ** 3
    assert total_degree(p) == 3
    assert p.degree_in(X1) == 3
    assert value(p, {X1: 1, X2: 2}) == 27

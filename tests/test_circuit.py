import random
from fractions import Fraction

import pytest

from helpers import random_dag_circuit

from ipscert.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    Metrics,
    cadd,
    cconst,
    circuit_sha256,
    cmul,
    cscale,
    cvar,
    eval_circuit,
    expand,
    format_circuit,
    is_constant_free,
    is_syntactically_multilinear,
    has_zero_one_leaves,
    measure,
    normalize_layered,
    parse_circuit,
    partial_evaluate,
    poly_to_circuit,
    subcircuit,
)
from ipscert.poly import SparsePoly, Var

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))
Y1 = Var("y", 1)


def test_measure_single_leaf():
    assert measure(cvar(X1)) == Metrics(size=0, depth=0)


def test_measure_add():
    assert measure(cadd(cvar(X1), cvar(X2))) == Metrics(size=2, depth=1)


def test_measure_nested():
    c = cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))
    assert measure(c) == Metrics(size=4, depth=2)


def test_measure_scaled_wire_convention():
    # -x1 rides the wire: no size of its own, no depth step.
    neg = cscale(-1, cvar(X1))
    assert measure(neg) == Metrics(size=0, depth=0)
    assert measure(neg, fold_scalars=False) == Metrics(size=2, depth=1)
    # the affine factor 1 - x1 measures (2, 1) under the convention
    aff = cadd(cconst(1), cscale(-1, cvar(X1)))
    assert measure(aff) == Metrics(size=2, depth=1)
    assert measure(aff, fold_scalars=False) == Metrics(size=4, depth=2)


def test_size_additivity_of_plain_gates():
    b = CircuitBuilder()
    i1, i2, i3 = b.var(X1), b.var(X2), b.var(X3)
    m = b.mul([i1, i2])
    size_before = 2
    a = b.add([m, i3])
    c = b.build(a)
    assert measure(c, fold_scalars=False).size == size_before + 2


def test_expand_constant():
    assert expand(cconst(5)) == 5


def test_expand_product():
    c = cmul(cadd(cvar(X1), cconst(1)), cadd(cvar(X1), cconst(-1)))
    assert expand(c) == SparsePoly.variable(X1) ** 2 - 1


def test_expand_resource_guard():
    from ipscert.poly import ResourceLimitError

    vars6 = [cvar(Var("x", i)) for i in range(1, 7)]
    p = cadd(*vars6, cconst(1))
    c = cmul(p, p)
    assert expand(c) is not None
    with pytest.raises(ResourceLimitError):
        expand(c, guard=10)


def test_expand_gadget_shape():
    # (1 - y) * x ~ hand expansion
    c = cmul(cadd(cconst(1), cscale(-1, cvar(Y1))), cvar(X1))
    x, y = SparsePoly.variable(X1), SparsePoly.variable(Y1)
    assert expand(c) == (1 - y) * x


def test_partial_evaluate_substitutes_leaves():
    c = cadd(cvar(X1), cvar(Y1))
    c2 = partial_evaluate(c, {Y1: 2})
    assert [g.op for g in c2.gates] == ["VAR", "CONST", "ADD"]
    assert expand(c2) == SparsePoly.variable(X1) + 2


def test_full_partial_evaluation_matches_eval():
    c = cmul(cadd(cvar(X1), cvar(X2)), cvar(X3))
    a = {X1: Fraction(1, 2), X2: 2, X3: 3}
    assert expand(partial_evaluate(c, a)) == eval_circuit(c, a)


def test_expand_commutes_with_partial_evaluate():
    rng = random.Random(23)
    for _ in range(25):
        c = random_dag_circuit(rng, n_gates=rng.randint(6, 30))
        vars_ = c.variables()
        sub = {v: Fraction(rng.randint(-2, 2)) for v in vars_[: len(vars_) // 2]}
        left = expand(partial_evaluate(c, sub))
        right = expand(c)
        for v, val in sub.items():
            right = right.restrict(v, val)
        assert left == right


def test_normalize_flattens_nested_adds():
    c = cadd(cadd(cvar(X1), cvar(X2)), cvar(X3))
    n = normalize_layered(c)
    out = n.gates[n.output]
    assert out.op == "ADD" and len(out.args) == 3
    assert expand(n) == expand(c)


def test_normalize_wraps_mul_root():
    c = cmul(cvar(X1), cvar(X2))
    n = normalize_layered(c)
    out = n.gates[n.output]
    assert out.op == "ADD" and len(out.args) == 1
    assert expand(n) == expand(c)


def test_normalize_preserves_expansion_and_formula_flag():
    rng = random.Random(29)
    for _ in range(25):
        c = random_dag_circuit(rng, n_gates=rng.randint(6, 30))
        n = normalize_layered(c)
        assert expand(n) == expand(c)
        if c.is_formula:
            assert n.is_formula
        for i, g in enumerate(n.gates):
            for a in g.args:
                assert n.gates[a].op != g.op or g.op in ("VAR", "CONST")


def test_normalize_idempotent_on_layered_input():
    c = cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))
    n1 = normalize_layered(c)
    n2 = normalize_layered(n1)
    assert format_circuit(n1) == format_circuit(n2)


def test_circuit_file_round_trip():
    rng = random.Random(31)
    for _ in range(20):
        c = random_dag_circuit(rng, n_gates=rng.randint(5, 25))
        text = format_circuit(c)
        again = parse_circuit(text)
        assert format_circuit(again) == text
        assert circuit_sha256(again) == circuit_sha256(c)


def test_parse_rejects_undefined_ids():
    with pytest.raises(ValueError, match="undefined"):
        parse_circuit("g0 = ADD g1 g2\nOUTPUT g0\n")


@pytest.mark.parametrize("text, lineno", [
    ("OUTPUT\n", 1),
    ("g0 = VAR x1\nOUTPUT\n", 2),
    ("g0 =\nOUTPUT g0\n", 1),
    ("g0 = VAR\nOUTPUT g0\n", 1),
    ("g0 = CONST\nOUTPUT g0\n", 1),
    ("g0 = CONST 1/0\nOUTPUT g0\n", 1),
])
def test_parse_rejects_truncated_lines(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_circuit(text)


def test_parse_rejects_missing_output():
    with pytest.raises(ValueError, match="OUTPUT"):
        parse_circuit("g0 = VAR x1\n")


def test_parse_accepts_comments_and_blank_lines():
    c = parse_circuit("# header\n\ng0 = VAR x1  # inline\nOUTPUT g0\n")
    assert expand(c) == SparsePoly.variable(X1)


def test_circuit_validation():
    with pytest.raises(ValueError, match="before use"):
        Circuit([Gate("ADD", args=(1,)), Gate("VAR", var=X1)], 0)
    with pytest.raises(ValueError, match="unreachable"):
        Circuit([Gate("VAR", var=X1), Gate("VAR", var=X2)], 0)
    with pytest.raises(ValueError, match="no children"):
        Circuit([Gate("ADD", args=())], 0)


def test_formula_flag():
    assert cadd(cvar(X1), cvar(X2)).is_formula
    b = CircuitBuilder()
    x = b.var(X1)
    m = b.mul([x, x])
    assert not b.build(m).is_formula


def test_subcircuit_extraction():
    c = cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))
    inner = c.gates[c.output].args[0]
    sub = subcircuit(c, inner)
    assert expand(sub) == SparsePoly.variable(X1) * SparsePoly.variable(X2)


def test_constant_freedom_predicates():
    c = cadd(cvar(X1), cconst(1), cconst(-1))
    assert is_constant_free(c)
    assert not has_zero_one_leaves(c)
    assert has_zero_one_leaves(cadd(cvar(X1), cconst(1)))
    assert not is_constant_free(cadd(cvar(X1), cconst(2)))


def test_syntactic_multilinearity():
    assert is_syntactically_multilinear(cmul(cvar(X1), cvar(X2)))
    assert not is_syntactically_multilinear(cmul(cvar(X1), cvar(X1)))


def test_poly_to_circuit_round_trip():
    rng = random.Random(37)
    from helpers import random_poly

    for _ in range(15):
        p = random_poly(rng, [X1, X2, Y1])
        assert expand(poly_to_circuit(p)) == p

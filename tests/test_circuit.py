import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dag_circuit, shuffled_topological

from ipscert.circuit import (
    Circuit,
    CircuitBuilder,
    Gate,
    Metrics,
    _compact,
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
from ipscert.gadget import GadgetLedger
from ipscert.poly import SparsePoly, Var

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))
Y1 = Var("y", 1)

# SHA-256 of normalize_layered output as written while it recursed on the
# Python stack: the walk must keep each gate's place in the layout.
NORMALIZED_DAGS_SHA256 = "caf69bb6b10741c0ecb81daba5f82ed93c762092dbef2ffdd09cfe80e1516d1d"


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


def test_normalize_layout_of_dags_is_pinned():
    # Shared gates come at their first completion; shuffled ids are not in post-order.
    rng = random.Random(5106)
    h = hashlib.sha256()
    for _ in range(30):
        dag = random_dag_circuit(rng, n_gates=rng.randint(8, 30))
        for c in (dag, shuffled_topological(rng, dag, GadgetLedger(()))[0]):
            h.update(format_circuit(normalize_layered(c)).encode())
    assert h.hexdigest() == NORMALIZED_DAGS_SHA256


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
    ("g0 = VAR x1 x2\nOUTPUT g0\n", 1),
    ("g0 = VAR x1\ng1 = CONST 3 junk\ng2 = MUL g0 g1\nOUTPUT g2\n", 2),
    ("g0 = VAR x1\ng1 = VAR x2\ng2 = MUL g0 g1\nOUTPUT g2 g0\n", 4),
    ("g0 = VAR x1\ng1 = ADD\nOUTPUT g1\n", 2),
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


def test_builder_prod_and_sum_fold_literal_units():
    b = CircuitBuilder()
    x, one, zero = b.var(X1), b.const(1), b.const(0)
    assert b.prod([one, x, one]) == x
    assert b.prod([x, zero, x]) == zero
    assert b.gate(b.prod([one])).const == 1
    assert b.gate(b.prod([x, x])).args == (x, x)
    assert b.sum([zero, x, zero]) == x
    assert b.gate(b.sum([zero])).const == 0
    assert b.gate(b.sum([x, one])).args == (x, one)


def test_formula_copies_composed_gates_and_keeps_starting_subcircuits():
    start = parse_circuit("g0 = VAR x2\ng1 = VAR x1\ng2 = VAR x3\ng3 = MUL g1 g0\n"
                          "g4 = ADD g3 g2\nOUTPUT g4\n")
    b = CircuitBuilder(start.gates)
    shared = b.mul([3, b.const(2)])
    laid = b.formula(b.add([shared, shared]))
    # g3's subcircuit keeps its id order (x2 before x1) at each of the two uses.
    assert format_circuit(laid) == (
        "g0 = VAR x2\ng1 = VAR x1\ng2 = MUL g1 g0\ng3 = CONST 2/1\ng4 = MUL g2 g3\n"
        "g5 = VAR x2\ng6 = VAR x1\ng7 = MUL g6 g5\ng8 = CONST 2/1\ng9 = MUL g7 g8\n"
        "g10 = ADD g4 g9\nOUTPUT g10\n")
    assert format_circuit(b.formula(4)) == format_circuit(start)


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


def test_share_gives_equal_subtrees_across_circuits_one_id():
    b = CircuitBuilder()
    s = cadd(cvar(X1), cvar(X2))
    top = b.share(cmul(s, cvar(X3)))
    size = len(b._gates)
    assert b.share(s) == b.gate(top).args[0]
    assert b.share(cmul(s, cvar(X3))) == top
    assert b.share(cadd(cmul(s, cvar(X3)), cvar(X1))) == len(b._gates) - 1 == size
    twice = b.share(cadd(cmul(cvar(X1), cvar(X2)), cmul(cvar(X1), cvar(X2))))
    m = b.gate(twice).args[0]
    assert b.gate(twice).args == (m, m)


def test_share_never_merges_different_leaves_or_gates():
    b = CircuitBuilder()
    leaves = [cvar(X1), cvar(X2), cvar(Y1), cvar(Var("x", 1, 2)), cconst(1), cconst(-1),
              cconst(2), cconst(Fraction(1, 2)), cconst(0)]
    leaf_ids = [b.share(c) for c in leaves]
    assert len(set(leaf_ids)) == len(leaves)
    gates = [cadd(cvar(X1), cvar(X2)), cadd(cvar(X2), cvar(X1)), cmul(cvar(X1), cvar(X2)),
             cadd(cvar(X1), cvar(X2), cvar(X1)), cadd(cvar(X1), cconst(1))]
    gate_ids = [b.share(c) for c in gates]
    assert len(set(gate_ids)) == len(gates)
    for i, c in zip(leaf_ids + gate_ids, leaves + gates):
        assert expand(_compact(b._gates, i)) == expand(c)


def test_share_keys_constants_by_exact_value():
    b = CircuitBuilder()
    half = b.share(parse_circuit("g0 = CONST 2/4\nOUTPUT g0\n"))
    assert b.share(cconst(Fraction(1, 2))) == half
    assert b.share(cconst(Fraction(-1, 2))) != half


def test_shared_copies_compute_the_same_polynomials():
    rng = random.Random(83)
    b = CircuitBuilder()
    circuits = [random_dag_circuit(rng, n_gates=rng.randint(5, 25)) for _ in range(40)]
    ids = [b.share(c) for c in circuits]
    assert len(b._gates) < sum(len(c) for c in circuits)
    for c, i in zip(circuits, ids):
        assert expand(_compact(b._gates, i)) == expand(c)


def test_poly_to_circuit_round_trip():
    rng = random.Random(37)
    from helpers import random_poly

    for _ in range(15):
        p = random_poly(rng, [X1, X2, Y1])
        assert expand(poly_to_circuit(p)) == p


# ---------------------------------------------------------------------------
# Parse/format round trip of circuit text with many repeated leaf operands.

ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True, database=None)
LEAF_TEXTS = ([f"VAR {v.name}" for v in (X1, X2, Y1, Var("x", 1, 2), Var("y", 3, 0))]
              + [f"CONST {q}" for q in ("0/1", "1/1", "-1/1", "1/2", "-7/3", "12345678901/2")])
BAD_LEAVES = {"VAR": ("q7", "x", "x01", "y_3_"), "CONST": ("1/0", "x1", "1//2", "--1")}


@st.composite
def circuit_texts(draw):
    """Canonical circuit text: leaves drawn from a small pool, so most repeat."""
    lines, used = [], set()
    for i in range(draw(st.integers(1, 30))):
        if i == 0 or draw(st.booleans()):
            lines.append(f"g{i} = {draw(st.sampled_from(LEAF_TEXTS))}")
        else:
            args = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=4))
            used.update(args)
            kind = draw(st.sampled_from(["ADD", "MUL"]))
            lines.append(f"g{i} = {kind} " + " ".join(f"g{a}" for a in args))
    roots = [i for i in range(len(lines)) if i not in used]
    if len(roots) > 1:
        lines.append(f"g{len(lines)} = ADD " + " ".join(f"g{a}" for a in roots))
    lines.append(f"OUTPUT g{len(lines) - 1 if len(roots) > 1 else roots[0]}")
    return "\n".join(lines) + "\n"


@ROUND_TRIP
@given(circuit_texts())
def test_format_parse_round_trip_with_repeated_leaves(text):
    assert format_circuit(parse_circuit(text)) == text


@ROUND_TRIP
@given(circuit_texts(), st.sampled_from(sorted(BAD_LEAVES)), st.data())
def test_malformed_leaf_after_a_well_formed_one_names_its_line(text, kind, data):
    lines = text.splitlines()
    if not any(line.split()[2] == kind for line in lines[:-1]):
        lines.insert(0, f"g900 = {kind} {'x1' if kind == 'VAR' else '1/2'}")
    first = next(k for k, line in enumerate(lines) if line.split()[2] == kind)
    at = data.draw(st.integers(first + 1, len(lines) - 1))
    bad = data.draw(st.sampled_from(BAD_LEAVES[kind]))
    lines.insert(at, f"g901 = {kind} {bad}")
    with pytest.raises(ValueError, match=f"^line {at + 1}: "):
        parse_circuit("\n".join(lines) + "\n")

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (FOLD_VALUES, assert_folded, assert_valid, certificate_to_json_v1,
                     certificate_to_json_v2, is_syntactically_multilinear, laid_out,
                     random_dag_circuit, random_layered_formula, reference_parse_circuit,
                     reference_read_table, refutation_v2, shuffled_topological,
                     sum_of_products_text, table_state)

from ipscert import circuit as circuit_module
from ipscert import poly as poly_module
from ipscert.circuit import (
    CONST,
    Circuit,
    CircuitBuilder,
    Gate,
    Metrics,
    SharingBuilder,
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
    measure,
    normalize_layered,
    parse_circuit,
    partial_evaluate,
    poly_to_circuit,
    subcircuit,
)
from ipscert.instances import (gadgeted_ry_circuit, lifted_subset_sum, mnc_instance, ry_circuit,
                                subset_sum)
from ipscert.poly import SparsePoly, Var
from ipscert.refute import certificate_from_json

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
    # the affine factor 1 - x1 measures (2, 1) under the convention
    aff = cadd(cconst(1), cscale(-1, cvar(X1)))
    assert measure(aff) == Metrics(size=2, depth=1)


def test_size_additivity_of_plain_gates():
    b = CircuitBuilder()
    i1, i2, i3 = b.var(X1), b.var(X2), b.var(X3)
    m = b.mul([i1, i2])
    size_before = 2
    a = b.add([m, i3])
    c = b.build(a)
    assert measure(c).size == size_before + 2


def test_expand_constant():
    assert expand(cconst(5)) == 5


def test_expand_product():
    c = cmul(cadd(cvar(X1), cconst(1)), cadd(cvar(X1), cconst(-1)))
    assert expand(c) == SparsePoly.variable(X1) ** 2 - 1


def test_expand_resource_guard(monkeypatch):
    from ipscert.poly import ResourceLimitError

    vars6 = [cvar(Var("x", i)) for i in range(1, 7)]
    p = cadd(*vars6, cconst(1))
    c = cmul(p, p)
    assert expand(c) is not None
    monkeypatch.setattr(circuit_module, "TERM_GUARD", 10)
    with pytest.raises(ResourceLimitError):
        expand(c)


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_partial_evaluate_folds_to_the_restriction(seed, dag):
    rng = random.Random(seed)
    if dag:
        c = random_dag_circuit(rng, n_gates=rng.randint(5, 30))
    else:
        c = random_layered_formula(rng, max_nodes=rng.randint(3, 30), const_pool=FOLD_VALUES)
    vars_ = c.variables()
    part = {v: rng.choice(FOLD_VALUES) for v in vars_ if rng.random() < 0.6}
    folded = partial_evaluate(c, part)
    want = expand(c)
    for v, x in part.items():
        want = want.restrict(v, x)
    assert expand(folded) == want
    assert_folded(folded)
    total = {v: rng.choice(FOLD_VALUES) for v in vars_}
    whole = partial_evaluate(c, total)
    assert [g.op for g in whole.gates] == [CONST]
    assert whole.gates[0].const == eval_circuit(c, total)


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
        for c in (dag, shuffled_topological(rng, dag)[0]):
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


def test_a_gate_line_without_an_equals_sign_is_named_as_such():
    text = "g0 VAR x1\nOUTPUT g0\n"
    for read in (parse_circuit, lambda t: CircuitBuilder().read(t.splitlines())):
        with pytest.raises(ValueError, match="^line 1: no '=' in a gate line$"):
            read(text)


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


def test_circuits_the_library_builds_unvalidated_pass_validation(corpus01, transformed01):
    # CircuitBuilder.build and _compact make circuits without validating
    # them; each maker here must leave a valid table, every gate reachable.
    rng = random.Random(17)
    for c, (cn, cprime, _) in zip(corpus01, transformed01):
        assert_valid(cn)
        assert_valid(cprime)
        for source in (c, cprime):
            vs = source.variables()
            fixed = rng.sample(vs, rng.randint(0, len(vs)))
            assert_valid(partial_evaluate(
                source, {v: rng.choice((0, 1, -1, Fraction(1, 2))) for v in fixed}))
    for n in range(1, 7):
        assert_valid(ry_circuit(n))
        assert_valid(gadgeted_ry_circuit(n)[0])
    for n in range(1, 4):
        bundle = mnc_instance(n)
        assert_valid(bundle.instance)
        assert_valid(bundle.refutation)
    for bundle in [subset_sum(n) for n in range(1, 9)] + [lifted_subset_sum(n)
                                                          for n in range(2, 5)]:
        assert_valid(poly_to_circuit(bundle.refutation))


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


def test_sharing_builder_makes_each_composed_gate_once_and_renames_in_place():
    # Composed gates are hash-consed by the keys read_table uses, so the
    # table that reads a root's written lines back holds the same gates;
    # the starting gates keep their ids and are never shared.
    start = parse_circuit("g0 = VAR x1\ng1 = VAR x1\ng2 = MUL g0 g1\nOUTPUT g2\n")
    b = SharingBuilder(start.gates)
    x, y = b.var(X1), b.var(X2)
    assert x == b.var(X1) == 3
    assert b.complement(X2) == b.add([b.const(1), b.mul([b.const(-1), y])])
    root = b.mul([b.add([x, 2]), b.complement(X2), b.mul([2, x])])
    assert b.mul([2, x]) == b.mul([2, x]) and b.add([x, 2]) != b.add([2, x])
    k, lines, (at,) = b.write_table([root])
    read = CircuitBuilder()
    names = read.read_table(lines, k)
    assert len(read._gates) == len(b._reach(root)) == len(lines)
    assert read.dag_metrics(names[f"g{at}"]) == b.dag_metrics(root)
    # rename() swaps two names and keys each gate by its new one.
    b.rename({x: X2, y: X1})
    assert (b.gate(x).var, b.gate(y).var) == (X2, X1)
    assert (b.var(X1), b.var(X2)) == (y, x)
    with pytest.raises(ValueError, match=f"^g{x}: a second gate VAR x1$"):
        b.rename({x: X1})


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


def test_syntactic_multilinearity():
    assert is_syntactically_multilinear(cmul(cvar(X1), cvar(X2)))
    assert not is_syntactically_multilinear(cmul(cvar(X1), cvar(X1)))


def reader(b: CircuitBuilder):
    """Read circuits into b through their text, as one document's are read."""
    return lambda c: b.read(format_circuit(c).splitlines())


def test_read_gives_equal_subtrees_across_circuits_one_id():
    b = CircuitBuilder()
    read = reader(b)
    s = cadd(cvar(X1), cvar(X2))
    top = read(cmul(s, cvar(X3)))
    size = len(b._gates)
    assert read(s) == b.gate(top).args[0]
    assert read(cmul(s, cvar(X3))) == top
    assert read(cadd(cmul(s, cvar(X3)), cvar(X1))) == len(b._gates) - 1 == size
    twice = read(cadd(cmul(cvar(X1), cvar(X2)), cmul(cvar(X1), cvar(X2))))
    m = b.gate(twice).args[0]
    assert b.gate(twice).args == (m, m)


def test_read_never_merges_different_leaves_or_gates():
    b = CircuitBuilder()
    read = reader(b)
    leaves = [cvar(X1), cvar(X2), cvar(Y1), cvar(Var("x", 1, 2)), cconst(1), cconst(-1),
              cconst(2), cconst(Fraction(1, 2)), cconst(0)]
    leaf_ids = [read(c) for c in leaves]
    assert len(set(leaf_ids)) == len(leaves)
    gates = [cadd(cvar(X1), cvar(X2)), cadd(cvar(X2), cvar(X1)), cmul(cvar(X1), cvar(X2)),
             cadd(cvar(X1), cvar(X2), cvar(X1)), cadd(cvar(X1), cconst(1))]
    gate_ids = [read(c) for c in gates]
    assert len(set(gate_ids)) == len(gates)
    for i, c in zip(leaf_ids + gate_ids, leaves + gates):
        assert expand(_compact(b._gates, i)) == expand(c)


def test_read_keys_constants_by_exact_value():
    b = CircuitBuilder()
    read = reader(b)
    half = b.read(["g0 = CONST 1/2", "OUTPUT g0"])
    assert read(cconst(Fraction(2, 4))) == half
    assert read(cconst(Fraction(-1, 2))) != half
    assert hash(-1) == hash(-2) and read(cconst(-1)) != read(cconst(-2))
    kept = b.read(["g0 = CONST 2/4", "OUTPUT g0"])   # not as lines() writes it
    assert kept != half and b.lines(kept) == b.lines(half)


def test_read_copies_compute_the_same_polynomials():
    # Formulas are hash-consed across circuits; DAGs are kept as they are.
    rng = random.Random(83)
    b = CircuitBuilder()
    read = reader(b)
    circuits = [random_dag_circuit(rng, n_gates=rng.randint(5, 25)) for _ in range(20)]
    circuits += [random_layered_formula(rng, max_nodes=rng.randint(5, 25)) for _ in range(20)]
    ids = [read(c) for c in circuits]
    assert len(b._gates) < sum(len(c) for c in circuits)
    for c, i in zip(circuits, ids):
        assert expand(_compact(b._gates, i)) == expand(c)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(
    st.dictionaries(st.sampled_from((X1, X2, Y1)), st.integers(1, 3), max_size=3),
    st.one_of(st.just(Fraction(1)),
              st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5)))),
    max_size=5))
@example([])                                                        # zero
@example([({}, Fraction(-3, 2))])                                   # constant only
@example([({X1: 1}, Fraction(1)), ({X1: 1, X2: 1}, Fraction(1))])   # coefficient 1
@example([({X2: 3, Y1: 2}, Fraction(-7, 4)), ({}, Fraction(1))])    # exponents above 1
def test_poly_lays_terms_out_in_written_order(terms):
    p = SparsePoly.zero()
    for exps, c in terms:
        term = SparsePoly.constant(c)
        for v, e in exps.items():
            for _ in range(e):
                term = term * SparsePoly.variable(v)
        p = p + term
    c = poly_to_circuit(p)
    assert format_circuit(c) == sum_of_products_text(p)
    assert expand(c) == p
    # Pushed in written order, the gates lay out as they stand in any table.
    b = CircuitBuilder(c.gates)
    assert "\n".join(b.lines(b.poly(p))) + "\n" == format_circuit(c)


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


# ---------------------------------------------------------------------------
# Reading circuit text into a hash-consed table, and laying roots out again.

@pytest.mark.parametrize("lhs", ["g²", "g١", "g1²", "g１"])
def test_gate_ids_are_ascii_digits(lhs):
    text = f"{lhs} = VAR x1\nOUTPUT {lhs}\n"
    with pytest.raises(ValueError, match=f"^line 1: bad gate id '{lhs}'$"):
        parse_circuit(text)
    with pytest.raises(ValueError, match=f"^line 1: bad gate id '{lhs}'$"):
        CircuitBuilder().read(text.splitlines())


def mangled(rng: random.Random, text: str) -> str:
    """text with zero to two random edits; most break it, some keep it valid."""
    lines = text.splitlines()
    for _ in range(rng.choice((0, 1, 1, 2))):
        k = rng.randrange(len(lines))
        toks = lines[k].split()
        edit = rng.randrange(14)
        if edit == 0:
            del lines[k]
        elif edit == 1:
            j = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
        elif edit == 2:
            lines.insert(k, lines[k])
        elif edit == 3 and toks:
            toks[0] = rng.choice(("g0", "g1", f"g0{k}", "g١", "x1", "g", f"g{k + 1}"))
        elif edit == 4 and len(toks) > 3:
            toks[rng.randrange(3, len(toks))] = rng.choice(("g99", "g0", f"g{k}", "g-1", "1"))
        elif edit == 5 and toks:
            del toks[rng.randrange(len(toks))]
        elif edit == 6:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(("junk", "=", "ADD", "#")))
        elif edit == 7 and len(toks) > 2:
            toks[2] = rng.choice(("XOR", "add", "OUTPUT", "VAR", "CONST", "MUL"))
        elif edit == 8:
            lines[k] = lines[k].replace("=", " ", 1)
        elif edit == 9:
            lines.insert(k, rng.choice(("", "# note", "   ", "OUTPUT g0", "OUTPUT")))
        elif edit == 10:
            lines[k] = rng.choice(("  ", "\t")) + lines[k] + rng.choice(("", " # c", "  "))
        elif edit == 11 and len(toks) > 3 and toks[2] in ("VAR", "CONST"):
            toks[3] = rng.choice(("q7", "x01", "1/0", "--1", "y_3_", "2/4", "x2"))
        elif edit == 12:
            lines = [line for line in lines if not line.startswith("OUTPUT")]
        elif edit == 13 and len(toks) > 3 and toks[2] in ("ADD", "MUL"):
            toks[3:] = reversed(toks[3:])
        if edit in (3, 4, 5, 6, 7, 11, 13):
            lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


def gate_tuples(c: Circuit) -> tuple:
    """(c's gates as plain tuples, its output)."""
    return [(g.op, g.var, g.const, g.args) for g in c.gates], c.output


def parsed_outcome(text: str, parse=parse_circuit) -> tuple:
    try:
        c = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", format_circuit(c), gate_tuples(c)


def read_outcome(b: CircuitBuilder, text: str) -> tuple:
    try:
        i = b.read(text.splitlines())
    except ValueError as exc:
        return "error", str(exc)
    text = "\n".join(b.lines(i)) + "\n"
    assert format_circuit(b.formula(i)) == text
    return "ok", text


def test_read_and_parse_circuit_agree_on_malformed_texts():
    # parse_circuit reads each text as the reference reader does, the same
    # gates or the same message, and read lays it out again as parse_circuit
    # reads it.  Groups of texts share one table and its caches, so keys
    # laid in before are met again, and layouts made before reused.
    rng = random.Random(9107)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(200):
        b = CircuitBuilder()
        for _ in range(10):
            pick = rng.random()
            if pick < 0.6:
                c = random_layered_formula(rng, max_nodes=rng.randint(3, 20), n_vars=3)
            elif pick < 0.8:
                c = random_dag_circuit(rng, n_gates=rng.randint(4, 14))
            else:
                c, _ = shuffled_topological(rng, random_dag_circuit(rng, n_gates=10))
            text = mangled(rng, format_circuit(c))
            want = parsed_outcome(text)
            assert parsed_outcome(text, reference_parse_circuit) == want, text
            assert read_outcome(b, text) == want[:2], text
            outcomes[want[0]] += 1
    assert outcomes["ok"] > 500 and outcomes["error"] > 500


def test_read_hash_conses_post_order_formulas_and_keeps_other_circuits():
    b = CircuitBuilder()
    tree = "g0 = VAR x1\ng1 = CONST 1/2\ng2 = MUL g0 g1\ng3 = VAR x1\ng4 = ADD g2 g3\nOUTPUT g4\n"
    dag = "g0 = VAR x1\ng1 = CONST 1/2\ng2 = MUL g0 g1\ng3 = ADD g2 g2\nOUTPUT g3\n"
    shuffled = "g0 = CONST 1/2\ng1 = VAR x1\ng2 = MUL g1 g0\nOUTPUT g2\n"
    t = b.read(tree.splitlines())
    size = len(b._gates)
    assert size == 4                                  # x1 once, 1/2 once
    assert b.read(tree.splitlines()) == t and len(b._gates) == size
    sub = b.read("g0 = VAR x1\ng1 = CONST 1/2\ng2 = MUL g0 g1\nOUTPUT g2\n".splitlines())
    assert sub == b.gate(t).args[0] and len(b._gates) == size
    respelled = tree.replace("1/2", "2/4")
    for text in (tree, dag, shuffled, respelled):
        i = b.read(text.splitlines())
        assert "\n".join(b.lines(i)) + "\n" == format_circuit(parse_circuit(text))
    assert len(b._gates) == size + 4 + 3 + 5          # the other three texts kept


def chain(depth: int) -> Circuit:
    b = CircuitBuilder()
    g = b.var(X1)
    for _ in range(depth):
        g = b.mul([g, b.var(X2)])
    return b.build(g)


def test_metrics_by_dp_equal_the_measure_of_the_layout():
    rng = random.Random(5021)
    for _ in range(40):
        start = random_dag_circuit(rng, n_gates=rng.randint(4, 16))
        kept = random_dag_circuit(rng, n_gates=rng.randint(4, 16))
        b = CircuitBuilder(start.gates)
        b.keep(kept)
        ids = list(range(len(start.gates) + len(kept.gates)))
        for _ in range(rng.randint(1, 12)):
            pick = rng.random()
            if pick < 0.3:
                ids.append(b.const(rng.choice((-1, 2, Fraction(1, 3)))))
            elif pick < 0.4:
                ids.append(b.var(X3))
            else:
                kids = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.3:
                    kids = [b.const(-1), kids[0]]       # a scaled wire
                ids.append(b.add(kids) if rng.random() < 0.5 else b.mul(kids))
        # A starting gate lays out and measures as its standalone subcircuit.
        for c, offset in ((start, 0), (kept, len(start.gates))):
            for i in range(len(c.gates)):
                assert b.lines(offset + i) == format_circuit(subcircuit(c, i)).splitlines()
                assert b.metrics([offset + i])[0] == measure(subcircuit(c, i))
        for i in ids:
            assert b.metrics([i])[0] == measure(b.formula(i))
            assert b.expand(i) == expand(b.formula(i))
            assert format_circuit(b.formula(i)) == "\n".join(b.lines(i)) + "\n"
        # All roots over one sweep, in the order given, a root twice.
        roots = ids[::-1] + ids[:2]
        assert b.metrics(roots) == [measure(b.formula(i)) for i in roots]


def test_metrics_and_layout_of_a_3000_deep_chain_do_not_recurse():
    deep = chain(3000)
    b = CircuitBuilder(deep.gates)
    root = b.mul([b.const(2), b.add([deep.output, b.const(1)])])
    top = b.mul([root, root])
    for i in (root, top):
        assert b.metrics([i])[0] == measure(b.formula(i))
    assert measure(b.formula(root)).depth == 3001
    t = CircuitBuilder()
    i = t.read(b.lines(top))
    assert t.metrics([i])[0] == b.metrics([top])[0] and t.lines(i) == b.lines(top)
    assert t.expand(i) == expand(b.formula(top))


def test_metrics_of_starting_gates_above_a_shared_gate_measure_their_dag():
    # Gadgeted P shares internal gates from n = 3: a starting gate above a
    # gate with two uses lays out as its subcircuit, each gate once, not as
    # the tree of its uses.
    for n in range(1, 5):
        c, _ = gadgeted_ry_circuit(n)
        b = CircuitBuilder(c.gates)
        assert any(measure(subcircuit(c, i)) != Metrics(*tree_measure(c, i))
                   for i in range(len(c.gates))) == (n >= 3)
        for i in range(len(c.gates)):
            assert b.metrics([i])[0] == measure(subcircuit(c, i))
    # The one shared internal gate, s, lies deep in a tree: only the gates
    # above it lay out as a DAG, and the gates beside it and below it as the
    # tree of their uses.
    g = CircuitBuilder()
    s = g.mul([g.var(X1), g.var(X2)])
    below = g.add([s, g.mul([g.const(-1), s])])
    beside = g.mul([g.const(2), g.add([g.var(X3), g.var(X1)])])
    top = g.add([g.mul([below, g.var(X3)]), beside])
    c = g.build(top)
    b = CircuitBuilder(c.gates)
    above = {i for i in range(len(c.gates)) if s in subcircuit_ids(c, i) and i != s}
    assert {below, top} <= above and beside not in above
    for i in range(len(c.gates)):
        assert b.metrics([i])[0] == measure(subcircuit(c, i))
    assert b.metrics([top])[0] != Metrics(*tree_measure(c, top))
    assert b.metrics([beside])[0] == Metrics(*tree_measure(c, beside))


def test_metrics_of_several_roots_over_one_sweep_measure_each_layout():
    # One sweep of every root: no roots, a root given twice, and composed
    # roots above starting gates that lay out as a DAG, beside starting
    # gates that lay out as a tree.
    c, _ = gadgeted_ry_circuit(3)
    b = CircuitBuilder(c.gates)
    dag = {i for i in range(len(c.gates))
           if measure(subcircuit(c, i)) != Metrics(*tree_measure(c, i))}
    assert dag and c.output in dag
    assert b.metrics([]) == []
    low = min(dag)
    tree = [i for i in range(len(c.gates)) if i not in dag and c.gates[i].args]
    roots = [b.mul([b.const(3), c.output]), b.add([low, low]), b.mul([tree[-1], low, c.output])]
    roots += [c.output, low, tree[-1], roots[0], b.const(5), roots[2]]
    assert b.metrics(roots) == [measure(b.formula(r)) for r in roots]
    assert b.metrics(list(range(len(c.gates)))) == [
        measure(subcircuit(c, i)) for i in range(len(c.gates))]


def test_metrics_measure_a_chain_of_shared_starting_gates_in_one_sweep(monkeypatch):
    # Every gate of a 3,000-deep chain of starting gates g = ADD g' g' lies
    # above a shared gate: metrics sweeps the table once for all the roots,
    # not once more for each starting gate a root or a composed gate names.
    chain_of_squares = CircuitBuilder()
    g = chain_of_squares.var(X1)
    for _ in range(3000):
        g = chain_of_squares.add([g, g])
    b = CircuitBuilder(chain_of_squares._gates)
    roots = [b.mul([b.const(2), g]), b.add([1500, g]), g]
    sweeps = []
    real = circuit_module._sweep

    def counting(gates, ids):
        sweeps.append(ids)
        return real(gates, ids)

    monkeypatch.setattr(circuit_module, "_sweep", counting)
    got = b.metrics(roots)
    every = b.metrics([b.mul([b.const(2), i]) for i in range(1, g + 1)])
    monkeypatch.undo()
    assert len(sweeps) == 2
    assert got == [measure(b.formula(r)) for r in roots]
    assert got[1] == Metrics(2 + 2 * 1500 + 2 * 3000, 3001)
    assert every == [Metrics(2 * i, i) for i in range(1, g + 1)]


@pytest.mark.parametrize("slot", [1, 2500])
def test_boolean_axiom_gates_are_those_poly_lays_in(slot):
    # CircuitBuilder.boolean_axiom pushes v^2 - v without a polynomial: the
    # seven gates poly(boolean_axiom(v)) pushes, wherever v's slot lies.
    v = Var("y", 3, 1)
    with poly_module.fresh_slots():
        for k in range(slot):
            poly_module.take_slot(Var("u", k + 1))
        made, laid = CircuitBuilder(), CircuitBuilder()
        for b in (made, laid):
            b.add([b.var(X1), b.const(2)])
        got, want = made.boolean_axiom(v), laid.poly(poly_module.boolean_axiom(v))
        assert poly_module._CURRENT_SLOTS.get().offsets[v] == 16 * slot
    assert got == want == 9 and len(made._gates) == len(laid._gates) == 10
    for g, h in zip(made._gates, laid._gates):
        assert (g.op, g.args, g.var, g.const) == (h.op, h.args, h.var, h.const)
    assert made.lines(got) == laid.lines(want)
    assert made.metrics([got]) == laid.metrics([want])


def test_fits_counts_the_layout_before_writing_it():
    # fits says whether a root lays out to no more gate lines than the
    # table holds: its gates and the lines of text read() was given, which
    # lays out as itself in more lines than the gates it hash-conses to.  A
    # 40-deep chain of composed ADD g g lays out to 2^41 - 1 lines: fits
    # says no at once, where lines() would not finish.
    c = chain(30)
    b = CircuitBuilder(c.gates)
    g = b.add([c.output, b.const(1)])
    roots = [c.output, 30, g, b.mul([c.output, c.output]), b.add([30, b.var(X3), 30])]
    for _ in range(40):
        g = b.add([g, g])
    for r in roots:
        assert b.fits(r) == (len(b.lines(r)) - 1 <= len(b._gates))
    assert [b.fits(r) for r in roots] == [True, True, True, False, True]
    assert not b.fits(g)
    t = CircuitBuilder()
    text = format_circuit(poly_to_circuit((SparsePoly.variable(X1) + 1) ** 6)).splitlines()
    r = t.read(text)
    assert len(t._gates) < len(text) - 1 == len(t.lines(r)) - 1 and t.fits(r)
    assert t.fits(t.add([r, t.const(0)])) and not t.fits(t.add([r, r, r]))


def subcircuit_ids(c: Circuit, i: int) -> set:
    """The ids gate i of c reaches."""
    ids, todo = set(), [i]
    while todo:
        j = todo.pop()
        if j not in ids:
            ids.add(j)
            todo.extend(c.gates[j].args)
    return ids


def tree_measure(c: Circuit, i: int) -> tuple:
    """(size, depth) of gate i of c unfolded into a tree, by the rule of
    measure: each use of a gate counted again."""
    g = c.gates[i]
    if not g.args:
        return 0, 0
    if g.op == "MUL" and len(g.args) == 2 and \
            [c.gates[a].op == CONST for a in g.args].count(True) == 1:
        return tree_measure(c, next(a for a in g.args if c.gates[a].op != CONST))
    parts = [tree_measure(c, a) for a in g.args]
    return len(g.args) + sum(p[0] for p in parts), 1 + max(p[1] for p in parts)


def written_lines(c: Circuit) -> list:
    """The lines lines() writes of c laid out as a formula: c's gates built
    as composed gates, so a shared gate is written again at each use."""
    b = CircuitBuilder()
    ids: list = []
    for g in c.gates:
        ids.append(b._push(g) if g.is_leaf() else
                   (b.add if g.op == "ADD" else b.mul)([ids[a] for a in g.args]))
    return b.lines(ids[c.output])


def respellings(rng: random.Random, lines: list) -> list:
    """Valid texts of the same circuit that lines() would not write: a
    double space, a tab, a trailing comment, and g5 renamed g05 together
    with its references."""
    k = rng.randrange(len(lines) - 1)

    def at_k(line: str) -> list:
        return lines[:k] + [line] + lines[k + 1:]

    texts = [at_k(lines[k].replace(" = ", " =  ", 1)),
             at_k(lines[k].replace(" ", "\t", 1)),
             at_k(lines[k] + " # c")]
    if len(lines) > 6:
        texts.append([re.sub(r"\bg5\b", "g05", line) for line in lines])
    return texts


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["formula", "dag", "shuffled"]))
def test_read_lays_out_and_measures_like_parse_circuit(seed, kind):
    rng = random.Random(seed)
    if kind == "formula":
        c = random_layered_formula(rng, max_nodes=rng.randint(3, 30), n_vars=4)
    elif kind == "dag":
        c = random_dag_circuit(rng, n_gates=rng.randint(4, 16))
    else:
        c, _ = shuffled_topological(rng, random_dag_circuit(rng, n_gates=10))
    b = CircuitBuilder()
    text = format_circuit(c)
    i = b.read(text.splitlines())
    parsed = parse_circuit(text)
    assert "\n".join(b.lines(i)) + "\n" == format_circuit(parsed)
    assert b.metrics([i])[0] == measure(parsed)
    # The text lines() writes is hash-consed: read again, it adds no gate.
    written = written_lines(c)
    w = b.read(written)
    size = len(b._gates)
    assert w not in b._starting and b.lines(w) == written
    assert b.read(list(written)) == w and len(b._gates) == size
    # Respelled, it is kept as written, and lays out and measures the same.
    for lines in respellings(rng, written):
        r = b.read(lines)
        assert r in b._starting
        assert b.lines(r) == written and b.metrics([r])[0] == b.metrics([w])[0]


def test_a_text_kept_for_one_line_leaves_the_table_as_it_found_it():
    # The comment on the last gate line makes the text one to keep, though
    # every line before it is written; read lays nothing in before the
    # whole text has parsed.
    rng = random.Random(1)
    c = next(c for c in iter(lambda: random_layered_formula(rng), None) if len(c) == 25)
    written = written_lines(c)
    commented = written[:-2] + [written[-2] + " # c", written[-1]]
    b = CircuitBuilder()
    r = b.read(commented)
    assert len(b._gates) == 25 and not b._shared
    assert b.lines(r) == written
    # A table holding hash-consed gates keeps them, and only adds the copy.
    other = written_lines(random_layered_formula(rng))
    w = b.read(other)
    size, shared = len(b._gates), dict(b._shared)
    assert b.lines(b.read(commented)) == written and len(b._gates) == size + 25
    assert b._shared == shared
    assert b.read(other) == w and len(b._gates) == size + 25


@pytest.mark.parametrize("text", [
    "g0 = VAR x1\ng1 = VAR x2\ng2 = MUL g0 g1\ng3 = ADD g2 g2\nOUTPUT g3\n",   # a DAG
    "g0 = VAR x1\ng1 = VAR x2\nOUTPUT g1\n",                                # two roots
    "g0 = VAR x1\ng1 = VAR x2\ng2 = ADD g0 g1\nOUTPUT g2\ng3 = VAR x3\n",    # after OUTPUT
    "g0 = VAR x1\ng1 = VAR x2\ng2 = ADD g0 g1\nOUTPUT g1\n",                 # not the last
    "g0 = CONST 1/0\nOUTPUT g0\n",                                          # malformed leaf
    "g0 = VAR x1\ng1 = VAR x2\ng2 = ADD g0 g7\nOUTPUT g2\n",                 # undefined
])
def test_canonical_looking_texts_are_kept_or_refused(text):
    b = CircuitBuilder()
    b.read(written_lines(cadd(cmul(cvar(X1), cvar(X2)), cconst(Fraction(1, 2)))))
    want = parsed_outcome(text)[:2]
    assert read_outcome(b, text) == want
    if want[0] == "ok":
        assert b.read(text.splitlines()) in b._starting


# ---------------------------------------------------------------------------
# One parser: a written-form shortcut per line, the general rules for the
# lines it refuses.

def respelled_lines(rng: random.Random, lines: list) -> list:
    """lines with a seeded subset, at least one gate line, respelled as
    lines() would not write them: " = " widened, a trailing comment, or a
    trailing space on a CONST line."""
    out = []
    for line in lines:
        pick = rng.randrange(6)
        if pick == 0 and " = " in line:
            line = line.replace(" = ", " =  ", 1)
        elif pick == 1:
            line += " # c"
        elif pick == 2 and " = CONST " in line:
            line += " "
        out.append(line)
    if out == lines:
        out[0] += " # c"
    return out


def laid_out_texts(cert) -> list:
    """The axioms and cofactors of a certificate, each circuit laid out as
    the text of its formula."""
    axioms, cofactors = laid_out(cert)
    return [format_circuit(c) for _, c in axioms] + [format_circuit(c) for c in cofactors]


def test_respelled_lines_read_like_the_written_text(corpus01, transformed01):
    rng = random.Random(3001)
    for c in corpus01[::5]:
        text = format_circuit(c)
        respelled = "\n".join(respelled_lines(rng, text.splitlines())) + "\n"
        assert respelled != text
        assert gate_tuples(parse_circuit(respelled)) == gate_tuples(parse_circuit(text))
    for _, cp, _ in transformed01[::20]:
        cert = refutation_v2(cp)
        # /1: each circuit is read on its own, a respelled one kept as it
        # stands; every root lays out and measures as the written text's.
        doc = json.loads(certificate_to_json_v1(cert))
        want = certificate_from_json(json.dumps(doc))
        for circuit in [doc["axioms"][0]["circuit"]] + doc["cofactors"]:
            circuit[:] = respelled_lines(rng, circuit)
        got = certificate_from_json(json.dumps(doc))
        assert laid_out_texts(got) == laid_out_texts(want)
        assert got.table.metrics(got.cofactors) == list(want.claimed_metrics)
        # /2: the table is the same, gate for gate, key for key.
        doc = json.loads(certificate_to_json_v2(cert))
        want = certificate_from_json(json.dumps(doc))
        doc["table"] = respelled_lines(rng, doc["table"])
        got = certificate_from_json(json.dumps(doc))
        assert table_state(got.table) == table_state(want.table)
        assert (got.axioms, got.cofactors) == (want.axioms, want.cofactors)


def read_table_outcome(text: str, read_table) -> tuple | str:
    """The state of a fresh table once read_table laid the gate lines of
    text in, the first as a starting gate, with the {token: id} map it
    returned; or the message of the ValueError it raised."""
    b = CircuitBuilder()
    lines = [line for line in text.splitlines() if not line.startswith("OUTPUT")]
    try:
        names = read_table(b, lines, 1)
    except ValueError as exc:
        return str(exc)
    return table_state(b) + (names,)


def read_everywhere(text: str) -> list:
    """What parse_circuit, read and read_table make of text: the gates, the
    layout and the table state, or each the message it raised."""
    return [parsed_outcome(text)[-1], read_outcome(CircuitBuilder(), text)[-1],
            read_table_outcome(text, CircuitBuilder.read_table)]


def test_a_positional_name_defined_twice_is_refused():
    # The second line is named by its position, but g1 is taken.
    text = "g1 = VAR x1\ng1 = VAR x2\nOUTPUT g1\n"
    assert read_everywhere(text) == ["line 2: gate g1 defined twice"] * 3


def test_a_written_line_naming_an_undefined_gate_gets_the_general_message():
    text = "g0 = VAR x1\ng1 = ADD g0 g7\nOUTPUT g1\n"
    assert read_everywhere(text) == ["line 2: reference to undefined gate 'g7'"] * 3


@pytest.mark.parametrize("text", [
    "g5 = VAR x1\ng1 = VAR x2\ng2 = ADD g5 g1\nOUTPUT g2\n",
    "g00 = VAR x1\ng1 = CONST 1/2\ng2 = MUL g00 g1\ng3 = VAR x1\ng4 = ADD g2 g3\nOUTPUT g4\n",
    "g1 = VAR x1\ng0 = VAR x2\ng2 = MUL g1 g0\nOUTPUT g2\n",
    "g9 = VAR x1\ng1 = ADD g9 g1\nOUTPUT g1\n",
])
def test_a_text_whose_first_name_is_not_its_position_reads_as_before(text):
    want = parsed_outcome(text, reference_parse_circuit)
    assert parsed_outcome(text) == want
    assert read_outcome(CircuitBuilder(), text) == want[:2]
    assert read_table_outcome(text, CircuitBuilder.read_table) == \
        read_table_outcome(text, reference_read_table)


def test_a_post_order_text_with_one_line_not_written_is_kept():
    rng = random.Random(7)
    c = next(c for c in iter(lambda: random_layered_formula(rng), None) if len(c) > 8)
    written = written_lines(c)
    texts = [written[:k] + [written[k].replace(" = ", " =  ", 1)] + written[k + 1:]
             for k in range(len(written) - 1)]
    texts += [written[:k] + [extra] + written[k:] for extra in ("", "# note") for k in (0, 4)]
    for respelled in texts:
        b = CircuitBuilder()
        r = b.read(respelled)
        assert r in b._starting and not b._shared and len(b._gates) == len(written) - 1
        text = "\n".join(respelled) + "\n"
        assert "\n".join(b.lines(r)) + "\n" == format_circuit(parse_circuit(text))

import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from helpers import build_corpus, gadget_poly, pit_corpus, retrieval_point, shuffled_topological

from ipscert.circuit import (
    CircuitBuilder,
    cadd,
    cconst,
    cmul,
    cvar,
    eval_circuit,
    expand,
    format_circuit,
    measure,
    normalize_layered,
    partial_evaluate,
)
from ipscert.gadget import (
    GadgetLedger,
    address_code,
    gadget_sum,
    gadgetize,
    literal_gates,
    t_for,
)
from ipscert.instances import gadgeted_ry_circuit, uvar
from ipscert.poly import SparsePoly, Var
from ipscert.rank import balanced_partitions, fullrank_witness
from ipscert.verify import boolean_image

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))

# SHA-256 of normalize_layered and gadgetize output (circuit text, then ledger
# JSON) as written while both recursed on the Python stack.
NORMALIZED_FORMULAS_SHA256 = "08670596ac8d0371348576cf179fdf1a1507420c6af809e18c3687600f960103"
GADGETIZED_FORMULAS_SHA256 = "4f61ad9c32f40b7b5a3f0007b2ab75421377f0886314c7bd41a415a4ce3ad63a"
# SHA-256 of the concatenated ledger JSON of normalize_layered, then
# gadgetize, over the 200-formula {0,1} corpus and over the certify-pit
# corpus at seed 101, as written while gadgetize kept its ledger beside the
# circuit.
CORPUS_LEDGERS_SHA256 = "df9a34cd02d88afaa48f616a5381523b4f5e548c86a99f2f9e93c4541c0f48bd"
PIT_CORPUS_LEDGERS_SHA256 = "ba053671a6e4a2d4037a614a1cbdc2fb3b2d0f07bf0a78bbb9dc534cffee84e6"


def yvars(t):
    return [Var("y", 0, b) for b in range(t + 1)]


def gadget_circuit(code):
    """A code's literal gates laid out as one product formula."""
    b = CircuitBuilder()
    return b.formula(b.prod(literal_gates(b, code)))


def test_t_for():
    assert [t_for(n) for n in (0, 1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3, 4]


def test_gadget_n1_j0_shape():
    # j + 2^t = 2 = bits (0, 1) LSB-first: (1 - y0) * y1
    code = address_code(0, yvars(1))
    y0, y1 = (SparsePoly.variable(v) for v in yvars(1))
    assert expand(gadget_circuit(code)) == (1 - y0) * y1 == gadget_poly(code)


def test_gadget_truth_table_single_one():
    for n in range(9):
        t = t_for(n)
        vs = yvars(t)
        for j in range(n + 1):
            code = address_code(j, vs)
            circ = gadget_circuit(code)
            assert expand(circ) == gadget_poly(code)
            hits = []
            for bits in itertools.product((0, 1), repeat=t + 1):
                a = dict(zip(vs, bits))
                val = eval_circuit(circ, a)
                assert val in (0, 1)
                if val == 1:
                    hits.append(bits)
            value = j + (1 << t)
            expected = tuple(value >> b & 1 for b in range(t + 1))
            assert hits == [expected]


def test_gadget_retrieval_point():
    for n in range(9):
        t = t_for(n)
        vs = yvars(t)
        point = {v: Fraction(1, 2) for v in vs[:-1]}
        point[vs[-1]] = Fraction(1 << t)
        for j in range(n + 1):
            assert eval_circuit(gadget_circuit(address_code(j, vs)), point) == 1


def test_gadget_rejects_bad_address():
    for j, vs in ((4, yvars(2)), (-1, yvars(2)), (2, yvars(1))):
        with pytest.raises(ValueError, match=f"address {j} out of range for {len(vs)} control"):
            address_code(j, vs)


def test_top_bit_always_one():
    for n in range(9):
        for j in range(n + 1):
            assert address_code(j, yvars(t_for(n)))[-1][1] == 1


def test_p_writes_reads_and_witnesses_the_one_address_code():
    # Writer, reader and witness of P through address_code, n = 1..6.  Each
    # gadget sum read off P is over one w_top, one w_leaf, or the address
    # variables of an interval with two or more splits (a lone split's sum
    # folds away); over address variables, summand k has address k's code,
    # whose bits, placed by the bit in each variable's name, are k + 2^t.
    # The full-rank witness sets exactly one of an interval's codes where
    # it picks a split (w_top = 1) and none elsewhere.
    for n in range(1, 7):
        p, wsets = gadgeted_ry_circuit(n)
        by_controls = {frozenset(ws.address_vars): ws for ws in wsets}
        read = {}
        for i in range(len(p.gates)):
            terms = gadget_sum(p, i)
            if not terms:
                continue
            controls = frozenset(terms[0][1])
            if controls not in by_controls:
                assert any(controls in ({ws.w_top}, {ws.w_leaf}) for ws in wsets)
                continue
            ws = by_controls[controls]
            assert ws not in read
            read[ws] = [tuple(code.items()) for _, code, _ in terms]
            for k, (_, code, _) in enumerate(terms):
                assert sum(bit << v.idx[2] for v, bit in code.items()) == k + (1 << len(code) - 1)
        assert set(read) == {ws for ws in wsets if len(ws.splits) > 1}
        for ws, codes in read.items():
            assert codes == [address_code(k, ws.address_vars) for k in range(len(ws.splits))]
        for part in balanced_partitions([uvar(k) for k in range(1, 2 * n + 1)]):
            witness = fullrank_witness(wsets, part)
            for ws in wsets:
                codes = [address_code(k, ws.address_vars) for k in range(len(ws.splits))]
                set_codes = [code for code in codes if all(witness[v] == bit for v, bit in code)]
                assert len(set_codes) == (1 if witness[ws.w_top] == 1 else 0)


def test_gadgetize_two_summands():
    c = cadd(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    y0, y1 = (SparsePoly.variable(v) for v in ledger.entries[0].vars)
    x1, x2 = SparsePoly.variable(X1), SparsePoly.variable(X2)
    assert expand(cp) == x1 * (1 - y0) * y1 + x2 * y0 * y1


def test_gadgetize_fanin_one_add():
    c = cadd(cvar(X1))
    cp, ledger = gadgetize(c)
    e = ledger.entries[0]
    assert e.t == 0 and len(e.vars) == 1
    y0 = SparsePoly.variable(e.vars[0])
    assert expand(cp) == SparsePoly.variable(X1) * y0
    b = retrieval_point(ledger)
    assert b[e.vars[0]] == 1
    assert expand(partial_evaluate(cp, b)) == SparsePoly.variable(X1)


def test_gadgetize_leaves_mul_unchanged():
    c = cmul(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    assert len(ledger) == 0
    assert expand(cp) == expand(c)


def test_gadgetize_rejects_nested_adds():
    c = cadd(cadd(cvar(X1), cvar(X2)), cvar(X3))
    with pytest.raises(ValueError, match="normalize_layered"):
        gadgetize(c)


def test_gadgetize_rejects_existing_gadget_namespace():
    c = cadd(cvar(Var("y", 7)), cvar(X1))
    with pytest.raises(ValueError, match="namespace"):
        gadgetize(c)


def test_selection_at_boolean_address():
    # setting the controls to an address encoding selects that summand alone
    c = cadd(cvar(X1), cvar(X2), cvar(X3))
    cp, ledger = gadgetize(c)
    entry = ledger.entries[0]
    for j, picked in ((0, X1), (1, X2), (2, X3)):
        point = dict(address_code(j, entry.vars))
        assert expand(partial_evaluate(cp, point)) == SparsePoly.variable(picked)


def test_retrieval_recovers_original():
    c = cadd(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    b = retrieval_point(ledger)
    assert set(b.values()) == {Fraction(1, 2), Fraction(2)}
    assert expand(partial_evaluate(cp, b)) == expand(c)


def test_retrieval_empty_for_gadget_free_circuit():
    c = cmul(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    assert retrieval_point(ledger) == {}
    assert expand(partial_evaluate(cp, retrieval_point(ledger))) == expand(c)


def test_retrieval_on_nested_formula():
    c = normalize_layered(cadd(cmul(cadd(cvar(X1), cvar(X2)), cvar(X3)), cvar(X1)))
    cp, ledger = gadgetize(c)
    assert expand(partial_evaluate(cp, retrieval_point(ledger))) == expand(c)


def test_transform_semantics_and_bounds_small_corpus():
    for c in build_corpus(991, 40):
        cn = normalize_layered(c)
        cp, ledger = gadgetize(cn)
        assert expand(partial_evaluate(cp, retrieval_point(ledger))) == expand(cn)
        m, mp = measure(cn), measure(cp)
        assert mp.depth <= 2 * m.depth + 2
        assert mp.size <= 6 * max(m.size, 1) * math.log2(m.size + 2)
        assert len(ledger.fresh_vars()) <= 2 * max(m.size, 1) * math.log2(m.size + 2)


def test_fresh_variable_blocks_are_disjoint():
    c = normalize_layered(cadd(cmul(cadd(cvar(X1), cvar(X2)), cvar(X3)), cvar(X2)))
    cp, ledger = gadgetize(c)
    blocks = [set(e.vars) for e in ledger.entries]
    for a, b in itertools.combinations(blocks, 2):
        assert not (a & b)


def test_boolean_image_of_transformed_01_formula():
    rng = random.Random(123)
    for c in build_corpus(992, 12):
        cp, _ = gadgetize(normalize_layered(c))
        if len(cp.variables()) <= 14:
            report = boolean_image(cp, target=frozenset((0, 1)))
            assert report.exhaustive and report.contained


def test_boolean_image_of_transformed_pm1_formula():
    for c in build_corpus(993, 12, const_pool=(-1, 0, 1)):
        cp, _ = gadgetize(normalize_layered(c))
        if len(cp.variables()) <= 14:
            report = boolean_image(cp, target=frozenset((-1, 0, 1)))
            assert report.exhaustive and report.contained


def test_ledger_json_round_trip():
    c = normalize_layered(cadd(cmul(cadd(cvar(X1), cvar(X2), cconst(1)), cvar(X3)), cvar(X1)))
    cp, ledger = gadgetize(c)
    again = GadgetLedger.from_json(ledger.to_json())
    assert ledger.to_json() == again.to_json()
    assert [e.gate for e in again.entries] == [e.gate for e in ledger.entries]
    assert again.fresh_vars() == ledger.fresh_vars()


def test_layouts_of_shuffled_formulas_are_pinned():
    # Nested sums and products of corpus formulas, gates renumbered out of
    # post-order before each pass: gates and ledger ids must not move.
    rng = random.Random(5105)
    normalized, gadgetized = hashlib.sha256(), hashlib.sha256()
    corpus = build_corpus(5105, 40, const_pool=(-1, 0, 1))
    for k, (a, b) in enumerate(zip(corpus[::2], corpus[1::2])):
        c = shuffled_topological(rng, (cadd if k % 2 else cmul)(a, b), GadgetLedger(()))[0]
        layered = normalize_layered(c)
        normalized.update(format_circuit(layered).encode())
        cp, ledger = gadgetize(shuffled_topological(rng, layered, GadgetLedger(()))[0])
        gadgetized.update((format_circuit(cp) + ledger.to_json()).encode())
        assert GadgetLedger.from_json(ledger.to_json()).to_json() == ledger.to_json()
    assert normalized.hexdigest() == NORMALIZED_FORMULAS_SHA256
    assert gadgetized.hexdigest() == GADGETIZED_FORMULAS_SHA256


def test_ledger_json_of_both_corpora_is_pinned(transformed01):
    for ledgers, pinned in (([ledger for _, _, ledger in transformed01], CORPUS_LEDGERS_SHA256),
                            ([gadgetize(c)[1] for c in pit_corpus(101, 150)],
                             PIT_CORPUS_LEDGERS_SHA256)):
        text = "".join(ledger.to_json() for ledger in ledgers)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned


def _ledger_doc():
    _, ledger = gadgetize(normalize_layered(cadd(cvar(X1), cmul(cvar(X2), cvar(X3)))))
    return json.loads(ledger.to_json())


@pytest.mark.parametrize("path, value, message", [
    (("entries", 0), {}, "missing field entries[0].gate"),
    (("entries", 0, "children", 0), {"address": 0}, "missing field entries[0].children[0].child"),
    (("entries",), 5, "field entries is not a list"),
    (("entries", 0, "vars"), [3], "field entries[0].vars[0] is not a string"),
    (("entries", 0, "internal"), [True], "field entries[0].internal[0] is not an integer"),
    (("entries", 0, "t"), "1", "field entries[0].t is not an integer"),
    (("entries", 0, "vars"), ["y_2_0", "q7"],
     "field entries[0].vars[1]: cannot parse variable name 'q7'"),
    (("entries", 0, "children"), [], "field entries[0].children is empty"),
    (("entries", 0, "t"), 2, "field entries[0].t is 2; 2 children need t = 1"),
    (("entries", 0, "vars"), ["y_2_0"], "field entries[0].vars has 1 variables; t = 1 needs 2"),
    (("entries", 0, "children", 1, "address"), 7,
     "field entries[0].children[1].address 7 is outside 0..1"),
    (("entries", 0, "children", 0, "address"), -1,
     "field entries[0].children[0].address -1 is outside 0..1"),
    (("entries", 0, "children", 1, "address"), 0,
     "field entries[0].children[1].address 0 repeats an earlier address"),
])
def test_ledger_from_json_names_a_bad_field(path, value, message):
    doc = _ledger_doc()
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        GadgetLedger.from_json(json.dumps(doc))


def test_ledger_from_json_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="not a gadget ledger document"):
        GadgetLedger.from_json(json.dumps([_ledger_doc()]))

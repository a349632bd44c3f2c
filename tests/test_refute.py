import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from helpers import (build_corpus, certificate_of, gadget_poly, laid_out, random_product_dag,
                     ref_evaluate, shuffled_topological, total_degree)

from ipscert.circuit import (
    CONST,
    MUL,
    CircuitBuilder,
    cadd,
    cconst,
    circuit_sha256,
    cmul,
    cvar,
    expand,
    format_circuit,
    measure,
    normalize_layered,
    parse_circuit,
    subcircuit,
)
from ipscert.gadget import (AddressingGadget, GadgetChild, GadgetLedger, LedgerEntry, gadgetize,
                            t_for)
from ipscert.poly import SparsePoly, Var, boolean_axiom, format_poly
from ipscert.refute import (
    _product_cofactor,
    _square_cofactors,
    assemble_refutation,
    certificate_from_json,
    certificate_to_json,
    gate_square_certificates,
)
from ipscert.verify import verify_exact

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))

# SHA-256 of certificate documents as written before cofactors were composed
# by gate id in one builder: every cofactor must keep its gate layout.
SHUFFLED_FORMULAS_SHA256 = "77c4f7c0a60c6e62b7554c512e25555241db9d27d3327f5751e517044fe4ff10"
PRODUCT_DAGS_SHA256 = "b5d47202aedcdfa3819437a4802039b4b9b6df0c6de2c12d5d431796f1622e30"
# SHA-256 of the certificate documents of 5 corpus formulas (build_corpus(4106, 5),
# normalized and transformed) at each shift, taken when refute derived its
# instance cofactor's constants by hand.
SHIFT_SHA256 = {
    "-2": "249ef9b6be16feb986c598fdfac4944c49c188d32727fdb79e13083049b41a39",
    "1": "5c8941cbd09c6e531981dfe108289a3f60b5f071b128600604163cfbd1b3f9e8",
    "1/2": "799ba65708bbf2b1a7c9527d0a3316f97d92271e411dd0eb7e6be5a533eac748",
    "-3": "f269c17407c6e4feb75262df78dc7e6e36af235ea0dd96536a88c24326f39fde",
    "2/3": "6651f93920e723aa233efaf76e0fdf983e1ca840692b5400fc1b8e93ac2a38c9",
}


def yvars(t, tag=0):
    return [Var("y", tag, b) for b in range(t + 1)]


def identity_holds(c, gid, b, cert):
    """g^2 - g == sum_v cofactor_v * (v^2 - v) for gate gid of c, the
    cofactors root ids in b."""
    g = expand(subcircuit(c, gid))
    rhs = SparsePoly.zero()
    for v, cof in cert.items():
        rhs = rhs + b.expand(cof) * boolean_axiom(v)
    return g * g - g == rhs


def gate_identity_holds(cprime, gid, ledger):
    b, certs = gate_square_certificates(cprime, [gid], ledger)
    return identity_holds(cprime, gid, b, certs[gid])


def certifiable_gate_ids(c):
    """All gates whose value over the cube is 0/1: everything except constant
    leaves outside {0,1} and products scaled by such constants (the negation
    inside each (1 - y) factor)."""
    out = []
    for i, g in enumerate(c.gates):
        if g.op == CONST and g.const not in (0, 1):
            continue
        if g.op == MUL and any(
                c.gates[a].op == CONST and c.gates[a].const not in (0, 1) for a in g.args):
            continue
        out.append(i)
    return out


def test_leaf_base_case():
    c = cvar(X1)
    b, certs = gate_square_certificates(c, [c.output], GadgetLedger(()))
    assert list(certs[c.output]) == [X1]
    assert b.expand(certs[c.output][X1]) == 1


def test_const_base_cases():
    for value in (0, 1):
        c = cconst(value)
        _, certs = gate_square_certificates(c, [c.output], GadgetLedger(()))
        assert certs[c.output] == {}


def test_negative_constant_rejected():
    c = cconst(-1)
    with pytest.raises(ValueError, match="outside"):
        gate_square_certificates(c, [c.output], GadgetLedger(()))


def test_ungadgetized_add_rejected():
    c = cadd(cvar(X1), cvar(X2))
    with pytest.raises(ValueError, match="transform"):
        gate_square_certificates(c, [c.output], GadgetLedger(()))


def test_product_gate_telescoping():
    # g = g0*g1: E from (g0^2-g0)*g1^2 + g0*(g1^2-g1)
    c = cmul(cvar(X1), cvar(X2))
    b, certs = gate_square_certificates(c, [c.output], GadgetLedger(()))
    x1, x2 = SparsePoly.variable(X1), SparsePoly.variable(X2)
    assert b.expand(certs[c.output][X1]) == x2 * x2
    assert b.expand(certs[c.output][X2]) == x1
    assert gate_identity_holds(c, c.output, GadgetLedger(()))


def test_gadgetized_add_full_expansion():
    c = cadd(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    assert gate_identity_holds(cp, cp.output, ledger)


def square_cofactors(g):
    """(builder, ids of C_bit) for A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit)."""
    b = CircuitBuilder()
    return b, _square_cofactors(b, g.factors(b))


def product_cofactor(a, a2):
    """(builder, j, id of C) for A * A' = C * (y_j^2 - y_j)."""
    b = CircuitBuilder()
    return (b, *_product_cofactor(b, a, a.factors(b), a2, a2.factors(b)))


def test_address_square_trivial_gadget():
    b, cofs = square_cofactors(AddressingGadget.build(0, 0, yvars(0)))
    assert b.expand(cofs[0]) == 1


def test_address_square_two_bit_gadget():
    g = AddressingGadget.build(1, 0, yvars(1))
    b, cofs = square_cofactors(g)
    a = gadget_poly(g)
    rhs = SparsePoly.zero()
    for bit, cof in enumerate(cofs):
        rhs = rhs + b.expand(cof) * boolean_axiom(g.vars[bit])
    assert a * a - a == rhs


def test_address_square_random_points_and_sizes():
    rng = random.Random(41)
    for n in (1, 2, 3, 5, 8):
        r = n + 1
        for j in range(n + 1):
            g = AddressingGadget.build(n, j, yvars(t_for(n)))
            b, cofs = square_cofactors(g)
            a = gadget_poly(g)
            rhs = SparsePoly.zero()
            for bit, cof in enumerate(cofs):
                assert b.metrics(cof).size <= 6 * r
                rhs = rhs + b.expand(cof) * boolean_axiom(g.vars[bit])
            lhs = a * a - a
            assert lhs == rhs
            for _ in range(100 // (n + 1)):
                point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for v in g.vars}
                assert (ref_evaluate(dict(lhs.items()), point)
                        == ref_evaluate(dict(rhs.items()), point))


def test_address_product_example():
    vs = yvars(1)
    a = AddressingGadget.build(1, 0, vs)
    a2 = AddressingGadget.build(1, 1, vs)
    b, j, c = product_cofactor(a, a2)
    assert j == 0
    y1 = SparsePoly.variable(vs[1])
    assert b.expand(c) == -(y1 * y1)
    assert gadget_poly(a) * gadget_poly(a2) == b.expand(c) * boolean_axiom(vs[j])


def test_address_product_equal_addresses_rejected():
    a = AddressingGadget.build(1, 1, yvars(1))
    elsewhere = AddressingGadget.build(1, 0, yvars(1, tag=1))
    for a2, message in ((a, "equal addresses have no separating bit"),
                        (elsewhere, "gadgets do not share control variables")):
        with pytest.raises(ValueError, match=message):
            product_cofactor(a, a2)


def test_address_product_separating_bit_below_top():
    # bit t is 1 for every address, so it never separates
    for n in (2, 5, 8):
        vs = yvars(t_for(n))
        for j in range(n + 1):
            for j2 in range(n + 1):
                if j == j2:
                    continue
                a = AddressingGadget.build(n, j, vs)
                a2 = AddressingGadget.build(n, j2, vs)
                b, bit, c = product_cofactor(a, a2)
                assert bit < a.t
                assert b.metrics(c).size <= 6 * (n + 1)
                assert gadget_poly(a) * gadget_poly(a2) == b.expand(c) * boolean_axiom(vs[bit])


def test_assembly_hand_example_leaf():
    c = cvar(X1)
    cert = assemble_refutation(c, GadgetLedger(()))
    x1 = SparsePoly.variable(X1)
    assert expand(cert.table.formula(cert.cofactors[0])) == -(x1 + 1) / 2
    assert expand(cert.table.formula(cert.cofactors[1])) == Fraction(1, 2)
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_constant_instance():
    cert = assemble_refutation(cconst(1), GadgetLedger(()))
    assert len(cert.axioms) == 1
    assert expand(cert.table.formula(cert.cofactors[0])) == -1
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_product_instance():
    cert = assemble_refutation(cmul(cvar(X1), cvar(X2)), GadgetLedger(()))
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_rejects_satisfiable_shift():
    for s in (0, -1):
        with pytest.raises(ValueError, match="satisfiable"):
            assemble_refutation(cvar(X1), GadgetLedger(()), shift=Fraction(s))


def test_assembly_alternate_shift():
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    cert = assemble_refutation(cp, ledger, shift=Fraction(1))
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_rejects_bad_leaf():
    c = cadd(cvar(X1), cconst(2))
    cp, ledger = gadgetize(c)
    with pytest.raises(ValueError, match="outside"):
        assemble_refutation(cp, ledger)


def test_assembly_rejects_a_ledger_child_that_is_not_an_earlier_gate():
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    e = ledger.entries[0]
    for child in (e.gate, len(cp.gates) + 3):
        children = (GadgetChild(0, child, e.children[0].summand),) + e.children[1:]
        bad = GadgetLedger([LedgerEntry(gate=e.gate, source_gate=e.source_gate, t=e.t,
                                        vars=e.vars, children=children, internal=e.internal)])
        with pytest.raises(ValueError, match="ledger child outside"):
            assemble_refutation(cp, bad)


def test_instance_cofactor_degree():
    for c in build_corpus(771, 10):
        cp, ledger = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp, ledger)
        fprime = expand(cp)
        assert total_degree(expand(cert.table.formula(cert.cofactors[0]))) <= total_degree(fprime) + 1


def test_gate_identities_and_ledger_bounds_small_corpus():
    for c in build_corpus(772, 15):
        cn = normalize_layered(c)
        if len(cn.variables()) > 8:
            continue
        cp, ledger = gadgetize(cn)
        gids = certifiable_gate_ids(cp)
        b, certs = gate_square_certificates(cp, gids, ledger)
        for gid in gids:
            assert identity_holds(cp, gid, b, certs[gid])
            mg = measure(subcircuit(cp, gid))
            for cof in certs[gid].values():
                m = b.metrics(cof)
                assert m.size <= 100 * mg.size ** 4
                assert m.depth <= 2 * mg.depth


def test_assembled_certificates_on_small_corpus():
    for c in build_corpus(773, 10):
        cp, ledger = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp, ledger)
        assert verify_exact(cert).verdict == "verified-exact"
        m = measure(cp)
        assert cert.total_size <= 100 * max(m.size, 1) ** 5
        assert cert.total_depth <= 2 * m.depth + 2
        assert cert.claimed_metrics == tuple(measure(cf) for cf in laid_out(cert)[1])


def test_layout_of_reparsed_shuffled_formulas_is_pinned():
    # Gate lines out of post-order: each formula gate brings its subcircuit in id order.
    rng = random.Random(4104)
    h = hashlib.sha256()
    for c in build_corpus(4104, 12):
        cp, ledger = gadgetize(normalize_layered(c))
        shuffled, shuffled_ledger = shuffled_topological(rng, cp, ledger)
        text = format_circuit(shuffled)
        assert text != format_circuit(cp)
        cert = assemble_refutation(parse_circuit(text),
                                   GadgetLedger.from_json(shuffled_ledger.to_json()))
        h.update(certificate_to_json(cert).encode())
    assert h.hexdigest() == SHUFFLED_FORMULAS_SHA256


def test_layout_of_product_dags_is_pinned():
    # Products whose gates share children: a shared subcircuit is copied per use.
    rng = random.Random(4105)
    h = hashlib.sha256()
    for _ in range(10):
        dag = random_product_dag(rng, rng.randint(6, 11))
        assert not dag.is_formula
        h.update(certificate_to_json(assemble_refutation(dag, GadgetLedger(()))).encode())
    assert h.hexdigest() == PRODUCT_DAGS_SHA256


@pytest.mark.parametrize("shift", sorted(SHIFT_SHA256))
def test_certificates_at_each_shift_are_pinned(shift):
    h = hashlib.sha256()
    for c in build_corpus(4106, 5):
        cp, ledger = gadgetize(normalize_layered(c))
        h.update(certificate_to_json(assemble_refutation(cp, ledger, shift=Fraction(shift))).encode())
    assert h.hexdigest() == SHIFT_SHA256[shift]


def test_certificate_json_round_trip():
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    cert = assemble_refutation(cp, ledger)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_exact(again).verdict == "verified-exact"
    assert again.instance_sha256 == cert.instance_sha256


@pytest.mark.parametrize("path", [
    ("axioms",), ("cofactors",), ("metrics",), ("instance_sha256",), ("shift",),
    ("axioms", 0, "label"), ("axioms", 1, "label"), ("axioms", 1, "poly"),
    ("metrics", 0, "size"),
])
def test_certificate_from_json_names_a_missing_field(path):
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    name = path[0] if len(path) == 1 else f"{path[0]}[{path[1]}].{path[2]}"
    with pytest.raises(ValueError, match=re.escape(f"missing field {name}")):
        certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("path, value, message", [
    (("cofactors", 1), ["g0 = ADD", "OUTPUT g0"],
     "field cofactors[1]: line 1: ADD gate g0 has no children"),
    (("cofactors", 0), ["g0 = VAR x1", "g1 = VAR x2", "OUTPUT g1"],
     "field cofactors[0]: gates unreachable from output: [0]"),
    (("cofactors", 2), [5], "field cofactors[2]: not a list of strings"),
    (("axioms", 0, "circuit"), ["g0 = CONST 1/0", "OUTPUT g0"],
     "field axioms[0].circuit: line 1: zero denominator in '1/0'"),
    (("axioms", 1, "poly"), "x1 +* 2", "field axioms[1].poly: Invalid literal for Fraction"),
    (("axioms", 2, "poly"), "1/1 * q7", "field axioms[2].poly: cannot parse variable name 'q7'"),
])
def test_certificate_from_json_names_a_field_whose_text_does_not_parse(path, value, message):
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(f"certificate document: {message}")):
        certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("path, value, name", [
    (("axioms",), 5, "axioms"),
    (("cofactors",), [5], "cofactors[0]"),
    (("cofactors",), 5, "cofactors"),
    (("shift",), None, "shift"),
    (("shift",), "1/0", "shift"),
    (("instance_sha256",), 5, "instance_sha256"),
    (("axioms", 0, "circuit"), 7, "axioms[0].circuit"),
    (("axioms", 1, "poly"), 7, "axioms[1].poly"),
    (("axioms", 1, "label"), None, "axioms[1].label"),
    (("metrics",), {}, "metrics"),
    (("metrics", 0, "size"), "3", "metrics[0].size"),
    (("metrics", 0, "depth"), True, "metrics[0].depth"),
])
def test_certificate_from_json_names_a_wrongly_typed_field(path, value, name):
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(f"field {name} is not")):
        certificate_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# One gate table from refute to verify.

def parent_json(cert) -> str:
    """The document as json.dumps writes it from formula circuits."""
    axioms, cofactors = laid_out(cert)
    doc = {
        "format": "nullstellensatz-cert/1",
        "builder": cert.builder,
        "shift": f"{cert.shift.numerator}/{cert.shift.denominator}",
        "instance_sha256": cert.instance_sha256,
        "axioms": [{"label": label, "poly": format_poly(ax)} if isinstance(ax, SparsePoly)
                   else {"label": label, "circuit": format_circuit(ax).splitlines()}
                   for label, ax in axioms],
        "cofactors": [format_circuit(cf).splitlines() for cf in cofactors],
        "metrics": [{"size": m.size, "depth": m.depth} for m in cert.claimed_metrics],
    }
    return json.dumps(doc, indent=2) + "\n"


def pinned_certificates():
    """The certificates of the two pinned layout tests above."""
    rng = random.Random(4104)
    for c in build_corpus(4104, 12):
        cp, ledger = gadgetize(normalize_layered(c))
        shuffled, shuffled_ledger = shuffled_topological(rng, cp, ledger)
        yield assemble_refutation(parse_circuit(format_circuit(shuffled)),
                                  GadgetLedger.from_json(shuffled_ledger.to_json()))
    rng = random.Random(4105)
    for _ in range(10):
        yield assemble_refutation(random_product_dag(rng, rng.randint(6, 11)), GadgetLedger(()))


def test_certificate_json_is_json_dumps_and_reads_back_byte_for_byte(transformed01):
    certs = [assemble_refutation(cp, ledger) for _, cp, ledger in transformed01]
    certs += list(pinned_certificates())
    for cert in certs:
        text = certificate_to_json(cert)
        assert text == parent_json(cert)
        again = certificate_from_json(text)
        assert certificate_to_json(again) == text
        assert again.instance_sha256 == hashlib.sha256(
            format_circuit(again.table.formula(again.axioms[0][1])).encode()).hexdigest()
        for table, roots in ((cert.table, cert.cofactors), (again.table, again.cofactors)):
            assert tuple(table.metrics(r) for r in roots) == cert.claimed_metrics == tuple(
                measure(table.formula(r)) for r in roots)


def test_every_written_certificate_is_hash_consed_when_read_back(transformed01):
    # No text the writer writes reaches the kept-text path of read(): the
    # table holds no starting gate, and each of its gates has one key.
    for _, cp, ledger in transformed01:
        table = certificate_from_json(certificate_to_json(assemble_refutation(cp, ledger))).table
        assert not table._starting
        assert len(table._shared) == len(table._gates)


def circuit_roots(cert) -> list:
    """The root ids of the certificate's circuits: axioms, then cofactors."""
    return [r for _, r in cert.axioms if not isinstance(r, SparsePoly)] + list(cert.cofactors)


def test_tables_keep_their_layouts_across_calls_in_any_order(transformed01):
    # A table keeps every layout lines() makes and reuses it in later lines()
    # and sha256() calls: the text of a root must not depend on which roots
    # were laid out before it, in a table read from text or assembled.
    def certs():
        yield from (assemble_refutation(cp, ledger) for _, cp, ledger in transformed01[::4])
        yield from pinned_certificates()

    for cert, assembled in zip(certs(), certs()):
        text = certificate_to_json(cert)
        hashed, one, two = (certificate_from_json(text) for _ in range(3))
        for r in circuit_roots(hashed):
            assert hashed.table.sha256(r) == circuit_sha256(hashed.table.formula(r))
        roots = circuit_roots(one)
        forward = [one.table.lines(r) for r in roots]
        backward = [two.table.lines(r) for r in reversed(roots)][::-1]
        assert forward == backward == [cert.table.lines(r) for r in circuit_roots(cert)]
        assert forward == [assembled.table.lines(r)
                           for r in reversed(circuit_roots(assembled))][::-1]
        # f', the first argument of axiom 0, as check_claims lays it out.
        fprime = [t.table.lines(t.table.gate(t.axioms[0][1]).args[0]) for t in (one, assembled)]
        assert fprime[0] == fprime[1] == format_circuit(
            one.table.formula(one.table.gate(roots[0]).args[0])).splitlines()
        for r, lines in zip(roots, forward):
            assert lines == format_circuit(one.table.formula(r)).splitlines()
            assert two.table.sha256(r) == circuit_sha256(two.table.formula(r))


def test_certificate_json_of_empty_lists_and_escaped_labels():
    for cert in (certificate_of((), ()),
                 certificate_of([('é "q"\n\\', boolean_axiom(X1)), ("t\x01", cvar(X2))],
                                [cconst(1), cmul(cvar(X1), cvar(X1))],
                                instance_sha256="0" * 64, shift=Fraction(3, 7),
                                builder="b\u2028")):
        text = certificate_to_json(cert)
        assert text == parent_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text


def test_certificate_of_lays_every_circuit_out_as_given():
    rng = random.Random(6607)
    circuits = [random_product_dag(rng, 9), cmul(cvar(X1), cvar(X2)), cconst(0)]
    circuits.append(shuffled_topological(rng, circuits[0], GadgetLedger(()))[0])
    cert = certificate_of([("f", c) for c in circuits], circuits)
    axioms, cofactors = laid_out(cert)
    assert [format_circuit(c) for c in cofactors] == [format_circuit(c) for c in circuits]
    assert [format_circuit(c) for _, c in axioms] == [format_circuit(c) for c in circuits]
    assert cert.claimed_metrics == tuple(measure(c) for c in circuits)


def test_certificate_from_json_requires_a_string_builder():
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    for value in (5, None, ["ipscert-refute/1"]):
        doc["builder"] = value
        with pytest.raises(ValueError, match=re.escape("field builder is not a string")):
            certificate_from_json(json.dumps(doc))
    del doc["builder"]
    assert certificate_from_json(json.dumps(doc)).builder == "ipscert-refute/1"


@pytest.mark.parametrize("keep", [0, 1, 5])
def test_certificate_from_json_requires_one_metric_per_cofactor(keep):
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    doc = json.loads(certificate_to_json(assemble_refutation(cp, ledger)))
    cofactors = len(doc["cofactors"])
    doc["metrics"] = (doc["metrics"] * 5)[:keep]
    assert keep != cofactors
    with pytest.raises(ValueError, match=re.escape(
            f"field metrics has {keep} entries for {cofactors} cofactors")):
        certificate_from_json(json.dumps(doc))

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from helpers import (boolean_axiom_as_circuit, build_corpus, certificate_of, certificate_to_json_v1,
                     ci_chain_certificate, gadget_poly, laid_out, ledger_sums, pit_corpus,
                     random_product_dag, read_sums, ref_evaluate,
                     reference_read_table, shift_certificates, shuffled_topological,
                     table_state,
                     total_degree)

from ipscert.circuit import (
    ADD,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitBuilder,
    Gate,
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
    poly_to_circuit,
    subcircuit,
)
from ipscert.gadget import address_code, gadget_sum, gadgetize, literal_gates, literal_of, t_for
from ipscert.instances import gadgeted_ry_circuit, mnc_instance
from ipscert import poly as poly_module
from ipscert import refute as refute_module
from ipscert.poly import SparsePoly, Var, boolean_axiom, format_poly, parse_poly
from ipscert.refute import (
    _product_cofactor,
    _square_cofactors,
    assemble_refutation,
    boolean_axiom_label,
    certificate_from_json,
    certificate_to_json,
    gate_square_certificates,
    is_boolean_axiom,
)
from ipscert.verify import PitConfig, check_claims, verify_exact, verify_pit

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))

# SHA-256 of /1 certificate documents (certificate_to_json_v1) as written
# before cofactors were composed by gate id in one builder: every cofactor
# must keep its gate layout.
SHUFFLED_FORMULAS_SHA256 = "77c4f7c0a60c6e62b7554c512e25555241db9d27d3327f5751e517044fe4ff10"
PRODUCT_DAGS_SHA256 = "b5d47202aedcdfa3819437a4802039b4b9b6df0c6de2c12d5d431796f1622e30"
# SHA-256 of the /1 certificate documents of 5 corpus formulas
# (build_corpus(4106, 5), normalized and transformed) at each shift, taken
# when refute derived its instance cofactor's constants by hand.
SHIFT_SHA256 = {
    "-2": "249ef9b6be16feb986c598fdfac4944c49c188d32727fdb79e13083049b41a39",
    "1": "5c8941cbd09c6e531981dfe108289a3f60b5f071b128600604163cfbd1b3f9e8",
    "1/2": "799ba65708bbf2b1a7c9527d0a3316f97d92271e411dd0eb7e6be5a533eac748",
    "-3": "f269c17407c6e4feb75262df78dc7e6e36af235ea0dd96536a88c24326f39fde",
    "2/3": "6651f93920e723aa233efaf76e0fdf983e1ca840692b5400fc1b8e93ac2a38c9",
}
# The same certificates as /2 documents (certificate_to_json), pinned when
# refute first wrote /2.
SHUFFLED_FORMULAS_V2_SHA256 = "8754a792b213dd6994664694ca1a6557fcd805315c87802cf1214cf29da871f4"
PRODUCT_DAGS_V2_SHA256 = "654ee454ec085920fc237f4b7e5b8a39272bf1d46ff95387a56ea9568ba0fd87"
SHIFT_V2_SHA256 = {
    "-2": "c0c504b39a57d9ed94af96697a0fa1b31cf7729777d5809b360bf707b3770217",
    "1": "9efd5a0cbea52e41e71acb65ebb7e02daa2d75030b49a867ba8302229b3b6161",
    "1/2": "545cfd17e78d5246338da594539f7ea2893a84d1b31e5d49c1bd3dea3a1c212c",
    "-3": "cae22737feecadf65cc3d2c257adc9ae9b8d2caf1ea4fb1607aa174a3fbd12ac",
    "2/3": "e0c31f4092c0a714cd8034834c92dae2932296ca7a2bc5a9a647b1378002a984",
}
# The /2 documents of the paper's P - 2 at n = 3 and 4, the first sizes at
# which P's gates are shared, so that the starting gates above them lay out
# as DAGs and are measured as such.
P_MINUS_2_V2_SHA256 = {
    3: "d1369e063741251b4d7e9c8b58b639407060aa6043e8eb7214477b0f7b0a76f5",
    4: "3d4eaed57392ab9979792949f27fc33b312b1b1ab779d1297790dcc5e7674104",
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


def gate_identity_holds(cprime, gid):
    b, certs = gate_square_certificates(cprime, [gid])
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
    b, certs = gate_square_certificates(c, [c.output])
    assert list(certs[c.output]) == [X1]
    assert b.expand(certs[c.output][X1]) == 1


def test_const_base_cases():
    for value in (0, 1):
        c = cconst(value)
        _, certs = gate_square_certificates(c, [c.output])
        assert certs[c.output] == {}


def test_negative_constant_rejected():
    c = cconst(-1)
    with pytest.raises(ValueError, match="outside"):
        gate_square_certificates(c, [c.output])


def test_ungadgetized_add_rejected():
    c = cadd(cvar(X1), cvar(X2))
    with pytest.raises(ValueError, match="transform"):
        gate_square_certificates(c, [c.output])


def test_product_gate_telescoping():
    # g = g0*g1: E from (g0^2-g0)*g1^2 + g0*(g1^2-g1)
    c = cmul(cvar(X1), cvar(X2))
    b, certs = gate_square_certificates(c, [c.output])
    x1, x2 = SparsePoly.variable(X1), SparsePoly.variable(X2)
    assert b.expand(certs[c.output][X1]) == x2 * x2
    assert b.expand(certs[c.output][X2]) == x1
    assert gate_identity_holds(c, c.output)


def test_gadgetized_add_full_expansion():
    c = cadd(cvar(X1), cvar(X2))
    cp, _ = gadgetize(c)
    assert gate_identity_holds(cp, cp.output)


def square_cofactors(code):
    """(builder, ids of C_bit) for A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit)."""
    b = CircuitBuilder()
    return b, _square_cofactors(b, list(literal_gates(b, code)))


def product_cofactor(a, a2):
    """(builder, v, id of C) for A * A' = C * (v^2 - v), A and A' the
    gadgets of codes a and a2."""
    b = CircuitBuilder()
    fa, fa2 = list(literal_gates(b, a)), list(literal_gates(b, a2))
    return (b, *_product_cofactor(b, dict(a), fa, dict(a2), fa2))


def test_address_square_trivial_gadget():
    b, cofs = square_cofactors(address_code(0, yvars(0)))
    assert b.expand(cofs[0]) == 1


def test_address_square_two_bit_gadget():
    g = address_code(0, yvars(1))
    b, cofs = square_cofactors(g)
    a = gadget_poly(g)
    rhs = SparsePoly.zero()
    for (v, _), cof in zip(g, cofs):
        rhs = rhs + b.expand(cof) * boolean_axiom(v)
    assert a * a - a == rhs


def test_address_square_random_points_and_sizes():
    rng = random.Random(41)
    for n in (1, 2, 3, 5, 8):
        r = n + 1
        for j in range(n + 1):
            g = address_code(j, yvars(t_for(n)))
            b, cofs = square_cofactors(g)
            a = gadget_poly(g)
            rhs = SparsePoly.zero()
            for (v, _), cof in zip(g, cofs):
                assert b.metrics([cof])[0].size <= 6 * r
                rhs = rhs + b.expand(cof) * boolean_axiom(v)
            lhs = a * a - a
            assert lhs == rhs
            for _ in range(100 // (n + 1)):
                point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for v, _ in g}
                assert (ref_evaluate(dict(lhs.items()), point)
                        == ref_evaluate(dict(rhs.items()), point))


def test_address_product_example():
    vs = yvars(1)
    a = address_code(0, vs)
    a2 = address_code(1, vs)
    b, v, c = product_cofactor(a, a2)
    assert v == vs[0]
    y1 = SparsePoly.variable(vs[1])
    assert b.expand(c) == -(y1 * y1)
    assert gadget_poly(a) * gadget_poly(a2) == b.expand(c) * boolean_axiom(v)


def test_address_product_equal_addresses_rejected():
    a = address_code(1, yvars(1))
    elsewhere = address_code(0, yvars(1, tag=1))
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
                a = address_code(j, vs)
                a2 = address_code(j2, vs)
                b, v, c = product_cofactor(a, a2)
                assert vs.index(v) < len(vs) - 1
                assert b.metrics([c])[0].size <= 6 * (n + 1)
                assert gadget_poly(a) * gadget_poly(a2) == b.expand(c) * boolean_axiom(v)


def test_assembly_hand_example_leaf():
    c = cvar(X1)
    cert = assemble_refutation(c)
    x1 = SparsePoly.variable(X1)
    assert expand(cert.table.formula(cert.cofactors[0])) == -(x1 + 1) / 2
    assert expand(cert.table.formula(cert.cofactors[1])) == Fraction(1, 2)
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_constant_instance():
    cert = assemble_refutation(cconst(1))
    assert len(cert.axioms) == 1
    assert expand(cert.table.formula(cert.cofactors[0])) == -1
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_product_instance():
    cert = assemble_refutation(cmul(cvar(X1), cvar(X2)))
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_rejects_satisfiable_shift():
    for s in (0, -1):
        with pytest.raises(ValueError, match="satisfiable"):
            assemble_refutation(cvar(X1), shift=Fraction(s))


def test_assembly_alternate_shift():
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    cert = assemble_refutation(cp, shift=Fraction(1))
    assert verify_exact(cert).verdict == "verified-exact"


def test_assembly_rejects_bad_leaf():
    c = cadd(cvar(X1), cconst(2))
    cp, _ = gadgetize(c)
    with pytest.raises(ValueError, match="outside"):
        assemble_refutation(cp)


# ---------------------------------------------------------------------------
# Gadget sums read off the circuit.

def test_gadget_sums_read_off_the_circuit_are_the_ledger(transformed01):
    # Gate, control variables in bit order, and per address the child and
    # the summand: on the 200-formula corpus, the certify-pit corpus at seed
    # 101, x1 + x1 (whose child x1 has a literal in every summand), fan-in-1
    # ADDs over a product and over a variable, and each of them renumbered
    # out of post-order.
    rng = random.Random(3401)
    circuits = [cn for cn, _, _ in transformed01] + pit_corpus(101, 150)
    circuits += [cadd(cvar(X1), cvar(X1)), normalize_layered(cmul(cvar(X1), cvar(X2))),
                 Circuit([Gate(VAR, var=X1), Gate(ADD, args=(0,))], 1)]
    assert [(g.op, g.args) for g in circuits[-2].gates[2:]] == [(MUL, (0, 1)), (ADD, (2,))]
    sums = 0
    for c in circuits:
        pair = gadgetize(c)
        for cp, ledger in (pair, shuffled_topological(rng, *pair)):
            assert read_sums(cp) == ledger_sums(ledger)
            sums += len(ledger)
    assert sums > 2000


def test_an_add_with_a_repeated_code_or_no_common_literal_is_no_gadget_sum():
    b = CircuitBuilder()
    y = Var("y", 9, 0)
    repeated = b.add([b.mul([b.var(X2), b.var(y)]), b.mul([b.var(X3), b.var(y)])])
    uncommon = b.add([b.mul([b.var(X2), b.var(y)]), b.mul([b.var(X3), b.complement(y)]),
                      b.mul([b.var(X1), b.var(X3)])])
    for c in (b.subcircuit(repeated), b.subcircuit(uncommon)):
        assert gadget_sum(c, c.output) is None
        with pytest.raises(ValueError, match="addition gate without a gadget"):
            gate_square_certificates(c, [c.output])


@pytest.mark.parametrize("n", [1, 2])
def test_the_papers_instance_p_minus_2_is_refuted(n):
    # The gadgeted interval polynomial P, with no transform: its sums are
    # read off as they are built, a bare 1 - w_leaf summand with no child
    # and children that are products of gates.  The instance cofactor is
    # -(1 + P)/2, the paper's functional refutation of 2 - P, negated.
    p, _ = gadgeted_ry_circuit(n)
    adds = [i for i, g in enumerate(p.gates) if g.op == ADD]
    assert all(gadget_sum(p, i) or literal_of(p, i) for i in adds)
    cert = certificate_from_json(certificate_to_json(assemble_refutation(p, shift=Fraction(-2))))
    assert check_claims(cert, p) is None
    assert verify_exact(cert).verdict == "verified-exact"
    assert verify_pit(cert, PitConfig(trials=20, seed=n)).verdict == "verified-probabilistic"
    assert cert.table.expand(cert.cofactors[0]) == -expand(mnc_instance(n).refutation)
    # One Boolean cofactor doubled, every claim measured again, is refuted.
    b = cert.table
    cofactors = list(cert.cofactors)
    cofactors[1] = b.mul([b.const(2), cofactors[1]])
    doubled = certificate_from_json(certificate_to_json(dataclasses.replace(
        cert, cofactors=tuple(cofactors), claimed_metrics=tuple(b.metrics(cofactors)))))
    assert check_claims(doubled, p) is None
    assert verify_exact(doubled).verdict == "refuted"
    assert verify_pit(doubled, PitConfig(trials=20, seed=n)).verdict == "refuted"


@pytest.mark.parametrize("n", [3, 4])
def test_the_papers_dag_certificates_are_pinned(n):
    p, _ = gadgeted_ry_circuit(n)
    text = certificate_to_json(assemble_refutation(p, shift=Fraction(-2)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == P_MINUS_2_V2_SHA256[n]
    cert = certificate_from_json(text)
    assert (cert.total_size, cert.total_depth) == {3: (5689, 12), 4: (30651, 17)}[n]
    assert check_claims(cert, p) is None
    assert verify_pit(cert, PitConfig(trials=20, seed=n)).verdict == "verified-probabilistic"


def test_instance_cofactor_degree():
    for c in build_corpus(771, 10):
        cp, _ = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp)
        fprime = expand(cp)
        assert total_degree(expand(cert.table.formula(cert.cofactors[0]))) <= total_degree(fprime) + 1


def test_gate_identities_and_ledger_bounds_small_corpus():
    for c in build_corpus(772, 15):
        cn = normalize_layered(c)
        if len(cn.variables()) > 8:
            continue
        cp, _ = gadgetize(cn)
        gids = certifiable_gate_ids(cp)
        b, certs = gate_square_certificates(cp, gids)
        for gid in gids:
            assert identity_holds(cp, gid, b, certs[gid])
            mg = measure(subcircuit(cp, gid))
            for cof in certs[gid].values():
                m = b.metrics([cof])[0]
                assert m.size <= 100 * mg.size ** 4
                assert m.depth <= 2 * mg.depth


def test_assembled_certificates_on_small_corpus():
    for c in build_corpus(773, 10):
        cp, _ = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp)
        assert verify_exact(cert).verdict == "verified-exact"
        m = measure(cp)
        assert cert.total_size <= 100 * max(m.size, 1) ** 5
        assert cert.total_depth <= 2 * m.depth + 2
        assert cert.claimed_metrics == tuple(measure(cf) for cf in laid_out(cert)[1])


def test_layout_of_reparsed_shuffled_formulas_is_pinned():
    # Gate lines out of post-order: each formula gate brings its subcircuit in id order.
    rng = random.Random(4104)
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    for c in build_corpus(4104, 12):
        cp, _ = gadgetize(normalize_layered(c))
        shuffled = shuffled_topological(rng, cp)[0]
        text = format_circuit(shuffled)
        assert text != format_circuit(cp)
        cert = assemble_refutation(parse_circuit(text))
        v1.update(certificate_to_json_v1(cert).encode())
        v2.update(certificate_to_json(cert).encode())
    assert v1.hexdigest() == SHUFFLED_FORMULAS_SHA256
    assert v2.hexdigest() == SHUFFLED_FORMULAS_V2_SHA256


def test_layout_of_product_dags_is_pinned():
    # Products whose gates share children: a shared subcircuit is copied per use.
    rng = random.Random(4105)
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    for _ in range(10):
        dag = random_product_dag(rng, rng.randint(6, 11))
        assert not dag.is_formula
        cert = assemble_refutation(dag)
        v1.update(certificate_to_json_v1(cert).encode())
        v2.update(certificate_to_json(cert).encode())
    assert v1.hexdigest() == PRODUCT_DAGS_SHA256
    assert v2.hexdigest() == PRODUCT_DAGS_V2_SHA256


@pytest.mark.parametrize("shift", sorted(SHIFT_SHA256))
def test_certificates_at_each_shift_are_pinned(shift):
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    for c in build_corpus(4106, 5):
        cp, _ = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp, shift=Fraction(shift))
        v1.update(certificate_to_json_v1(cert).encode())
        v2.update(certificate_to_json(cert).encode())
    assert v1.hexdigest() == SHIFT_SHA256[shift]
    assert v2.hexdigest() == SHIFT_V2_SHA256[shift]


def test_certificate_json_round_trip():
    cp, _ = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    cert = assemble_refutation(cp)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_exact(again).verdict == "verified-exact"
    assert again.instance_sha256 == cert.instance_sha256


WRITERS = pytest.mark.parametrize("write", [certificate_to_json, certificate_to_json_v1],
                                  ids=["v2", "v1"])


def small_doc(write=certificate_to_json) -> dict:
    """The document of x1 + x2 x3, transformed and refuted, as write writes it."""
    cp, _ = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    return json.loads(write(assemble_refutation(cp)))


@WRITERS
@pytest.mark.parametrize("path", [
    ("axioms",), ("cofactors",), ("metrics",), ("instance_sha256",), ("shift",),
    ("axioms", 0, "label"), ("axioms", 1, "label"), ("axioms", 1, "poly"),
    ("metrics", 0, "size"),
])
def test_certificate_from_json_names_a_missing_field(path, write):
    doc = small_doc(write)
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
    doc = small_doc(certificate_to_json_v1)
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
@WRITERS
def test_certificate_from_json_names_a_wrongly_typed_field(path, value, name, write):
    doc = small_doc(write)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(f"field {name} is not")):
        certificate_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# One gate table from refute to verify.

def parent_json(cert) -> str:
    """The /1 document as json.dumps writes it from formula circuits."""
    axioms, cofactors = laid_out(cert)
    doc = {
        "format": "nullstellensatz-cert/1",
        "builder": cert.builder,
        "shift": f"{cert.shift.numerator}/{cert.shift.denominator}",
        "instance_sha256": cert.instance_sha256,
        "axioms": [{"label": label, "poly": format_poly(expand(ax))}
                   if k in cert.written_as_poly
                   else {"label": label, "circuit": format_circuit(ax).splitlines()}
                   for k, (label, ax) in enumerate(axioms)],
        "cofactors": [format_circuit(cf).splitlines() for cf in cofactors],
        "metrics": [{"size": m.size, "depth": m.depth} for m in cert.claimed_metrics],
    }
    return json.dumps(doc, indent=2) + "\n"


def pinned_certificates():
    """The certificates of the two pinned layout tests above."""
    rng = random.Random(4104)
    for c in build_corpus(4104, 12):
        cp, _ = gadgetize(normalize_layered(c))
        shuffled = shuffled_topological(rng, cp)[0]
        yield assemble_refutation(parse_circuit(format_circuit(shuffled)))
    rng = random.Random(4105)
    for _ in range(10):
        yield assemble_refutation(random_product_dag(rng, rng.randint(6, 11)))


def test_certificate_json_is_json_dumps_and_reads_back_byte_for_byte(transformed01):
    # /2 and /1 of one certificate read back to the same roots: every root
    # lays out as the /1 text, measures as claimed, and /2 writes again
    # byte for byte.
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01]
    certs += list(pinned_certificates())
    for cert in certs:
        text, old = certificate_to_json(cert), certificate_to_json_v1(cert)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert old == parent_json(cert)
        for again in (certificate_from_json(text), certificate_from_json(old)):
            assert certificate_to_json_v1(again) == old
            assert again.instance_sha256 == hashlib.sha256(
                format_circuit(again.table.formula(again.axioms[0][1])).encode()).hexdigest()
        again = certificate_from_json(text)
        assert certificate_to_json(again) == text
        for table, roots in ((cert.table, cert.cofactors), (again.table, again.cofactors)):
            assert tuple(table.metrics(roots)) == cert.claimed_metrics == tuple(
                measure(table.formula(r)) for r in roots)


def test_every_written_certificate_is_hash_consed_when_read_back(transformed01):
    # No /1 text the writer writes reaches the kept-text path of read(): the
    # table holds no starting gate, and each of its gates has one key.  A /2
    # table is read as written: its starting gates, then one gate per key.
    # Either way, the 7 gates poly lays out per Boolean axiom come last.
    for _, cp, _ in transformed01:
        cert = assemble_refutation(cp)
        read = certificate_from_json(certificate_to_json_v1(cert))
        table, written = read.table, len(read.table._gates) - 7 * (len(read.axioms) - 1)
        assert not table._starting
        assert sorted(table._shared.values()) == list(range(written))
        doc = json.loads(certificate_to_json(cert))
        read = certificate_from_json(json.dumps(doc))
        table = read.table
        assert doc["starting"] == len(cp.gates)
        assert len(table._gates) == len(doc["table"]) + 7 * (len(read.axioms) - 1)
        assert table._starting == set(range(doc["starting"]))
        assert sorted(table._shared.values()) == list(range(doc["starting"], len(doc["table"])))


def circuit_roots(cert) -> list:
    """The root ids of the certificate: axioms, then cofactors."""
    return [r for _, r in cert.axioms] + list(cert.cofactors)


def test_tables_keep_their_layouts_across_calls_in_any_order(transformed01):
    # The text of a root must not depend on which roots were laid out before
    # it, in a table read from /2 or /1 text or assembled.
    def certs():
        yield from (assemble_refutation(cp) for _, cp, _ in transformed01[::4])
        yield from pinned_certificates()

    for cert, assembled in zip(certs(), certs()):
        for write in (certificate_to_json, certificate_to_json_v1):
            text = write(cert)
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
            fprime = [t.table.lines(t.table.gate(t.axioms[0][1]).args[0])
                      for t in (one, assembled)]
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
                                builder="b\u2028", written_as_poly={0})):
        text, old = certificate_to_json(cert), certificate_to_json_v1(cert)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert old == parent_json(cert)
        for again in (certificate_from_json(text), certificate_from_json(old)):
            assert certificate_to_json_v1(again) == old
        assert certificate_to_json(certificate_from_json(text)) == text


def test_certificate_of_lays_every_circuit_out_as_given():
    rng = random.Random(6607)
    circuits = [random_product_dag(rng, 9), cmul(cvar(X1), cvar(X2)), cconst(0)]
    circuits.append(shuffled_topological(rng, circuits[0])[0])
    cert = certificate_of([("f", c) for c in circuits], circuits)
    axioms, cofactors = laid_out(cert)
    assert [format_circuit(c) for c in cofactors] == [format_circuit(c) for c in circuits]
    assert [format_circuit(c) for _, c in axioms] == [format_circuit(c) for c in circuits]
    assert cert.claimed_metrics == tuple(measure(c) for c in circuits)


@WRITERS
def test_certificate_from_json_requires_a_string_builder(write):
    doc = small_doc(write)
    for value in (5, None, ["ipscert-refute/1"]):
        doc["builder"] = value
        with pytest.raises(ValueError, match=re.escape("field builder is not a string")):
            certificate_from_json(json.dumps(doc))
    del doc["builder"]
    assert certificate_from_json(json.dumps(doc)).builder == "ipscert-refute/1"


@pytest.mark.parametrize("keep", [0, 1, 5])
@WRITERS
def test_certificate_from_json_requires_one_metric_per_cofactor(keep, write):
    doc = small_doc(write)
    cofactors = len(doc["cofactors"])
    doc["metrics"] = (doc["metrics"] * 5)[:keep]
    assert keep != cofactors
    with pytest.raises(ValueError, match=re.escape(
            f"field metrics has {keep} entries for {cofactors} cofactors")):
        certificate_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# nullstellensatz-cert/2: one table, read back alike, and hostile tables.

def test_v2_and_v1_of_one_certificate_read_back_and_verify_alike(transformed01):
    certs = list(pinned_certificates()) + list(shift_certificates())
    certs += [assemble_refutation(cp) for _, cp, _ in transformed01[::20]]
    cfg = PitConfig(trials=5, seed=11)
    for cert in certs:
        two, one = (certificate_from_json(write(cert))
                    for write in (certificate_to_json, certificate_to_json_v1))
        for a, b in zip(circuit_roots(two), circuit_roots(one)):
            assert two.table.lines(a) == one.table.lines(b)
            assert two.table.metrics([a]) == one.table.metrics([b])
            assert two.table.sha256(a) == one.table.sha256(b)
        assert check_claims(two) is None and check_claims(one) is None
        assert verify_exact(two) == verify_exact(one)
        assert verify_pit(two, cfg) == verify_pit(one, cfg)


# Other spellings of the Boolean axiom of x1, which the writer writes as
# "-1/1 * x1 + 1/1 * x1^2": each is read through parse_poly.
RESPELLED_AXIOMS = {
    "reordered": "1/1 * x1^2 + -1/1 * x1",
    "integers": "-1 * x1 + 1 * x1^2",
    "split": "-1/1 * x1 + 1/3 * x1^2 + 2/3 * x1^2",
}


def test_refutes_own_documents_are_read_without_parse_poly(transformed01, monkeypatch):
    # Every Boolean axiom refute writes is the written form of v^2 - v for
    # the variable its label names, which the reader lays in directly.
    calls = []

    def counted(text):
        calls.append(text)
        return parse_poly(text)

    monkeypatch.setattr(refute_module, "parse_poly", counted)
    for _, cp, _ in transformed01:
        cert = assemble_refutation(cp)
        for write in (certificate_to_json, certificate_to_json_v1):
            certificate_from_json(write(cert))
    assert calls == []
    doc = small_doc()
    doc["axioms"][1]["poly"] = RESPELLED_AXIOMS["reordered"]
    certificate_from_json(json.dumps(doc))
    assert calls == [RESPELLED_AXIOMS["reordered"]]


def test_a_boolean_axiom_label_gives_the_text_format_poly_writes():
    for v in (X1, Var("y", 3, 0), Var("w", 1, 2, "top"), Var("fresh", 7)):
        assert boolean_axiom_label(f"{v.name}^2-{v.name}") == (v, format_poly(boolean_axiom(v)))
    for label in ("q7^2-q7", "x 1^2-x 1", "x1 ^2-x1", "", "x1", "x1^2-x2", "x1^2-", "x1^2-x1 "):
        assert boolean_axiom_label(label) == (None, None)


@pytest.mark.parametrize("text", RESPELLED_AXIOMS.values(), ids=RESPELLED_AXIOMS.keys())
@WRITERS
def test_a_respelled_boolean_axiom_reads_as_the_written_text(text, write):
    doc = small_doc(write)
    assert doc["axioms"][1] == {"label": "x1^2-x1", "poly": "-1/1 * x1 + 1/1 * x1^2"}
    want = certificate_from_json(json.dumps(doc))
    doc["axioms"][1]["poly"] = text
    got = certificate_from_json(json.dumps(doc))
    assert got.axioms == want.axioms
    assert is_boolean_axiom(got.table, got.axioms[1][1], X1)
    assert check_claims(got) is None and check_claims(want) is None
    assert verify_exact(got) == verify_exact(want)
    cfg = PitConfig(trials=5, seed=7)
    assert verify_pit(got, cfg) == verify_pit(want, cfg)
    assert write(got) == write(want)


@WRITERS
def test_a_boolean_axiom_written_as_its_circuit_differs_only_in_kind(write):
    # The circuit lays out exactly as the poly text it replaces; only
    # written_as_poly tells check_claims that the document wrote a circuit.
    doc = small_doc(write)
    want = certificate_from_json(json.dumps(doc))
    boolean_axiom_as_circuit(doc, 1, X1)
    got = certificate_from_json(json.dumps(doc))
    assert got.table.lines(got.axioms[1][1]) == want.table.lines(want.axioms[1][1])
    assert is_boolean_axiom(got.table, got.axioms[1][1], X1)
    assert got.written_as_poly == want.written_as_poly - {1}
    assert check_claims(got).detail == "axioms[1].poly: not the Boolean axiom x1^2-x1"


@WRITERS
def test_the_reader_gives_boolean_axiom_variables_their_slots_in_axiom_order(write):
    # A written Boolean axiom is laid in without a polynomial, yet its
    # variable takes its slot as the axiom is read, in axiom order, so that
    # verify_exact's integer work does not depend on the order of the gates.
    cert = ci_chain_certificate()
    text = write(cert)
    with poly_module.fresh_slots():
        got = certificate_from_json(text)
        slots = list(poly_module._CURRENT_SLOTS.get().vars)
    assert len(slots) == len(got.axioms) - 1 > 5
    assert slots == [boolean_axiom_label(label)[0] for label, _ in got.axioms[1:]]


def test_is_boolean_axiom_reads_the_layout_of_v2_minus_v_only():
    b = CircuitBuilder()
    roots = {v: b.poly(boolean_axiom(v)) for v in (X1, X2)}
    read = b.read(format_circuit(poly_to_circuit(boolean_axiom(X1))).splitlines())
    assert is_boolean_axiom(b, roots[X1], X1) and is_boolean_axiom(b, read, X1)
    assert not is_boolean_axiom(b, roots[X2], X1)
    x1, x2 = SparsePoly.variable(X1), SparsePoly.variable(X2)
    for p in (boolean_axiom(X1) * 2, boolean_axiom(X1) + 1, x1 * x1, x1 * x1 - x2, x1 - x1):
        assert not is_boolean_axiom(b, b.poly(p), X1)
    swapped = b.add([b.mul([b.var(X1), b.var(X1)]), b.mul([b.const(-1), b.var(X1)])])
    assert not is_boolean_axiom(b, swapped, X1)


def _forged_poly(doc):
    doc["axioms"][1]["poly"] = "1/1"


@pytest.mark.parametrize("edit", [None, _forged_poly,
                                  lambda doc: boolean_axiom_as_circuit(doc, 1, X1)],
                         ids=["own", "forged-poly", "circuit"])
@WRITERS
def test_check_claims_and_the_writers_leave_the_table_as_they_find_it(edit, write):
    doc = small_doc(write)
    if edit:
        edit(doc)
    cert = certificate_from_json(json.dumps(doc))
    gates, starting, shared = table_state(cert.table)
    report = check_claims(cert)
    assert (report is None) == (edit is None)
    certificate_to_json(cert), certificate_to_json_v1(cert)
    assert table_state(cert.table) == (gates, set(starting), dict(shared))


def test_a_poly_text_is_read_up_to_32_units_of_exponent_per_character():
    # poly lays one VAR gate per unit of exponent; a text over the bound is
    # refused before any gate is laid (the CLI's test times a huge one).
    doc = small_doc()
    doc["axioms"][1]["poly"] = "1/1 * x1^384"     # 32 * 12: laid in, then no Boolean axiom
    assert check_claims(certificate_from_json(json.dumps(doc))).detail == \
        "axioms[1].poly: not the Boolean axiom x1^2-x1"
    doc["axioms"][1]["poly"] = "1/1 * x1^385"
    with pytest.raises(ValueError, match=r"^certificate document: field axioms\[1\]\.poly: "
                       r"its exponents sum to over 32 per character of the text$"):
        certificate_from_json(json.dumps(doc))


def _set(*path, value):
    """The edit that sets doc[path[0]]...[path[-1]] to value, or to
    value(doc) if it is callable."""
    def edit(doc):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value(doc) if callable(value) else value
    return edit


ROOT_NOT_ONE_LINE = "not one line OUTPUT g<k>"


@pytest.mark.parametrize("edit, message", [
    (_set("cofactors", 1, value=["OUTPUT g0", "OUTPUT g1"]),
     "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("cofactors", 1, value=["g0 = VAR x1", "OUTPUT g0"]),
     "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("cofactors", 1, value=[]), "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("cofactors", 1, value=[5]), "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("cofactors", 1, value=["OUTPUT"]), "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("cofactors", 1, value=["INPUT g0"]), "field cofactors[1]: " + ROOT_NOT_ONE_LINE),
    (_set("axioms", 0, "circuit", value=["OUTPUT g0 g1"]),
     "field axioms[0].circuit: " + ROOT_NOT_ONE_LINE),
    (_set("axioms", 0, "circuit", value=["OUTPUT g99999"]),
     "field axioms[0].circuit: 'g99999' is not a gate of the table"),
    (_set("cofactors", 0, value=lambda doc: [f"OUTPUT g{len(doc['table'])}"]),
     "field cofactors[0]: 'g{n}' is not a gate of the table"),
    (_set("starting", value=-1), "field starting: -1 is not between 0 and the table's {n} gates"),
    (_set("starting", value=lambda doc: len(doc["table"]) + 1),
     "field starting: {m} is not between 0 and the table's {n} gates"),
    (_set("starting", value=True), "field starting is not an integer"),
    (_set("starting", value="3"), "field starting is not an integer"),
    (_set("starting", value=None), "field starting is not an integer"),
    (_set("table", 2, value="g2 = ADD g0 g5"),
     "field table: line 3: reference to undefined gate 'g5'"),
    (_set("table", 2, value="g2 = MUL g2 g1"),
     "field table: line 3: reference to undefined gate 'g2'"),
    (lambda doc: doc["table"].insert(3, "OUTPUT g2"),
     "field table: line 4: OUTPUT line in a gate table"),
    (lambda doc: doc["table"].append("OUTPUT g0"),
     "field table: line {m}: OUTPUT line in a gate table"),
    (_set("table", 0, value="g0 = CONST 1/0"), "field table: line 1: zero denominator in '1/0'"),
    (_set("table", 1, value="g0 = VAR x2"), "field table: line 2: gate g0 defined twice"),
    (_set("table", value=5), "field table is not a list"),
    (_set("table", value=[5]), "field table: not a list of strings"),
    (lambda doc: doc.pop("table"), "missing field table"),
    (lambda doc: doc.pop("starting"), "missing field starting"),
])
def test_a_hostile_v2_document_is_a_value_error_naming_its_field(edit, message):
    doc = small_doc()
    n = len(doc["table"])
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(
            "certificate document: " + message.format(n=n, m=n + 1))):
        certificate_from_json(json.dumps(doc))


def test_a_v2_table_written_with_a_gate_twice_holds_it_once():
    doc = small_doc()
    gates = len(certificate_from_json(json.dumps(doc)).table._gates)
    table = doc["table"]
    n = len(table)
    twice = table[-1].split(" = ")[1]
    table.append(f"g{n} = {twice}")
    doc["cofactors"][0] = [f"OUTPUT g{n}"]
    cert = certificate_from_json(json.dumps(doc))
    assert len(cert.table._gates) == gates
    assert cert.cofactors[0] == cert.table._shared[cert.table.gate(n - 1).op,
                                                    cert.table.gate(n - 1).args]


def _mutants(rng: random.Random, doc: dict, count: int):
    """count seeded single edits of a /2 document: table lines dropped,
    repeated, swapped or with a token or character replaced; a root, the
    starting count or a metric moved; a field deleted or given another type."""
    tokens = ["g0", "g1", "g999", "ADD", "MUL", "VAR", "CONST", "x1", "y_1_0", "1/0", "-1/2",
              "OUTPUT", "=", "", "#"]
    values = [None, True, 0, -1, 7, 2**70, "", "x", [], ["OUTPUT g0"], [5], {}, 1.5]
    for _ in range(count):
        d = json.loads(json.dumps(doc))
        table, k = d["table"], rng.randrange(6)
        if k == 0:
            i, j = rng.randrange(len(table)), rng.randrange(len(table))
            table[i], table[j] = table[j], table[i]
        elif k == 1:
            i = rng.randrange(len(table))
            rng.choice([lambda: table.pop(i), lambda: table.insert(i, table[i])])()
        elif k == 2:
            i = rng.randrange(len(table))
            words = table[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(tokens)
            table[i] = " ".join(words)
        elif k == 3:
            i = rng.randrange(len(table))
            c = rng.randrange(len(table[i]))
            table[i] = table[i][:c] + rng.choice("g0 9=-/#\n\u0661") + table[i][c + 1:]
        elif k == 4:
            root = rng.choice(d["cofactors"] + [d["axioms"][0]["circuit"]])
            at = rng.randrange(-1, len(table) + 2)
            rng.choice([lambda: root.__setitem__(0, f"OUTPUT g{at}"),
                        lambda: d.__setitem__("starting", d["starting"] + rng.choice((-1, 1))),
                        lambda: d["metrics"][0].__setitem__("depth", at)])()
        else:
            holder = rng.choice([d, d["axioms"][0], d["axioms"][1], d["metrics"][0]])
            key = rng.choice(sorted(holder))
            if rng.random() < 0.3:
                del holder[key]
            else:
                holder[key] = rng.choice(values)
        yield json.dumps(d)


def read_table_by(b: CircuitBuilder, lines: list, starting: int, reference: bool):
    """The table state of b once it read lines by read_table or, reference,
    by the reference reader, and the {token: id} map it returned; or the
    message of the ValueError it raised."""
    try:
        names = (reference_read_table(b, lines, starting) if reference
                 else b.read_table(lines, starting))
    except ValueError as exc:
        return str(exc)
    return table_state(b) + (names,)


def respellings(lines: list, starting: int) -> list:
    """Valid texts of the table lines that the writer does not write: a
    starting line and the last line with " = " widened, and the last CONST
    line with a trailing space."""
    const = max(k for k, line in enumerate(lines) if " = CONST " in line)
    return [lines[:k] + [line] + lines[k + 1:]
            for k, line in ((starting // 2, lines[starting // 2].replace(" = ", " =  ", 1)),
                            (len(lines) - 1, lines[-1].replace(" = ", " =  ", 1)),
                            (const, lines[const] + " "))]


def test_read_table_builds_the_table_of_the_reference_reader(transformed01):
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01[::10]]
    certs += [ci_chain_certificate()] + list(shift_certificates())
    before = json.loads(certificate_to_json(certs[-1]))
    for cert in certs:
        doc = json.loads(certificate_to_json(cert))
        lines, starting = doc["table"], doc["starting"]
        want = read_table_by(CircuitBuilder(), lines, starting, reference=True)
        assert read_table_by(CircuitBuilder(), lines, starting, reference=False) == want
        # A respelled line is read by the general rules, and only that line;
        # the table is the same, also one that already holds another
        # document's gates.
        for respelled in respellings(lines, starting):
            assert read_table_by(CircuitBuilder(), respelled, starting, reference=False) == want
            tables = []
            for reference in (False, True):
                b = CircuitBuilder()
                b.read_table(before["table"], before["starting"])
                tables.append(read_table_by(b, respelled, starting, reference))
            assert tables[0] == tables[1]
        before = doc


def read_both_ways(monkeypatch, text: str) -> tuple:
    """certificate_from_json(text) as it reads, then with read_table replaced
    by the reference reader: each a certificate, or the message of the
    ValueError it raised, with the {token: id} maps its read_table returned."""
    out = []
    for read in (CircuitBuilder.read_table, reference_read_table):
        names: list = []

        def read_table(b: CircuitBuilder, lines: list, starting: int) -> dict:
            names.append(read(b, lines, starting))
            return names[-1]

        with monkeypatch.context() as m:
            m.setattr(CircuitBuilder, "read_table", read_table)
            try:
                out.append((certificate_from_json(text), names))
            except ValueError as exc:
                out.append((str(exc), names))
    return tuple(out)


def test_seeded_mutants_of_v2_documents_raise_only_value_errors(monkeypatch):
    # Every refusal, by the reader or by either verifier, is a ValueError:
    # never a KeyError, IndexError or TypeError.  read_table and the
    # reference reader read every mutant alike: the same table and
    # {token: id} map, or the same message.
    rng = random.Random(2027)
    docs = [small_doc()]
    for c in build_corpus(2027, 3):
        cp, _ = gadgetize(normalize_layered(c))
        docs.append(json.loads(certificate_to_json(assemble_refutation(cp))))
    cfg = PitConfig(trials=2, seed=3)
    refused = verified = 0
    for doc in docs:
        for text in _mutants(rng, doc, 150):
            (cert, names), (reference, reference_names) = read_both_ways(monkeypatch, text)
            assert names == reference_names
            if isinstance(cert, str):
                assert reference == cert
                refused += 1
                continue
            assert table_state(reference.table) == table_state(cert.table)
            assert (reference.axioms, reference.cofactors) == (cert.axioms, cert.cofactors)
            try:
                if check_claims(cert) is None:
                    verified += verify_pit(cert, cfg).verdict == "verified-probabilistic"
                    verify_exact(cert)
            except ValueError:
                refused += 1
    assert refused > 100 and verified > 0

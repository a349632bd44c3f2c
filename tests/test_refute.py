import json
import random
import re
from fractions import Fraction

import pytest

from helpers import build_corpus

from ipscert.circuit import (
    CONST,
    MUL,
    cadd,
    cconst,
    cmul,
    cvar,
    expand,
    measure,
    normalize_layered,
    subcircuit,
)
from ipscert.gadget import AddressingGadget, GadgetLedger, gadgetize
from ipscert.poly import SparsePoly, Var, boolean_axiom
from ipscert.refute import (
    address_product_decomposition,
    address_square_decomposition,
    assemble_refutation,
    certificate_from_json,
    certificate_to_json,
    gate_square_certificate,
)
from ipscert.verify import verify_exact

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))


def yvars(t, tag=0):
    return [Var("y", tag, b) for b in range(t + 1)]


def gate_identity_holds(cprime, gid, ledger):
    cert = gate_square_certificate(cprime, gid, ledger)
    g = expand(subcircuit(cprime, gid))
    rhs = SparsePoly.zero()
    for v, circ in cert.items():
        rhs = rhs + expand(circ) * boolean_axiom(v)
    return g * g - g == rhs


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
    cert = gate_square_certificate(c, c.output, GadgetLedger(()))
    assert list(cert.F) == []
    assert list(cert.E) == [X1]
    assert expand(cert.E[X1]) == 1


def test_const_base_cases():
    for value in (0, 1):
        c = cconst(value)
        cert = gate_square_certificate(c, c.output, GadgetLedger(()))
        assert not cert.E and not cert.F


def test_negative_constant_rejected():
    c = cconst(-1)
    with pytest.raises(ValueError, match="outside"):
        gate_square_certificate(c, c.output, GadgetLedger(()))


def test_ungadgetized_add_rejected():
    c = cadd(cvar(X1), cvar(X2))
    with pytest.raises(ValueError, match="transform"):
        gate_square_certificate(c, c.output, GadgetLedger(()))


def test_product_gate_telescoping():
    # g = g0*g1: E from (g0^2-g0)*g1^2 + g0*(g1^2-g1)
    c = cmul(cvar(X1), cvar(X2))
    cert = gate_square_certificate(c, c.output, GadgetLedger(()))
    x1, x2 = SparsePoly.variable(X1), SparsePoly.variable(X2)
    assert expand(cert.E[X1]) == x2 * x2
    assert expand(cert.E[X2]) == x1
    assert gate_identity_holds(c, c.output, GadgetLedger(()))


def test_gadgetized_add_full_expansion():
    c = cadd(cvar(X1), cvar(X2))
    cp, ledger = gadgetize(c)
    assert gate_identity_holds(cp, cp.output, ledger)


def test_address_square_trivial_gadget():
    g = AddressingGadget.build(0, 0, yvars(0))
    cofs = address_square_decomposition(g)
    assert expand(cofs[0]) == 1


def test_address_square_two_bit_gadget():
    g = AddressingGadget.build(1, 0, yvars(1))
    cofs = address_square_decomposition(g)
    a = g.polynomial()
    rhs = SparsePoly.zero()
    for bit, circ in cofs.items():
        rhs = rhs + expand(circ) * boolean_axiom(g.vars[bit])
    assert a * a - a == rhs


def test_address_square_random_points_and_sizes():
    rng = random.Random(41)
    for n in (1, 2, 3, 5, 8):
        r = n + 1
        for j in range(n + 1):
            g = AddressingGadget.build(n, j, yvars(t_of(n)))
            cofs = address_square_decomposition(g)
            a = g.polynomial()
            rhs = SparsePoly.zero()
            for bit, circ in cofs.items():
                assert measure(circ).size <= 6 * r
                rhs = rhs + expand(circ) * boolean_axiom(g.vars[bit])
            lhs = a * a - a
            assert lhs == rhs
            for _ in range(100 // (n + 1)):
                point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for v in g.vars}
                assert lhs.evaluate(point) == rhs.evaluate(point)


def t_of(n):
    from ipscert.gadget import t_for

    return t_for(n)


def test_address_product_example():
    vs = yvars(1)
    a = AddressingGadget.build(1, 0, vs)
    b = AddressingGadget.build(1, 1, vs)
    j, c = address_product_decomposition(a, b)
    assert j == 0
    y1 = SparsePoly.variable(vs[1])
    assert expand(c) == -(y1 * y1)
    assert a.polynomial() * b.polynomial() == expand(c) * boolean_axiom(vs[j])


def test_address_product_equal_addresses_rejected():
    vs = yvars(1)
    a = AddressingGadget.build(1, 1, vs)
    with pytest.raises(ValueError, match="separating"):
        address_product_decomposition(a, a)


def test_address_product_separating_bit_below_top():
    # bit t is 1 for every address, so it never separates
    for n in (2, 5, 8):
        vs = yvars(t_of(n))
        for j in range(n + 1):
            for j2 in range(n + 1):
                if j == j2:
                    continue
                a = AddressingGadget.build(n, j, vs)
                b = AddressingGadget.build(n, j2, vs)
                bit, c = address_product_decomposition(a, b)
                assert bit < a.t
                assert measure(c).size <= 6 * (n + 1)
                assert a.polynomial() * b.polynomial() == expand(c) * boolean_axiom(vs[bit])


def test_assembly_hand_example_leaf():
    c = cvar(X1)
    cert = assemble_refutation(c, GadgetLedger(()))
    x1 = SparsePoly.variable(X1)
    assert expand(cert.cofactors[0]) == -(x1 + 1) / 2
    assert expand(cert.cofactors[1]) == Fraction(1, 2)
    assert verify_exact(cert.axioms, cert.cofactors).verdict == "verified-exact"


def test_assembly_constant_instance():
    cert = assemble_refutation(cconst(1), GadgetLedger(()))
    assert len(cert.axioms) == 1
    assert expand(cert.cofactors[0]) == -1
    assert verify_exact(cert.axioms, cert.cofactors).verdict == "verified-exact"


def test_assembly_product_instance():
    cert = assemble_refutation(cmul(cvar(X1), cvar(X2)), GadgetLedger(()))
    assert verify_exact(cert.axioms, cert.cofactors).verdict == "verified-exact"


def test_assembly_rejects_satisfiable_shift():
    for s in (0, -1):
        with pytest.raises(ValueError, match="satisfiable"):
            assemble_refutation(cvar(X1), GadgetLedger(()), shift=Fraction(s))


def test_assembly_alternate_shift():
    cp, ledger = gadgetize(cadd(cvar(X1), cvar(X2)))
    cert = assemble_refutation(cp, ledger, shift=Fraction(1))
    assert verify_exact(cert.axioms, cert.cofactors).verdict == "verified-exact"


def test_assembly_rejects_bad_leaf():
    c = cadd(cvar(X1), cconst(2))
    cp, ledger = gadgetize(c)
    with pytest.raises(ValueError, match="outside"):
        assemble_refutation(cp, ledger)


def test_instance_cofactor_degree():
    for c in build_corpus(771, 10):
        cp, ledger = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp, ledger)
        fprime = expand(cp)
        assert expand(cert.cofactors[0]).total_degree() <= fprime.total_degree() + 1


def test_gate_identities_and_ledger_bounds_small_corpus():
    for c in build_corpus(772, 15):
        cn = normalize_layered(c)
        if len(cn.variables()) > 8:
            continue
        cp, ledger = gadgetize(cn)
        for gid in certifiable_gate_ids(cp):
            assert gate_identity_holds(cp, gid, ledger)
            cert = gate_square_certificate(cp, gid, ledger)
            mg = measure(subcircuit(cp, gid))
            for v, circ in cert.items():
                m = measure(circ)
                assert m.size <= 100 * mg.size ** 4
                assert m.depth <= 2 * mg.depth


def test_assembled_certificates_on_small_corpus():
    for c in build_corpus(773, 10):
        cp, ledger = gadgetize(normalize_layered(c))
        cert = assemble_refutation(cp, ledger)
        assert verify_exact(cert.axioms, cert.cofactors).verdict == "verified-exact"
        m = measure(cp)
        assert cert.total_size <= 100 * max(m.size, 1) ** 5
        assert cert.total_depth <= 2 * m.depth + 2
        assert cert.claimed_metrics == tuple(measure(cf) for cf in cert.cofactors)


def test_certificate_json_round_trip():
    cp, ledger = gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))
    cert = assemble_refutation(cp, ledger)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_exact(again.axioms, again.cofactors).verdict == "verified-exact"
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

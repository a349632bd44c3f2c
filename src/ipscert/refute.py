"""Boolean-ideal certificates per gate and full Nullstellensatz refutations.

For a gadgetized formula every gate g evaluates to 0 or 1 over the Boolean
cube, so g^2 - g lies in the ideal generated by the Boolean axioms.  This
module constructs explicit cofactor circuits witnessing that membership,
by induction on the formula:

  * leaves: v^2 - v = 1 * (v^2 - v); constants 0 and 1 contribute nothing
    (any other constant is rejected: c^2 - c is a nonzero constant).
  * product gates g = g_0 ... g_{r-1}: the telescoping identity

        g^2 - g = sum_l (prod_{t<l} g_t) (prod_{t>l} g_t^2) (g_l^2 - g_l)

    pushes the children's certificates through per-index products H_l.
  * transformed sum gates g = sum_l g_l A_l: expanding the square leaves
    three groups of terms: children squares against A_l^2 (induction), the
    gadget squares A_l^2 - A_l (address_square_decomposition), and the
    cross products A_l A_l' for distinct addresses, which are divisible by
    y (1 - y) at any separating bit (address_product_decomposition).

All cofactors are composed by gate id in one CircuitBuilder that starts
from the formula's gates, and each is laid out as a standalone formula
once.  Gates are certified in ascending id order, without recursion.

The assembled refutation of the unsatisfiable instance f' - 2 uses the
cofactors -(f'+1)/2 on the instance and +E/2, +F/2 on the Boolean axioms,
for which sum(cofactor * axiom) = 1 holds as an exact polynomial identity.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations

from .circuit import (
    ADD,
    CONST,
    Circuit,
    CircuitBuilder,
    MUL,
    Metrics,
    VAR,
    circuit_sha256,
    format_circuit,
    measure,
    parse_circuit,
)
from .gadget import AddressingGadget, GadgetLedger, json_field
from .poly import boolean_axiom, format_poly, parse_frac, parse_poly

BUILDER_TAG = "ipscert-refute/1"


@dataclass
class BooleanIdealCertificate:
    """Cofactors E (problem variables) and F (gadget variables) for one gate:

    g^2 - g = sum_v E[v] * (v^2 - v) + sum_y F[y] * (y^2 - y).
    """

    gate: int
    E: dict
    F: dict

    def items(self):
        for v in sorted(self.E, key=lambda v: v._key):
            yield v, self.E[v]
        for v in sorted(self.F, key=lambda v: v._key):
            yield v, self.F[v]


def _squared(ids) -> list:
    """Each id twice in a row: the factors of the product of their squares."""
    return [i for i in ids for _ in (0, 1)]


def _square_cofactors(b: CircuitBuilder, factors: list) -> list:
    """Ids of C_bit with A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit), A = prod(factors)."""
    return [b.prod(factors[:k] + _squared(factors[k + 1:])) for k in range(len(factors))]


def address_square_decomposition(gadget: AddressingGadget) -> dict:
    """Cofactors C_bit with A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit).

    Telescoping over the gadget's linear factors; both y and (1 - y) have
    L^2 - L = y^2 - y, so the cofactor for the factor at position k is
    prod_{i<k} L_i * prod_{i>k} L_i^2.
    """
    b = CircuitBuilder()
    return {k: b.formula(cof) for k, cof in enumerate(_square_cofactors(b, gadget.factors(b)))}


def _product_cofactor(b: CircuitBuilder, a: AddressingGadget, fa: list,
                      a2: AddressingGadget, fa2: list) -> tuple:
    """(j, id of C) with A * A' = C * (y_j^2 - y_j), given both gadgets' factor ids."""
    if a.vars != a2.vars:
        raise ValueError("gadgets do not share control variables")
    if a.j == a2.j:
        raise ValueError("equal addresses have no separating bit")
    j = min((a.one_bits & a2.zero_bits) | (a.zero_bits & a2.one_bits))
    rest = [f for k, f in enumerate(fa) if k != j] + [f for k, f in enumerate(fa2) if k != j]
    return j, b.prod([b.const(-1)] + rest)


def address_product_decomposition(a: AddressingGadget, b: AddressingGadget) -> tuple:
    """Separating bit j and C with A * A' = C * (y_j^2 - y_j).

    Requires the two gadgets to share control variables and differ in
    address; at any bit where one has y and the other (1 - y) the product
    carries the factor y (1 - y) = -(y^2 - y).
    """
    bl = CircuitBuilder()
    j, cof = _product_cofactor(bl, a, a.factors(bl), b, b.factors(bl))
    return j, bl.formula(cof)


def _is_affine_complement(c: Circuit, i: int):
    """If gate i computes 1 - v for a variable v, return v."""
    g = c.gates[i]
    if g.op != ADD or len(g.args) != 2:
        return None
    a, b = (c.gates[x] for x in g.args)
    for one, neg in ((a, b), (b, a)):
        if one.op == CONST and one.const == 1 and neg.op == MUL and len(neg.args) == 2:
            x, y = (c.gates[k] for k in neg.args)
            for cst, var in ((x, y), (y, x)):
                if cst.op == CONST and cst.const == -1 and var.op == VAR:
                    return var.var
    return None


def _summed(b: CircuitBuilder, acc: dict) -> dict:
    """{v: sum of v's terms}, without the variables whose sum is literal 0."""
    sums = {v: b.sum(terms) for v, terms in acc.items()}
    return {v: s for v, s in sums.items() if b.gate(s).const != 0}


def _certify(c: Circuit, ledger: GadgetLedger, gids) -> tuple:
    """(builder, {gate id: {v: cofactor id}}) for gids and the gates they use.

    The builder starts from c's gates.  One reverse pass marks what the
    requested certificates need (the ledger children of a transformed sum,
    the arguments of a product); those are certified in ascending id order.
    """
    gates = c.gates
    need = set(gids)
    for i in range(len(gates) - 1, -1, -1):
        if i not in need or gates[i].is_leaf():
            continue
        if i in ledger.by_gate:
            kids = [ch.child for ch in ledger.by_gate[i].children]
            if not all(0 <= k < i for k in kids):
                raise ValueError(f"g{i}: ledger child outside g0..g{i - 1}")
            need.update(kids)
        elif gates[i].op == MUL:
            need.update(gates[i].args)
    b = CircuitBuilder(gates)
    one = b.const(1)
    certs: dict = {}
    for i in sorted(need):
        g = gates[i]
        if g.op == CONST:
            if g.const not in (0, 1):
                raise ValueError(
                    f"g{i}: constant leaf {g.const} outside {{0,1}}; "
                    "c^2 - c is not in the Boolean ideal")
            certs[i] = {}
        elif g.op == VAR:
            certs[i] = {g.var: one}
        elif i in ledger.by_gate:
            certs[i] = _sum_rule(b, ledger.by_gate[i], certs)
        elif g.op == ADD:
            v = _is_affine_complement(c, i)
            if v is None:
                raise ValueError(
                    f"g{i}: addition gate without a gadget; transform the circuit first")
            certs[i] = {v: one}   # (1 - v)^2 - (1 - v) = v^2 - v
        else:
            certs[i] = _product_rule(b, g.args, certs)
    return b, certs


def gate_square_certificate(c: Circuit, gid: int, ledger: GadgetLedger) -> BooleanIdealCertificate:
    """Cofactor circuits witnessing g^2 - g in the Boolean ideal at gate gid.

    Preconditions: the formula is layered-alternating with addition gates
    already transformed (they appear in the ledger), and leaves outside the
    gadget factors carry variables or the constants 0/1.
    """
    return gate_square_certificates(c, [gid], ledger)[gid]


def gate_square_certificates(c: Circuit, gids, ledger: GadgetLedger) -> dict:
    """Certificates for many gates of one circuit, composed in one builder."""
    gids = list(gids)
    b, certs = _certify(c, ledger, gids)

    def laid_out(cert: dict, gadget: bool) -> dict:
        return {v: b.formula(i) for v, i in cert.items() if (v.ns == "y") == gadget}
    return {gid: BooleanIdealCertificate(gid, laid_out(certs[gid], False),
                                         laid_out(certs[gid], True)) for gid in gids}


def _product_rule(b: CircuitBuilder, args: tuple, certs: dict) -> dict:
    acc = defaultdict(list)
    for ell, a in enumerate(args):
        if certs[a]:
            h = b.prod(list(args[:ell]) + _squared(args[ell + 1:]))
            for v, cof in certs[a].items():
                acc[v].append(b.prod([h, cof]))
    return _summed(b, acc)


def _sum_rule(b: CircuitBuilder, entry, certs: dict) -> dict:
    trees = [ch.child for ch in entry.children]
    gadgets = [entry.gadget(ch.address) for ch in entry.children]
    factors = [gd.factors(b) for gd in gadgets]
    acc = defaultdict(list)
    # (I) children's certificates against the squared gadgets.
    for tree, fs in zip(trees, factors):
        square = b.prod(_squared(fs))
        for v, cof in certs[tree].items():
            acc[v].append(b.prod([square, cof]))
    # (II) gadget squares against the children themselves.
    for tree, fs in zip(trees, factors):
        for bit, cof in enumerate(_square_cofactors(b, fs)):
            acc[entry.vars[bit]].append(b.prod([tree, cof]))
    # (III) cross products of distinct addresses.
    for ell, ell2 in permutations(range(len(trees)), 2):
        bit, cof = _product_cofactor(b, gadgets[ell], factors[ell], gadgets[ell2], factors[ell2])
        acc[entry.vars[bit]].append(b.prod([trees[ell], trees[ell2], cof]))
    return _summed(b, acc)


@dataclass
class NullstellensatzCertificate:
    """Axioms paired with cofactor circuits with sum(cofactor * axiom) = 1.

    The first axiom is the instance (a circuit); the rest are Boolean axioms
    v^2 - v held as polynomials.  Cofactors never mention the verifier's
    placeholder namespace, so the induced substitution circuit
    sum_k placeholder_k * cofactor_k has individual degree 1 in every
    placeholder and vanishes when all placeholders are zero.
    """

    axioms: tuple           # ((label, SparsePoly | Circuit), ...)
    cofactors: tuple        # (Circuit, ...)
    claimed_metrics: tuple  # (Metrics, ...)
    instance_sha256: str
    shift: Fraction
    builder: str = BUILDER_TAG

    @property
    def total_size(self) -> int:
        return sum(m.size for m in self.claimed_metrics)

    @property
    def total_depth(self) -> int:
        return max(m.depth for m in self.claimed_metrics)


def _validate_leaves(c: Circuit, ledger: GadgetLedger) -> None:
    internal = ledger.internal_gates()
    for i, g in enumerate(c.gates):
        if g.op == CONST and i not in internal and g.const not in (0, 1):
            raise ValueError(
                f"g{i}: constant leaf {g.const} outside {{0,1}} in the instance formula")


def assemble_refutation(cprime: Circuit, ledger: GadgetLedger,
                        shift: Fraction = Fraction(-2)) -> NullstellensatzCertificate:
    """Nullstellensatz refutation of f' + shift (default shift -2).

    For a {0,1}-valued f' the instance f' + shift is unsatisfiable for any
    shift outside {0, -1}; the instance cofactor is c1*f' + c0 with
    c1 = -1/(shift*(shift+1)) and c0 = 1/shift, and every Boolean axiom
    v^2 - v gets the cofactor -c1 times the gate certificate.  At the
    default shift this is the familiar -(f'+1)/2, E/2, F/2 split.
    """
    shift = Fraction(shift)
    if shift in (0, -1):
        raise ValueError(f"shift {shift} leaves the instance satisfiable over the cube")
    _validate_leaves(cprime, ledger)
    out = cprime.output
    b, certs = _certify(cprime, ledger, [out])
    c1 = Fraction(-1) / (shift * (shift + 1))
    c0 = Fraction(1) / shift
    instance = b.formula(b.add([out, b.const(shift)]))
    axioms = [("f", instance)]
    roots = [b.mul([b.const(c1), b.add([out, b.const(c0 / c1)])])]
    cert = certs[out]
    for v in sorted(cert, key=lambda v: (v.ns == "y", v._key)):   # E, then F
        axioms.append((f"{v.name}^2-{v.name}", boolean_axiom(v)))
        roots.append(b.mul([b.const(-c1), cert[v]]))
    cofactors = tuple(b.formula(r) for r in roots)
    metrics = tuple(measure(cf) for cf in cofactors)
    return NullstellensatzCertificate(
        axioms=tuple(axioms),
        cofactors=cofactors,
        claimed_metrics=metrics,
        instance_sha256=circuit_sha256(instance),
        shift=shift,
    )


# ---------------------------------------------------------------------------
# Certificate document (JSON).

def certificate_to_json(cert: NullstellensatzCertificate) -> str:
    axioms = []
    for label, ax in cert.axioms:
        if isinstance(ax, Circuit):
            axioms.append({"label": label, "circuit": format_circuit(ax).splitlines()})
        else:
            axioms.append({"label": label, "poly": format_poly(ax)})
    doc = {
        "format": "nullstellensatz-cert/1",
        "builder": cert.builder,
        "shift": f"{cert.shift.numerator}/{cert.shift.denominator}",
        "instance_sha256": cert.instance_sha256,
        "axioms": axioms,
        "cofactors": [format_circuit(cf).splitlines() for cf in cert.cofactors],
        "metrics": [{"size": m.size, "depth": m.depth} for m in cert.claimed_metrics],
    }
    return json.dumps(doc, indent=2) + "\n"


_field = partial(json_field, "certificate document")


def _circuit(lines: list) -> Circuit:
    """The circuit whose text lines a JSON list holds."""
    if not all(isinstance(s, str) for s in lines):
        raise ValueError("not a list of strings")
    return parse_circuit("\n".join(lines))


def certificate_from_json(text: str) -> NullstellensatzCertificate:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "nullstellensatz-cert/1":
        raise ValueError("not a certificate document")
    axioms = []
    for k, ax in enumerate(_field(doc, "axioms", kind=list)):
        label = _field(ax, "label", f"axioms[{k}].label", str)
        if "circuit" in ax:
            axioms.append((label, _field(ax, "circuit", f"axioms[{k}].circuit", list,
                                         parse=_circuit)))
        else:
            axioms.append((label, _field(ax, "poly", f"axioms[{k}].poly", str,
                                         parse=parse_poly)))
    cofactors = tuple(_field(doc, "cofactors", kind=list, item=list, parse=_circuit))
    metrics = tuple(Metrics(size=_field(m, "size", f"metrics[{k}].size", int),
                            depth=_field(m, "depth", f"metrics[{k}].depth", int))
                    for k, m in enumerate(_field(doc, "metrics", kind=list)))
    shift = _field(doc, "shift", kind=str)
    try:
        shift = parse_frac(shift)
    except ValueError:
        raise ValueError(f"certificate document: field shift is not a rational: {shift!r}") from None
    return NullstellensatzCertificate(
        axioms=tuple(axioms),
        cofactors=cofactors,
        claimed_metrics=metrics,
        instance_sha256=_field(doc, "instance_sha256", kind=str),
        shift=shift,
        builder=doc.get("builder", BUILDER_TAG),
    )

"""Boolean-ideal certificates per gate and full Nullstellensatz refutations.

For a gadgetized formula every gate g evaluates to 0 or 1 over the Boolean
cube, so g^2 - g lies in the ideal generated by the Boolean axioms.  This
module constructs explicit cofactor circuits witnessing that membership,
by induction on the formula:

  * leaves: v^2 - v = 1 * (v^2 - v); constants 0 and 1 contribute nothing
    (any other constant is rejected: c^2 - c is a nonzero constant).
  * product gates g = g_0 ... g_{r-1}: the telescoping identity

        g^2 - g = sum_l (prod_{t<l} g_t) (prod_{t>l} g_t^2) (g_l^2 - g_l)

    pushes the children's certificates through per-index products H_l,
    built without cross-index sharing.
  * transformed sum gates g = sum_l g_l A_l: expanding the square leaves
    three groups of terms: children squares against A_l^2 (induction), the
    gadget squares A_l^2 - A_l (address_square_decomposition), and the
    cross products A_l A_l' for distinct addresses, which are divisible by
    y (1 - y) at any separating bit (address_product_decomposition).

The assembled refutation of the unsatisfiable instance f' - 2 uses the
cofactors -(f'+1)/2 on the instance and +E/2, +F/2 on the Boolean axioms,
for which sum(cofactor * axiom) = 1 holds as an exact polynomial identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .circuit import (
    ADD,
    CONST,
    Circuit,
    MUL,
    Metrics,
    VAR,
    cadd,
    cconst,
    circuit_sha256,
    cprod,
    cscale,
    csum,
    format_circuit,
    measure,
    parse_circuit,
    subcircuit,
)
from .gadget import AddressingGadget, GadgetLedger
from .poly import Var, boolean_axiom, format_poly, parse_poly

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


def address_square_decomposition(gadget: AddressingGadget) -> dict:
    """Cofactors C_bit with A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit).

    Telescoping over the gadget's linear factors; both y and (1 - y) have
    L^2 - L = y^2 - y, so the cofactor for the factor at position k is
    prod_{i<k} L_i * prod_{i>k} L_i^2.
    """
    factors = gadget.factor_circuits()
    out = {}
    for k in range(gadget.t + 1):
        parts = list(factors[:k])
        for f in factors[k + 1:]:
            parts.extend((f, f))
        out[k] = cprod(parts)
    return out


def address_product_decomposition(a: AddressingGadget, b: AddressingGadget) -> tuple:
    """Separating bit j and C with A * A' = C * (y_j^2 - y_j).

    Requires the two gadgets to share control variables and differ in
    address; at any bit where one has y and the other (1 - y) the product
    carries the factor y (1 - y) = -(y^2 - y).
    """
    if a.vars != b.vars:
        raise ValueError("gadgets do not share control variables")
    if a.j == b.j:
        raise ValueError("equal addresses have no separating bit")
    differing = sorted((a.one_bits & b.zero_bits) | (a.zero_bits & b.one_bits))
    j = differing[0]
    fa = a.factor_circuits()
    fb = b.factor_circuits()
    rest = [f for k, f in enumerate(fa) if k != j] + [f for k, f in enumerate(fb) if k != j]
    return j, cprod([cconst(-1)] + rest)


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


def _is_zero_circuit(c: Circuit) -> bool:
    g = c.gates[c.output]
    return g.op == CONST and g.const == 0


def _put(cert_map: dict, v: Var, term: Circuit) -> None:
    if not _is_zero_circuit(term):
        cert_map.setdefault(v, []).append(term)


def _finish(acc: dict) -> dict:
    return {v: csum(terms) for v, terms in acc.items() if terms}


def _certify(c: Circuit, ledger: GadgetLedger, memo: dict, i: int) -> BooleanIdealCertificate:
    if i in memo:
        return memo[i]

    def rec(k: int) -> BooleanIdealCertificate:
        return _certify(c, ledger, memo, k)

    g = c.gates[i]
    if g.op == CONST:
        if g.const not in (0, 1):
            raise ValueError(
                f"g{i}: constant leaf {g.const} outside {{0,1}}; "
                "c^2 - c is not in the Boolean ideal")
        cert = BooleanIdealCertificate(gate=i, E={}, F={})
    elif g.op == VAR:
        cert = BooleanIdealCertificate(gate=i, E={}, F={})
        target = cert.F if g.var.ns == "y" else cert.E
        target[g.var] = cconst(1)
    elif i in ledger.by_gate:
        cert = _sum_gate_certificate(c, ledger.by_gate[i], rec)
    elif g.op == ADD:
        v = _is_affine_complement(c, i)
        if v is None:
            raise ValueError(
                f"g{i}: addition gate without a gadget; transform the circuit first")
        cert = BooleanIdealCertificate(gate=i, E={}, F={})
        target = cert.F if v.ns == "y" else cert.E
        target[v] = cconst(1)
    else:
        cert = _product_gate_certificate(c, i, rec)
    memo[i] = cert
    return cert


def gate_square_certificate(c: Circuit, gid: int, ledger: GadgetLedger) -> BooleanIdealCertificate:
    """Cofactor circuits witnessing g^2 - g in the Boolean ideal at gate gid.

    Preconditions: the formula is layered-alternating with addition gates
    already transformed (they appear in the ledger), and leaves outside the
    gadget factors carry variables or the constants 0/1.
    """
    return _certify(c, ledger, {}, gid)


def gate_square_certificates(c: Circuit, gids, ledger: GadgetLedger) -> dict:
    """Certificates for many gates of one circuit, sharing the recursion."""
    memo: dict = {}
    return {gid: _certify(c, ledger, memo, gid) for gid in gids}


def _product_gate_certificate(c: Circuit, i: int, rec) -> BooleanIdealCertificate:
    args = c.gates[i].args
    certs = [rec(a) for a in args]
    trees = [subcircuit(c, a) for a in args]
    acc_e: dict = {}
    acc_f: dict = {}
    for ell, sub in enumerate(certs):
        if not sub.E and not sub.F:
            continue
        parts = list(trees[:ell])
        for t in trees[ell + 1:]:
            parts.extend((t, t))
        h = cprod(parts)
        for v, circ in sub.E.items():
            _put(acc_e, v, cprod([h, circ]))
        for v, circ in sub.F.items():
            _put(acc_f, v, cprod([h, circ]))
    return BooleanIdealCertificate(gate=i, E=_finish(acc_e), F=_finish(acc_f))


def _sum_gate_certificate(c: Circuit, entry, rec) -> BooleanIdealCertificate:
    children = entry.children
    certs = [rec(ch.child) for ch in children]
    trees = [subcircuit(c, ch.child) for ch in children]
    gadgets = [entry.gadget(ch.address) for ch in children]
    squares = []
    for gd in gadgets:
        parts = []
        for f in gd.factor_circuits():
            parts.extend((f, f))
        squares.append(cprod(parts))
    acc_e: dict = {}
    acc_f: dict = {}
    # (I) children's certificates against the squared gadgets.
    for ell, sub in enumerate(certs):
        for v, circ in sub.E.items():
            _put(acc_e, v, cprod([squares[ell], circ]))
        for v, circ in sub.F.items():
            _put(acc_f, v, cprod([squares[ell], circ]))
    # (II) gadget squares against the children themselves.
    for ell, gd in enumerate(gadgets):
        square_cofs = address_square_decomposition(gd)
        for bit in range(entry.t + 1):
            _put(acc_f, entry.vars[bit], cprod([trees[ell], square_cofs[bit]]))
    # (III) cross products of distinct addresses.
    for ell in range(len(children)):
        for ell2 in range(len(children)):
            if ell == ell2:
                continue
            bit, cof = address_product_decomposition(gadgets[ell], gadgets[ell2])
            _put(acc_f, entry.vars[bit], cprod([trees[ell], trees[ell2], cof]))
    return BooleanIdealCertificate(gate=entry.gate, E=_finish(acc_e), F=_finish(acc_f))


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
    cert = gate_square_certificate(cprime, cprime.output, ledger)
    fprime = subcircuit(cprime, cprime.output)
    c1 = Fraction(-1) / (shift * (shift + 1))
    c0 = Fraction(1) / shift
    instance = cadd(fprime, cconst(shift))
    axioms = [("f", instance)]
    cofactors = [cscale(c1, cadd(fprime, cconst(c0 / c1)))]
    for v, circ in cert.items():
        axioms.append((f"{v.name}^2-{v.name}", boolean_axiom(v)))
        cofactors.append(cscale(-c1, circ))
    metrics = tuple(measure(cf) for cf in cofactors)
    return NullstellensatzCertificate(
        axioms=tuple(axioms),
        cofactors=tuple(cofactors),
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


def _field(obj, key: str, name: str = ""):
    """obj[key], or a ValueError naming the missing field (as `name` if given)."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"certificate document: missing field {name or key}")
    return obj[key]


def certificate_from_json(text: str) -> NullstellensatzCertificate:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "nullstellensatz-cert/1":
        raise ValueError("not a certificate document")
    axioms = []
    for k, ax in enumerate(_field(doc, "axioms")):
        label = _field(ax, "label", f"axioms[{k}].label")
        if "circuit" in ax:
            axioms.append((label, parse_circuit("\n".join(ax["circuit"]))))
        else:
            axioms.append((label, parse_poly(_field(ax, "poly", f"axioms[{k}].poly"))))
    cofactors = tuple(parse_circuit("\n".join(lines)) for lines in _field(doc, "cofactors"))
    metrics = tuple(Metrics(size=_field(m, "size", f"metrics[{k}].size"),
                            depth=_field(m, "depth", f"metrics[{k}].depth"))
                    for k, m in enumerate(_field(doc, "metrics")))
    return NullstellensatzCertificate(
        axioms=tuple(axioms),
        cofactors=cofactors,
        claimed_metrics=metrics,
        instance_sha256=_field(doc, "instance_sha256"),
        shift=Fraction(_field(doc, "shift")),
        builder=doc.get("builder", BUILDER_TAG),
    )

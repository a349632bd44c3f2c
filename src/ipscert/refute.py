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
    gadget squares A_l^2 - A_l (_square_cofactors), and the
    cross products A_l A_l' for distinct addresses, which are divisible by
    y (1 - y) at any separating bit (_product_cofactor).

All cofactors are composed by gate id in one CircuitBuilder that starts
from the formula's gates, without recursion, certifying gates in ascending
id order.  That builder is the certificate's gate table: the certificate
holds a root id per cofactor and for the instance, and no cofactor is laid
out in memory.  Its claimed size and depth come from dynamic programming
over the table, equal to the measure of each laid-out formula.

The nullstellensatz-cert/1 document writes each root as the text lines of
its standalone formula, straight from the table, and reads every circuit
back line by line into one hash-consed table, which lays each out again as
the same text.

The assembled refutation of f' + shift puts the functional refutation
c0 + c1*f', c0, c1 = instances.inverse_differences(1, -shift), on the
instance and -c1 times the gate certificate's E, F on the Boolean axioms:
(c0 + c1*f')(f' + shift) = 1 + c1*(f'^2 - f'), so sum(cofactor * axiom) = 1
exactly.  At the default shift -2 these are -(f'+1)/2, +E/2 and +F/2.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from json.encoder import encode_basestring_ascii as _str

from .circuit import (
    ADD,
    CONST,
    Circuit,
    CircuitBuilder,
    MUL,
    Metrics,
    VAR,
)
from .gadget import AddressingGadget, GadgetLedger, json_field
from .instances import inverse_differences
from .poly import SparsePoly, boolean_axiom, format_poly, parse_frac, parse_poly

BUILDER_TAG = "ipscert-refute/1"


def _squared(ids) -> list:
    """Each id twice in a row: the factors of the product of their squares."""
    return [i for i in ids for _ in (0, 1)]


def _square_cofactors(b: CircuitBuilder, factors: list) -> list:
    """Ids of C_bit with A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit), A = prod(factors):
    y and 1 - y both have L^2 - L = y^2 - y, so C_k = prod_{i<k} L_i prod_{i>k} L_i^2."""
    return [b.prod(factors[:k] + _squared(factors[k + 1:])) for k in range(len(factors))]


def _product_cofactor(b: CircuitBuilder, a: AddressingGadget, fa: list,
                      a2: AddressingGadget, fa2: list) -> tuple:
    """(j, id of C) with A * A' = C * (y_j^2 - y_j), given both gadgets' factor ids:
    at a bit j where one has y and the other 1 - y, y (1 - y) = -(y^2 - y)."""
    if a.vars != a2.vars:
        raise ValueError("gadgets do not share control variables")
    if a.j == a2.j:
        raise ValueError("equal addresses have no separating bit")
    j = min((a.one_bits & a2.zero_bits) | (a.zero_bits & a2.one_bits))
    rest = [f for k, f in enumerate(fa) if k != j] + [f for k, f in enumerate(fa2) if k != j]
    return j, b.prod([b.const(-1)] + rest)


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


def gate_square_certificates(c: Circuit, gids, ledger: GadgetLedger) -> tuple:
    """(builder, {gate id: {v: cofactor id}}) with g^2 - g = sum_v C_v * (v^2 - v)
    for each gate g in gids and each gate their certificates use, every C_v
    a root id in one builder that starts from c's gates.  One reverse pass
    marks what the requested certificates need (the ledger children of a
    transformed sum, the arguments of a product); those are certified in
    ascending id order.
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
    """Axioms paired with cofactors with sum(cofactor * axiom) = 1, held as
    root ids in one gate table.

    The first axiom is the instance (a circuit); the rest are Boolean axioms
    v^2 - v held as polynomials.  Each circuit is a root id in `table`, which
    lays it out as the text of its standalone formula (CircuitBuilder.lines).
    Cofactors never mention the verifier's placeholder namespace, so the
    induced substitution circuit sum_k placeholder_k * cofactor_k has
    individual degree 1 in every placeholder and vanishes when all
    placeholders are zero.
    """

    table: CircuitBuilder
    axioms: tuple           # ((label, root id | SparsePoly), ...)
    cofactors: tuple        # (root id, ...)
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
    """Nullstellensatz refutation of f' + shift (default shift -2), with the
    cofactors of the module docstring.  For a {0,1}-valued f' the instance
    is unsatisfiable for any shift outside {0, -1}; inverse_differences
    rejects the other two.

    The certificate's table is the builder that composed the cofactors;
    nothing is laid out but the instance's text lines, for its hash.
    """
    shift = Fraction(shift)
    c0, c1 = inverse_differences(1, -shift)
    _validate_leaves(cprime, ledger)
    out = cprime.output
    b, certs = gate_square_certificates(cprime, [out], ledger)
    instance = b.add([out, b.const(shift)])
    axioms = [("f", instance)]
    roots = [b.mul([b.const(c1), b.add([out, b.const(c0 / c1)])])]
    cert = certs[out]
    for v in sorted(cert, key=lambda v: (v.ns == "y", v._key)):   # E, then F
        axioms.append((f"{v.name}^2-{v.name}", boolean_axiom(v)))
        roots.append(b.mul([b.const(-c1), cert[v]]))
    return NullstellensatzCertificate(
        table=b,
        axioms=tuple(axioms),
        cofactors=tuple(roots),
        claimed_metrics=tuple(b.metrics(r) for r in roots),
        instance_sha256=b.sha256(instance),
        shift=shift,
    )


# ---------------------------------------------------------------------------
# Certificate document (JSON).

def _json_list(items: list, pad: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    it out at indentation pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_object(pairs: list, pad: str) -> str:
    """A JSON object of (key, encoded value) pairs, as _json_list."""
    inner = "\n" + pad + "  "
    return ("{" + inner + ("," + inner).join(f"{_str(k)}: {v}" for k, v in pairs)
            + "\n" + pad + "}")


def certificate_to_json(cert: NullstellensatzCertificate) -> str:
    """The nullstellensatz-cert/1 document, byte for byte as json.dumps(doc,
    indent=2) writes it, each circuit written straight from the table."""
    def circuit(root: int, pad: str) -> str:
        return _json_list(list(map(_str, cert.table.lines(root))), pad)

    axioms = [_json_object([("label", _str(label)),
                            ("poly", _str(format_poly(ax))) if isinstance(ax, SparsePoly)
                            else ("circuit", circuit(ax, "      "))], "    ")
              for label, ax in cert.axioms]
    metrics = [_json_object([("size", str(m.size)), ("depth", str(m.depth))], "    ")
               for m in cert.claimed_metrics]
    return _json_object([
        ("format", _str("nullstellensatz-cert/1")),
        ("builder", _str(cert.builder)),
        ("shift", _str(f"{cert.shift.numerator}/{cert.shift.denominator}")),
        ("instance_sha256", _str(cert.instance_sha256)),
        ("axioms", _json_list(axioms, "  ")),
        ("cofactors", _json_list([circuit(r, "    ") for r in cert.cofactors], "  ")),
        ("metrics", _json_list(metrics, "  ")),
    ], "") + "\n"


_field = partial(json_field, "certificate document")


def _text_lines(lines: list) -> list:
    """The text lines of the circuit whose lines a JSON list holds: the list
    itself unless some string holds a line break."""
    try:
        split = "\n".join(lines).splitlines()
    except TypeError:
        raise ValueError("not a list of strings") from None
    return lines if split == lines else split


def certificate_from_json(text: str) -> NullstellensatzCertificate:
    """Read a nullstellensatz-cert/1 document: every circuit is read line by
    line into one hash-consed table (CircuitBuilder.read)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "nullstellensatz-cert/1":
        raise ValueError("not a certificate document")
    table = CircuitBuilder()

    def read(lines: list) -> int:
        return table.read(_text_lines(lines))

    axioms = []
    for k, ax in enumerate(_field(doc, "axioms", kind=list)):
        label = _field(ax, "label", f"axioms[{k}].label", str)
        if "circuit" in ax:
            axioms.append((label, _field(ax, "circuit", f"axioms[{k}].circuit", list,
                                         parse=read)))
        else:
            axioms.append((label, _field(ax, "poly", f"axioms[{k}].poly", str,
                                         parse=parse_poly)))
    cofactors = tuple(_field(doc, "cofactors", kind=list, item=list, parse=read))
    metrics = tuple(Metrics(size=_field(m, "size", f"metrics[{k}].size", int),
                            depth=_field(m, "depth", f"metrics[{k}].depth", int))
                    for k, m in enumerate(_field(doc, "metrics", kind=list)))
    if len(metrics) != len(cofactors):
        raise ValueError(f"certificate document: field metrics has {len(metrics)} "
                         f"entries for {len(cofactors)} cofactors")
    shift = _field(doc, "shift", kind=str)
    try:
        shift = parse_frac(shift)
    except ValueError:
        raise ValueError(f"certificate document: field shift is not a rational: {shift!r}") from None
    return NullstellensatzCertificate(
        table=table,
        axioms=tuple(axioms),
        cofactors=cofactors,
        claimed_metrics=metrics,
        instance_sha256=_field(doc, "instance_sha256", kind=str),
        shift=shift,
        builder=_field(doc, "builder", kind=str) if "builder" in doc else BUILDER_TAG,
    )

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
  * gadget sums g = sum_l g_l A_l, read off the circuit as the transform
    and the paper's gadgeted P write them (gadget.gadget_sum).  Expanding the
    square leaves three groups of terms: children squares against A_l^2
    (induction), the gadget squares A_l^2 - A_l (_square_cofactors), and the
    cross products A_l A_l' for distinct codes, which are divisible by
    y (1 - y) at any separating bit (_product_cofactor).

All cofactors are composed by gate id in one CircuitBuilder that starts
from the formula's gates, without recursion, certifying gates in ascending
id order.  That builder is the certificate's gate table: the certificate
holds a root id per axiom and per cofactor, and no cofactor is laid out in
memory.  Its claimed size and depth come from dynamic programming over the
table, equal to the measure of each laid-out formula.

The nullstellensatz-cert/2 document writes the table once: every gate the
roots reach on one line, the starting gates (the formula's own) first, and
each circuit as one line "OUTPUT g<k>" naming its root's line.  Read back,
it is one table again, in which every root lays out as the same text and
measures the same.  The older nullstellensatz-cert/1 document, which wrote
each root as the text lines of its standalone formula, is still read: every
circuit line by line into one hash-consed table.

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
from .gadget import gadget_sum, json_field, literal_gates, literal_of
from .instances import inverse_differences
from .poly import Var, format_poly, parse_frac, parse_poly, parse_var, take_slot

BUILDER_TAG = "ipscert-refute/1"
FORMAT = "nullstellensatz-cert/2"


def _squared(ids) -> list:
    """Each id twice in a row: the factors of the product of their squares."""
    return [i for i in ids for _ in (0, 1)]


def _square_cofactors(b: CircuitBuilder, factors: list) -> list:
    """Ids of C_bit with A^2 - A = sum_bit C_bit * (y_bit^2 - y_bit), A = prod(factors):
    y and 1 - y both have L^2 - L = y^2 - y, so C_k = prod_{i<k} L_i prod_{i>k} L_i^2."""
    return [b.prod(factors[:k] + _squared(factors[k + 1:])) for k in range(len(factors))]


def _product_cofactor(b: CircuitBuilder, code: dict, fa: list, code2: dict, fa2: list) -> tuple:
    """(v, id of C) with A * A' = C * (v^2 - v), given both gadgets' codes
    {v: bit} and factor ids: at the first control variable v where one has
    v and the other 1 - v, v (1 - v) = -(v^2 - v)."""
    if code.keys() != code2.keys():
        raise ValueError("gadgets do not share control variables")
    j = next((k for k, v in enumerate(code) if code[v] != code2[v]), None)
    if j is None:
        raise ValueError("equal addresses have no separating bit")
    rest = [f for k, f in enumerate(fa) if k != j] + [f for k, f in enumerate(fa2) if k != j]
    return list(code)[j], b.prod([b.const(-1)] + rest)


def _summed(b: CircuitBuilder, acc: dict) -> dict:
    """{v: sum of v's terms}, without the variables whose sum is literal 0."""
    sums = {v: b.sum(terms) for v, terms in acc.items()}
    return {v: s for v, s in sums.items() if b.gate(s).const != 0}


def gate_square_certificates(c: Circuit, gids) -> tuple:
    """(builder, {gate id: {v: cofactor id}}) with g^2 - g = sum_v C_v * (v^2 - v)
    for each gate g in gids and each gate their certificates use, every C_v
    a root id in one builder that starts from c's gates.  One reverse pass
    marks what the requested certificates need (the child gates of a gadget
    sum, the arguments of a product); those are certified in ascending id
    order.
    """
    gates = c.gates
    need = set(gids)
    sums: dict = {}
    for i in range(len(gates) - 1, -1, -1):
        if i not in need:
            continue
        if gates[i].op == MUL:
            need.update(gates[i].args)
        elif gates[i].op == ADD:
            sums[i] = gadget_sum(c, i)
            need.update(k for _, _, child in sums[i] or () for k in child)
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
        elif sums.get(i):
            certs[i] = _sum_rule(b, sums[i], certs)
        elif g.op == ADD:
            lit = literal_of(c, i)
            if lit is None:
                raise ValueError(
                    f"g{i}: addition gate without a gadget; transform the circuit first")
            certs[i] = {lit[0]: one}   # (1 - v)^2 - (1 - v) = v^2 - v
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


def _sum_rule(b: CircuitBuilder, terms: list, certs: dict) -> dict:
    """The certificate of gadget_sum's terms; each gadget's literals pushed
    fresh in code order, a child of several gates certified as a product."""
    codes = [code for _, code, _ in terms]
    kids = [child for _, _, child in terms]
    factors = [list(literal_gates(b, code.items())) for code in codes]
    kid_certs = [certs[k[0]] if len(k) == 1 else _product_rule(b, k, certs) for k in kids]
    acc = defaultdict(list)
    # (I) children's certificates against the squared gadgets.
    for fs, cert in zip(factors, kid_certs):
        square = b.prod(_squared(fs))
        for v, cof in cert.items():
            acc[v].append(b.prod([square, cof]))
    # (II) gadget squares against the children themselves.
    for kid, code, fs in zip(kids, codes, factors):
        for v, cof in zip(code, _square_cofactors(b, fs)):
            acc[v].append(b.prod(kid + [cof]))
    # (III) cross products of distinct codes.
    for ell, ell2 in permutations(range(len(terms)), 2):
        v, cof = _product_cofactor(b, codes[ell], factors[ell], codes[ell2], factors[ell2])
        acc[v].append(b.prod(kids[ell] + kids[ell2] + [cof]))
    return _summed(b, acc)


@dataclass
class NullstellensatzCertificate:
    """Axioms paired with cofactors with sum(cofactor * axiom) = 1, held as
    root ids in one gate table.

    The first axiom is the instance; the rest are the Boolean axioms v^2 - v
    as CircuitBuilder.boolean_axiom lays them in, written as polynomial
    text.  `table` lays each root out as the text of its standalone formula
    (its lines()).
    Cofactors never mention the verifier's placeholder namespace, so the
    induced substitution circuit sum_k placeholder_k * cofactor_k has
    individual degree 1 in every placeholder and vanishes when all are 0.
    """

    table: CircuitBuilder
    axioms: tuple           # ((label, root id), ...)
    cofactors: tuple        # (root id, ...)
    claimed_metrics: tuple  # (Metrics, ...)
    instance_sha256: str
    shift: Fraction
    builder: str = BUILDER_TAG
    written_as_poly: frozenset = frozenset()   # indices of axioms written as "poly"

    @property
    def total_size(self) -> int:
        return sum(m.size for m in self.claimed_metrics)

    @property
    def total_depth(self) -> int:
        return max(m.depth for m in self.claimed_metrics)


def _validate_leaves(c: Circuit) -> None:
    gates = c.gates
    inside = {k for i, g in enumerate(gates) if g.op == ADD and literal_of(c, i)
              for a in g.args for k in (a, *gates[a].args)}   # the gates of each 1 - v
    for i, g in enumerate(gates):
        if g.op == CONST and i not in inside and g.const not in (0, 1):
            raise ValueError(
                f"g{i}: constant leaf {g.const} outside {{0,1}} in the instance formula")


def assemble_refutation(cprime: Circuit,
                        shift: Fraction = Fraction(-2)) -> NullstellensatzCertificate:
    """Nullstellensatz refutation of f' + shift (default shift -2), with the
    cofactors of the module docstring.  For a {0,1}-valued f' the instance
    is unsatisfiable for any shift outside {0, -1}; inverse_differences
    rejects the other two.

    The certificate's table is the builder that composed the cofactors, then
    the Boolean axioms; nothing is laid out but the instance's text lines.
    """
    shift = Fraction(shift)
    c0, c1 = inverse_differences(1, -shift)
    _validate_leaves(cprime)
    out = cprime.output
    b, certs = gate_square_certificates(cprime, [out])
    instance = b.add([out, b.const(shift)])
    order = sorted(certs[out], key=lambda v: (v.ns == "y", v._key))   # E, then F
    roots = [b.mul([b.const(c1), b.add([out, b.const(c0 / c1)])])]
    roots += [b.mul([b.const(-c1), certs[out][v]]) for v in order]
    axioms = [("f", instance)] + [(f"{v.name}^2-{v.name}", b.boolean_axiom(v)) for v in order]
    return NullstellensatzCertificate(
        table=b,
        axioms=tuple(axioms),
        cofactors=tuple(roots),
        claimed_metrics=tuple(b.metrics(roots)),
        instance_sha256=b.sha256(instance),
        shift=shift,
        written_as_poly=frozenset(range(1, len(axioms))),
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
    """The nullstellensatz-cert/2 document, byte for byte as json.dumps(doc,
    indent=2) writes it: the gate table that the circuits reach, written
    once (CircuitBuilder.write_table), and each circuit as the line that
    names its root; an axiom in written_as_poly as its polynomial's text."""
    polys = cert.written_as_poly
    circuits = [ax for k, (_, ax) in enumerate(cert.axioms) if k not in polys] + [*cert.cofactors]
    starting, table, positions = cert.table.write_table(circuits)
    at = dict(zip(circuits, positions))

    def circuit(root: int, pad: str) -> str:
        return _json_list([_str(f"OUTPUT g{at[root]}")], pad)

    def poly(label: str, root: int) -> str:
        v, written = boolean_axiom_label(label)
        laid = is_boolean_axiom(cert.table, root, v)
        return written if laid else format_poly(cert.table.expand(root))

    axioms = [_json_object([("label", _str(label)),
                            ("poly", _str(poly(label, ax))) if k in polys
                            else ("circuit", circuit(ax, "      "))], "    ")
              for k, (label, ax) in enumerate(cert.axioms)]
    metrics = [_json_object([("size", str(m.size)), ("depth", str(m.depth))], "    ")
               for m in cert.claimed_metrics]
    return _json_object([
        ("format", _str(FORMAT)),
        ("builder", _str(cert.builder)),
        ("shift", _str(f"{cert.shift.numerator}/{cert.shift.denominator}")),
        ("instance_sha256", _str(cert.instance_sha256)),
        ("starting", str(starting)),
        ("table", _json_list(list(map(_str, table)), "  ")),
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


def _table_roots(doc: dict, table: CircuitBuilder):
    """Lay a /2 document's gate table into table as it is parsed; returns
    the reader of a circuit, one line "OUTPUT g<k>" naming a table gate."""
    starting = _field(doc, "starting", kind=int)
    names = _field(doc, "table", kind=list,
                   parse=lambda lines: table.read_table(_text_lines(lines), starting))
    if not 0 <= starting <= len(names):
        raise ValueError(f"certificate document: field starting: {starting} is not "
                         f"between 0 and the table's {len(names)} gates")

    def root(lines: list) -> int:
        words = lines[0].split() if len(lines) == 1 and isinstance(lines[0], str) else ()
        if len(words) != 2 or words[0] != "OUTPUT":
            raise ValueError("not one line OUTPUT g<k>")
        if words[1] not in names:
            raise ValueError(f"{words[1]!r} is not a gate of the table")
        return names[words[1]]

    return root


def boolean_axiom_label(label: str) -> tuple:
    """(v, format_poly(boolean_axiom(v))) for a label "v^2-v" that names a
    variable v twice, spelled alike, or (None, None) for any other label."""
    name, sep, rest = label.partition("^2-")
    try:
        v = parse_var(name)
    except ValueError:
        return None, None
    return (v, f"-1/1 * {v.name} + 1/1 * {v.name}^2") if sep and rest == name else (None, None)


def is_boolean_axiom(table: CircuitBuilder, root: int, v) -> bool:
    """Whether root is CircuitBuilder.boolean_axiom's v^2 - v, never for v None:
    ADD(MUL(CONST -1, VAR v), MUL(VAR v, VAR v)).  It only reads gates."""
    g = table.gate(root)
    terms = [table.gate(a) for a in g.args] if g.op == ADD else ()
    if len(terms) != 2 or any(t.op != MUL or len(t.args) != 2 for t in terms):
        return False
    c, *xs = [table.gate(a) for t in terms for a in t.args]
    return c.op == CONST and c.const == -1 and all(x.op == VAR and x.var == v for x in xs)


def _axiom_poly(label: str, text: str):
    """The v the label names for a poly text written as its v^2 - v, which
    CircuitBuilder.boolean_axiom lays in, v given its slot now (take_slot)
    as parse_poly would give it; else parse_poly(text), refused if its
    exponents sum to over 32 per character: CircuitBuilder.poly lays one VAR
    gate per unit of exponent."""
    v, written = boolean_axiom_label(label)
    if text == written:
        take_slot(v)
        return v
    p = parse_poly(text)
    if sum(e for m, _ in p.items() for _, e in m) > 32 * len(text):
        raise ValueError("its exponents sum to over 32 per character of the text")
    return p


def certificate_from_json(text: str) -> NullstellensatzCertificate:
    """Read a nullstellensatz-cert/2 document, its table laid in as it is
    parsed (CircuitBuilder.read_table), or a nullstellensatz-cert/1
    document, every circuit parsed once and laid into one hash-consed table
    (CircuitBuilder.read); both through the one parser of circuit text."""
    doc = json.loads(text)
    version = doc.get("format") if isinstance(doc, dict) else None
    if version not in (FORMAT, "nullstellensatz-cert/1"):
        raise ValueError("not a certificate document")
    table = CircuitBuilder()
    if version == FORMAT:
        read = _table_roots(doc, table)
    else:
        def read(lines: list) -> int:
            return table.read(_text_lines(lines))

    axioms, polys = [], {}
    for k, ax in enumerate(_field(doc, "axioms", kind=list)):
        label = _field(ax, "label", f"axioms[{k}].label", str)
        if "circuit" in ax:
            axioms.append((label, _field(ax, "circuit", f"axioms[{k}].circuit", list, parse=read)))
            continue
        polys[k] = _field(ax, "poly", f"axioms[{k}].poly", str, parse=partial(_axiom_poly, label))
        axioms.append((label, None))
    cofactors = tuple(_field(doc, "cofactors", kind=list, item=list, parse=read))
    for k, p in polys.items():   # poly texts last, so that no circuit's gate id moves
        lay = table.boolean_axiom if isinstance(p, Var) else table.poly
        axioms[k] = (axioms[k][0], lay(p))
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
        written_as_poly=frozenset(polys),
    )

"""Boolean-ideal certificates per gate and IPS_LIN refutations.

For a gadgetized formula every gate g evaluates to 0 or 1 over the Boolean
cube, so g^2 - g lies in the ideal generated by the Boolean axioms.  This
module builds, for each gate g, one circuit C_g(x, z) linear in the
placeholders z, one z_v per variable v, with C_g(x, v^2 - v) = g^2 - g: an
IPS_LIN certificate of that membership (Forbes, Shpilka, Tzameret &
Wigderson, ToC 2021), by induction on the formula:

  * leaves: C = z_v for a literal v or 1 - v, as (1 - v)^2 - (1 - v) =
    v^2 - v; constants 0 and 1 give C = 0 (any other constant is rejected:
    c^2 - c is a nonzero constant).
  * product gates g = g_0 ... g_{r-1}: the telescoping identity

        g^2 - g = sum_l (prod_{t<l} g_t) (prod_{t>l} g_t^2) (g_l^2 - g_l)

    gives C_g = sum_l H_l C_{g_l}, H_l the per-index products.
  * gadget sums g = sum_l g_l A_l, read off the circuit as the transform
    and the paper's gadgeted P write them (gadget.gadget_sum).  Expanding the
    square leaves three groups of terms: children's certificates against
    A_l^2 (induction), the gadget squares A_l^2 - A_l (_square_cofactors),
    and the cross products A_l A_l' for distinct codes, which are divisible
    by y (1 - y) at any separating bit (_product_cofactor); the last two
    groups multiply each term by the z_v of its bit.

Every C_g is composed by gate id in one SharingBuilder that starts from the
formula's gates and hash-conses the gates composed after them, without
recursion, certifying gates in ascending id order, and no circuit is laid
out in memory.

The refutation of f' + shift puts the functional refutation c0 + c1*f',
c0, c1 = instances.inverse_differences(1, -shift), on the instance:

    C = c1 (f' + c0/c1) z_0 - c1 C_out,

with z_0 the instance's placeholder and z_k, k >= 1, those of the Boolean
axioms.  C(x, 0) = 0, and C(x, F(x)) = (c0 + c1*f')(f' + shift) - c1*(f'^2
- f') = 1 exactly.  At the default shift -2, C = -(f'+1)/2 z_0 + C_out/2.
Its claimed size and depth are those of the DAG it reaches, each gate once.

The nullstellensatz-cert/4 document writes the certificate's gate table
once: every gate the circuits reach on one line, the starting gates (the
formula's own) first, and each circuit (the instance, and C, the one
cofactor) as one line "OUTPUT g<k>" naming its root's line; the
placeholder fresh<k> stands for axiom k.  Read back, it is one table
again, in which the instance lays out as the same text and C measures the
same.  Its last field, lemmas, lists ["g<s>", "g<c>"] for each certified
gate s, ascending, whose certificate c = C_s is a composed gate that C
reaches (the lowest s when two share one C_s; no leaf or literal, whose
C_s is a placeholder or CONST 0).  verify --mode exact checks each lemma,
c(x, F(x)) = s^2 - s, over s's arguments cut to unknowns, in place of
expanding C(x, F(x)) whole (see verify).  The older documents are still
read: nullstellensatz-cert/3 is /4 without lemmas, and /2 and /1 pair
each axiom with a cofactor, the E and F that setting one placeholder of C
to 1 and the rest to 0 gives, /2 in one table written in the same way
and /1 each root as the text lines of its standalone formula, read line
by line into one hash-consed table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    SharingBuilder,
    VAR,
)
from .gadget import gadget_sum, json_field, literal_gates, literal_of
from .instances import inverse_differences
from .poly import Var, format_poly, parse_frac, parse_poly, parse_var, take_slot

BUILDER_TAG = "ipscert-refute/2"
FORMAT = "nullstellensatz-cert/4"
OLDER_FORMATS = ("nullstellensatz-cert/3", "nullstellensatz-cert/2",
                 "nullstellensatz-cert/1")   # read, not written
LINEAR_FORMATS = (FORMAT, "nullstellensatz-cert/3")

# Namespace of the placeholders of a linear certificate: fresh<k> stands
# for axiom k.
PLACEHOLDER_NS = "fresh"


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


def gate_square_certificates(c: Circuit, gids) -> tuple:
    """(builder, {gate id: C_g}, {v: placeholder id}) with C_g(x, v^2 - v) =
    g^2 - g for each gate g in gids and each gate their certificates use:
    C_g is a root id in one SharingBuilder that starts from c's gates, its
    composed gates hash-consed, linear in the placeholders, one VAR gate
    z_v per variable v, named fresh<j> in the order they are made (j from
    1).  One reverse pass marks what the requested certificates need (the
    child gates of a gadget sum, the arguments of a product); those are
    certified in ascending id order.
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
    b = SharingBuilder(gates)
    zero = b.const(0)
    z: dict = {}
    literals: dict = {}     # (v, bit) -> its literal gate, made once

    def placeholder(v: Var) -> int:
        if v not in z:
            z[v] = b.var(Var(PLACEHOLDER_NS, len(z) + 1))
        return z[v]

    def literal(v: Var, bit: int) -> int:
        if (v, bit) not in literals:
            literals[v, bit] = next(literal_gates(b, [(v, bit)]))
        return literals[v, bit]

    certs: dict = {}
    for i in sorted(need):
        g = gates[i]
        if g.op == CONST:
            if g.const not in (0, 1):
                raise ValueError(
                    f"g{i}: constant leaf {g.const} outside {{0,1}}; "
                    "c^2 - c is not in the Boolean ideal")
            certs[i] = zero
        elif g.op == VAR:
            certs[i] = placeholder(g.var)
        elif sums.get(i):
            certs[i] = _sum_rule(b, sums[i], certs, placeholder, literal)
        elif g.op == ADD:
            lit = literal_of(c, i)
            if lit is None:
                raise ValueError(
                    f"g{i}: addition gate without a gadget; transform the circuit first")
            certs[i] = placeholder(lit[0])   # (1 - v)^2 - (1 - v) = v^2 - v
        else:
            certs[i] = _product_rule(b, g.args, certs)
    return b, certs, z


def _product_rule(b: CircuitBuilder, args: tuple, certs: dict) -> int:
    """sum_l H_l * C_{g_l}, H_l the product of the arguments before l and the
    squares of those after; a literal 0 certificate adds no term."""
    terms = []
    for ell, a in enumerate(args):
        if b.gate(certs[a]).const != 0:
            terms.append(b.prod(list(args[:ell]) + _squared(args[ell + 1:]) + [certs[a]]))
    return b.sum(terms)


def _sum_rule(b: CircuitBuilder, terms: list, certs: dict, placeholder, literal) -> int:
    """The certificate of gadget_sum's terms, each gadget's literals in code
    order, a child of several gates certified as a product."""
    codes = [code for _, code, _ in terms]
    kids = [child for _, _, child in terms]
    factors = [[literal(v, bit) for v, bit in code.items()] for code in codes]
    out = []
    # (I) children's certificates against the squared gadgets.
    for kid, fs in zip(kids, factors):
        cert = certs[kid[0]] if len(kid) == 1 else _product_rule(b, kid, certs)
        out.append(b.prod(_squared(fs) + [cert]))
    # (II) gadget squares against the children themselves.
    for kid, code, fs in zip(kids, codes, factors):
        for v, cof in zip(code, _square_cofactors(b, fs)):
            out.append(b.prod(kid + [cof, placeholder(v)]))
    # (III) cross products of distinct codes.
    for ell, ell2 in permutations(range(len(terms)), 2):
        v, cof = _product_cofactor(b, codes[ell], factors[ell], codes[ell2], factors[ell2])
        out.append(b.prod(kids[ell] + kids[ell2] + [cof, placeholder(v)]))
    return b.sum(out)


@dataclass
class NullstellensatzCertificate:
    """An IPS certificate of the axioms, held as root ids in one gate table.

    The first axiom is the instance; the rest are the Boolean axioms v^2 - v
    as CircuitBuilder.boolean_axiom lays them in, written as polynomial
    text.  `table` lays each root out as the text of its standalone formula
    (its lines()).

    A linear certificate (IPS_LIN, the nullstellensatz-cert/4 and /3
    documents) has one cofactor, the root of C(x, z): the placeholder
    fresh<k> stands for axiom k, C is homogeneous of degree 1 in the
    placeholders, so C(x, 0) = 0, and C(x, F(x)) = 1 with each placeholder
    replaced by its axiom.  Its lemmas (written in /4 only) pair a gate s
    with the gate C_s claimed to certify it, C_s(x, F(x)) = s^2 - s, which
    verify_exact checks one by one instead of expanding C(x, F(x)) whole.
    Any other certificate (the /1 and /2 documents) pairs each axiom with a
    cofactor, sum(cofactor * axiom) = 1, and no cofactor mentions a
    placeholder.  There is one claimed metric per cofactor.
    """

    table: CircuitBuilder
    axioms: tuple           # ((label, root id), ...)
    cofactors: tuple        # (root id, ...)
    claimed_metrics: tuple  # (Metrics, ...)
    instance_sha256: str
    shift: Fraction
    builder: str = BUILDER_TAG
    written_as_poly: frozenset = frozenset()   # indices of axioms written as "poly"
    linear: bool = False
    lemmas: tuple = ()      # ((s, C_s), ...) as gate ids, of a linear certificate
    # (root of C, axiom count, verdict) of verify's degree pass over C, kept
    # so that check_claims and a verifier run it once; dataclasses.replace
    # starts a certificate without it.
    degree_checked: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    """The linear refutation of f' + shift (default shift -2) of the module
    docstring.  For a {0,1}-valued f' the instance is unsatisfiable for any
    shift outside {0, -1}; inverse_differences rejects the other two.

    The Boolean axioms are the variables whose placeholders C reaches, E
    then F, numbered from 1: once C is made, its placeholders are renamed
    in place to those numbers (SharingBuilder.rename), and the ones it does
    not reach after them.  The certificate's table is the one
    gate_square_certificates composes in, hash-consed as
    certificate_from_json lays a document's table in (so C measures here as
    read back), with the Boolean axioms after.

    The lemmas are (s, C_s) for each certified gate s, ascending, whose
    C_s is a composed gate with arguments that C reaches, the lowest s
    kept when two share one C_s: no leaf or literal, whose C_s is a
    placeholder or CONST 0.
    """
    shift = Fraction(shift)
    c0, c1 = inverse_differences(1, -shift)
    _validate_leaves(cprime)
    out = cprime.output
    b, certs, z = gate_square_certificates(cprime, [out])
    instance = b.add([out, b.const(shift)])
    root = b.sum([b.mul([b.const(c1), b.mul([b.add([out, b.const(c0 / c1)]),
                                             b.var(Var(PLACEHOLDER_NS, 0))])]),
                  b.prod([b.const(-c1), certs[out]])])
    reached = set(b._reach(root))
    lemmas: dict = {}        # C_s -> s, the lowest s first
    for s in sorted(certs):
        c = certs[s]
        if c in reached and c not in b._starting and b.gate(c).args:
            lemmas.setdefault(c, s)
    order = sorted([v for v in z if z[v] in reached], key=lambda v: (v.ns == "y", v._key))
    b.rename({z[v]: Var(PLACEHOLDER_NS, k)
              for k, v in enumerate(order + [v for v in z if z[v] not in reached], 1)})
    axioms = [("f", instance)] + [(f"{v.name}^2-{v.name}", b.boolean_axiom(v)) for v in order]
    return NullstellensatzCertificate(
        table=b,
        axioms=tuple(axioms),
        cofactors=(root,),
        claimed_metrics=(b.dag_metrics(root),),
        instance_sha256=b.sha256(instance),
        shift=shift,
        written_as_poly=frozenset(range(1, len(axioms))),
        linear=True,
        lemmas=tuple((s, c) for c, s in lemmas.items()),
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
    """The nullstellensatz-cert/4 document of a linear certificate, byte for
    byte as json.dumps(doc, indent=2) writes it: the gate table that the
    circuits reach, written once (CircuitBuilder.write_table), and each
    circuit, C the one cofactor, as the line that names its root; an axiom
    in written_as_poly as its polynomial's text; last the lemmas, each the
    pair of table lines ["g<s>", "g<C_s>"].  The circuits of a certificate
    assemble_refutation makes reach its lemmas' gates, so the table is the
    one its /3 document wrote, and the document that one with the lemmas
    added."""
    if not cert.linear:
        raise ValueError("only a linear certificate is written; /1 and /2 are read only")
    polys = cert.written_as_poly
    circuits = [ax for k, (_, ax) in enumerate(cert.axioms) if k not in polys] + [*cert.cofactors]
    gates = [g for pair in cert.lemmas for g in pair]
    starting, table, positions = cert.table.write_table(circuits + gates)
    at = dict(zip(circuits + gates, positions))

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
        ("lemmas", _json_list([_json_list([_str(f"g{at[g]}") for g in pair], "    ")
                               for pair in cert.lemmas], "  ")),
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


def _table_roots(doc: dict, table: CircuitBuilder) -> tuple:
    """Lay a /2, /3 or /4 document's gate table into table as it is parsed;
    returns the reader of a circuit, one line "OUTPUT g<k>" naming a table
    gate, and of a lemma, two gate names of the table."""
    starting = _field(doc, "starting", kind=int)
    names = _field(doc, "table", kind=list,
                   parse=lambda lines: table.read_table(_text_lines(lines), starting))
    if not 0 <= starting <= len(names):
        raise ValueError(f"certificate document: field starting: {starting} is not "
                         f"between 0 and the table's {len(names)} gates")

    def gate(name: str) -> int:
        if name not in names:
            raise ValueError(f"{name!r} is not a gate of the table")
        return names[name]

    def root(lines: list) -> int:
        words = lines[0].split() if len(lines) == 1 and isinstance(lines[0], str) else ()
        if len(words) != 2 or words[0] != "OUTPUT":
            raise ValueError("not one line OUTPUT g<k>")
        return gate(words[1])

    def lemma(pair: list) -> tuple:
        if len(pair) != 2 or not all(isinstance(name, str) for name in pair):
            raise ValueError("not two gate names [\"g<s>\", \"g<c>\"]")
        return gate(pair[0]), gate(pair[1])

    return root, lemma


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
    """Read a nullstellensatz-cert/4 or /3 document (one cofactor, C; /4 with
    its lemmas, /3 with none) or a /2 document, its table laid in as it is
    parsed (CircuitBuilder.read_table), or a /1 document, every circuit
    parsed once and laid into one hash-consed table (CircuitBuilder.read);
    all through the one parser of circuit text.  A lemma names two gates of
    the table; a lemmas field is refused in any document but /4 and
    required in /4."""
    doc = json.loads(text)
    version = doc.get("format") if isinstance(doc, dict) else None
    if version not in (FORMAT, *OLDER_FORMATS):
        raise ValueError("certificate document: field format is not one of "
                         + ", ".join((FORMAT, *OLDER_FORMATS)))
    table = CircuitBuilder()
    if version != FORMAT and "lemmas" in doc:
        raise ValueError(f"certificate document: field lemmas is not read in {version}")
    if version != "nullstellensatz-cert/1":
        read, lemma = _table_roots(doc, table)
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
    lemmas = tuple(_field(doc, "lemmas", kind=list, item=list, parse=lemma)
                   if version == FORMAT else ())
    if version in LINEAR_FORMATS and len(cofactors) != 1:
        raise ValueError(f"certificate document: field cofactors has {len(cofactors)} "
                         "entries; a linear certificate has one, its root C")
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
        linear=version in LINEAR_FORMATS,
        lemmas=lemmas,
    )

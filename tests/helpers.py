"""Shared test utilities: random formulas, polynomials, and cert mutations."""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import math
import os
import random
import re
from collections import defaultdict
from fractions import Fraction
from itertools import permutations

from ipscert.circuit import (
    ADD,
    CONST,
    Circuit,
    CircuitBuilder,
    Gate,
    MUL,
    VAR,
    _compact,
    _leaf_text,
    _postorder,
    as_circuit,
    cadd,
    cmul,
    compile_evaluator,
    cvar,
    eval_circuit_mod,
    format_circuit,
    normalize_layered,
    parse_circuit,
    poly_to_circuit,
)
from ipscert.gadget import (GadgetChild, GadgetLedger, LedgerEntry, gadget_sum, gadgetize,
                            literal_gates, literal_of)
from ipscert.instances import InstanceBundle, inverse_differences
from ipscert.poly import (SparsePoly, Var, _Accumulator, boolean_axiom, format_poly, frac_mod,
                          parse_frac, parse_var)
from ipscert.refute import (NullstellensatzCertificate, _product_cofactor, _square_cofactors,
                            _squared, _validate_leaves, boolean_axiom_label, is_boolean_axiom)
from ipscert.verify import PLACEHOLDER_NS, VerifyReport, _nonzero_witness

CORPUS_SEED = 20260810


def pit_corpus(seed: int, count: int) -> list:
    """The benchmark's certify-pit formulas (perfbench/inputs.py), layered."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [normalize_layered(parse_circuit(f.text())) for f in inputs.pit_corpus(seed, count)]


def random_layered_formula(rng: random.Random, max_nodes: int = 30, n_vars: int = 6,
                           const_pool=(0, 1), max_depth: int = 5) -> Circuit:
    """A random layered alternating formula with an addition gate on top.

    Leaves are x-variables or constants from const_pool; internal layers
    strictly alternate ADD and MUL; total gate count stays <= max_nodes.
    """
    b = CircuitBuilder()
    nodes = 0

    def leaf() -> int:
        nonlocal nodes
        nodes += 1
        if rng.random() < 0.08:
            return b.const(rng.choice(const_pool))
        return b.var(Var("x", rng.randrange(1, n_vars + 1)))

    def node(kind: str, depth: int, budget: int) -> int:
        # budget = gates this subtree may create, including its own gate
        nonlocal nodes
        if budget < 3 or depth >= max_depth or rng.random() < 0.08 * depth:
            return leaf()
        fanin = min(rng.choice((1, 2, 2, 2, 2, 3, 3, 4)), budget - 1)
        kids = []
        remaining = budget - 1
        for k in range(fanin):
            siblings_left = fanin - k - 1
            hi = remaining - siblings_left          # later siblings need 1 gate each
            lo = max(1, remaining // (fanin - k))
            share = rng.randint(lo, hi) if hi > lo else hi
            before = nodes
            if share >= 2 and rng.random() < 0.85:
                kids.append(node(MUL if kind == ADD else ADD, depth + 1, share))
            else:
                kids.append(leaf())
            remaining -= nodes - before
        nodes += 1
        return b.add(kids) if kind == ADD else b.mul(kids)

    root = node(ADD, 0, max_nodes - 1)
    if b.gate(root).op != ADD:
        root = b.add([root])
    return b.build(root)


def corpus_sizes(rng: random.Random, count: int) -> list:
    """Node budgets skewed small, spanning up to the 30-gate cap."""
    sizes = []
    for i in range(count):
        if i % 10 < 6:
            sizes.append(rng.randint(5, 14))
        elif i % 10 < 9:
            sizes.append(rng.randint(14, 22))
        else:
            sizes.append(rng.randint(22, 30))
    return sizes


def build_corpus(seed: int, count: int, const_pool=(0, 1)) -> list:
    rng = random.Random(seed)
    sizes = corpus_sizes(rng, count)
    return [random_layered_formula(rng, max_nodes=s, const_pool=const_pool) for s in sizes]


def reference_inverse_differences(k: int, beta: Fraction) -> list:
    """The alphas with sum_{j<=t} alpha_j binom(t, j) = 1/(t - beta) for
    t = 0..k, by the triangular solve: an oracle for inverse_differences."""
    alphas: list = []
    for t in range(k + 1):
        value = Fraction(1) / (t - beta)
        for j, a in enumerate(alphas):
            value -= a * math.comb(t, j)
        alphas.append(value)
    return alphas


def mono(pairs) -> tuple:
    """The monomial of (Var, exponent) pairs as SparsePoly.items() writes it:
    repeated variables added, zero exponents dropped, pairs in variable order."""
    exps: dict = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda ve: ve[0]._key))


def poly_of(terms: dict) -> SparsePoly:
    """The polynomial of a {monomial: coefficient} dict, monomials as mono()
    writes them, built by ring operations."""
    acc = _Accumulator()
    for m, c in terms.items():
        term = SparsePoly.constant(c)
        for v, e in m:
            term = term * SparsePoly.variable(v) ** e
        acc.add(term)
    return acc.result()


def reference_subset_sum(n_vars: int, beta=None) -> InstanceBundle:
    """subset_sum(n_vars, beta) built the earlier way, over the variables: a
    full product per step of the e_k recursion.  An oracle only."""
    zvars = tuple(Var("z", i) for i in range(1, n_vars + 1))
    return _reference_subset_sum_over(zvars, beta, "subset-sum", {"n_vars": n_vars})


def reference_lifted_subset_sum(n: int, beta=None) -> InstanceBundle:
    """lifted_subset_sum(n, beta) built the earlier way: the flat bundle
    over the pair variables, then substitute z_ij -> z_ij x_i x_j, then
    multilinear_reduce.  An oracle only."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    zvars = tuple(Var("z", i, j) for i, j in pairs)
    flat = _reference_subset_sum_over(zvars, beta, "lifted-subset-sum", {"n": n})
    x = {i: SparsePoly.variable(Var("x", i)) for i in range(1, n + 1)}
    substitution = {zv: SparsePoly.variable(zv) * x[i] * x[j] for (i, j), zv in zip(pairs, zvars)}
    flat.instance = flat.instance.substitute(substitution).multilinear_reduce()
    flat.refutation = flat.refutation.substitute(substitution).multilinear_reduce()
    flat.provenance["lift"] = "z_ij -> z_ij * x_i * x_j, then multilinearized"
    return flat


def _reference_subset_sum_over(vars_: tuple, beta, name: str, params: dict) -> InstanceBundle:
    beta = Fraction(len(vars_) + 1 if beta is None else beta)
    alphas = inverse_differences(len(vars_), beta)
    zs = [SparsePoly.variable(v) for v in vars_]
    instance = sum(zs, SparsePoly.zero()) - beta
    e = [SparsePoly.constant(1)] + [SparsePoly.zero()] * len(vars_)
    for j, z in enumerate(zs, start=1):
        for k in range(j, 0, -1):
            e[k] = e[k] + z * e[k - 1]
    refutation = sum((a * ek for a, ek in zip(alphas, e)), SparsePoly.zero())
    return InstanceBundle(
        name=name,
        params=params,
        instance=instance,
        refutation=refutation,
        provenance={
            "generator": name,
            "beta": f"{beta.numerator}/{beta.denominator}",
            "alphas": [f"{a.numerator}/{a.denominator}" for a in alphas],
            **params,
        },
    )


def integer_row(row) -> list:
    """A dense rational row times the lcm of its entries' denominators: the
    same row, up to a positive scale, as ints."""
    row = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def sparse_rows(dense) -> list:
    """The nonzero rows of a dense rational matrix as rank_matrix returns
    them: {column: int} over each row's nonzero entries, each row cleared
    of its denominators by integer_row (a positive scale, so the rank
    stays)."""
    rows = [{c: x for c, x in enumerate(integer_row(row)) if x} for row in dense]
    return [row for row in rows if row]


def ref_evaluate(a: dict, point: dict) -> Fraction:
    """The value at point of a {monomial: coefficient} dict such as dict(p.items())."""
    total = Fraction(0)
    for m, c in a.items():
        for v, e in m:
            c = c * Fraction(point[v]) ** e
        total += c
    return total


def ref_evaluate_mod(a: dict, point: dict, prime: int) -> int:
    """ref_evaluate over GF(prime)."""
    total = 0
    for m, c in a.items():
        acc = c.numerator * pow(c.denominator, -1, prime)
        for v, e in m:
            acc = acc * pow(point[v], e, prime)
        total += acc
    return total % prime


def gadget_poly(code) -> SparsePoly:
    """The gadget of a code ((v, bit), ...), prod y for a 1 and 1 - y for a
    0, by ring operations: an oracle for gadget.literal_gates."""
    p = SparsePoly.constant(1)
    for v, bit in code:
        p = p * (SparsePoly.variable(v) if bit else 1 - SparsePoly.variable(v))
    return p


def internal_gates(ledger: GadgetLedger) -> frozenset:
    """The gadget gates of every entry: the transform's own record of the
    gates its gadgets added, an oracle for what refute reads off."""
    return frozenset().union(*(e.internal for e in ledger.entries))


def ledger_sums(ledger: GadgetLedger) -> dict:
    """{gate: (control variables, [(address, [child], summand), ...])}, the
    sums the transform's ledger records, children in address order."""
    return {e.gate: (e.vars, [(ch.address, [ch.child], ch.summand) for ch in e.children])
            for e in ledger.entries}


def read_sums(c: Circuit) -> dict:
    """ledger_sums' map of the gadget sums refute reads off c
    (gadget.gadget_sum), a code's address its bits, LSB first, less 2^t."""
    out = {}
    for i in range(len(c.gates)):
        terms = gadget_sum(c, i)
        if terms:
            ctrl = tuple(terms[0][1])
            out[i] = (ctrl, [(sum(bit << k for k, bit in enumerate(code.values()))
                              - (1 << len(ctrl) - 1), child, s) for s, code, child in terms])
    return out


def retrieval_point(ledger: GadgetLedger) -> dict:
    """Controls (1/2, ..., 1/2, 2^t) for every gadget block: there each
    gadget is 1, so partial evaluation recovers the untransformed sums."""
    out: dict = {}
    for e in ledger.entries:
        for v in e.vars[:-1]:
            out[v] = Fraction(1, 2)
        out[e.vars[-1]] = Fraction(1 << e.t)
    return out


def random_poly(rng: random.Random, vars_, max_terms: int = 6, max_exp: int = 3) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(0, min(3, len(vars_)))
        m = mono([(v, rng.randint(1, max_exp)) for v in rng.sample(list(vars_), k)])
        terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return poly_of(terms)


def sum_of_products_text(p: SparsePoly) -> str:
    """The circuit text of p's sum-of-products formula, written straight
    from p.items(): per term its coefficient (left out when 1 and the term
    has a variable), each variable once per power and their product, then
    the sum of the terms; CONST 0/1 for the zero polynomial."""
    lines: list = []

    def line(rhs: str) -> str:
        lines.append(f"g{len(lines)} = {rhs}")
        return f"g{len(lines) - 1}"

    terms = []
    for m, c in p.items():
        factors = [line(f"CONST {c.numerator}/{c.denominator}")] if c != 1 or not m else []
        factors += [line(f"VAR {v.name}") for v, e in m for _ in range(e)]
        terms.append(factors[0] if len(factors) == 1 else line("MUL " + " ".join(factors)))
    if len(terms) != 1:
        terms = [line("ADD " + " ".join(terms)) if terms else line("CONST 0/1")]
    return "\n".join(lines) + f"\nOUTPUT {terms[0]}\n"


def random_dag_circuit(rng: random.Random, n_gates: int = 20, vars_=None) -> Circuit:
    """A random well-formed circuit (possibly a DAG, possibly with fan-out)."""
    if vars_ is None:
        vars_ = [Var("x", i) for i in range(1, 5)]
    b = CircuitBuilder()
    ids = []
    for v in vars_:
        ids.append(b.var(v))
    while len(b._gates) < n_gates:
        choice = rng.random()
        if choice < 0.15:
            ids.append(b.const(Fraction(rng.randint(-2, 2))))
        else:
            fanin = rng.randint(1, 3)
            kids = [rng.choice(ids) for _ in range(fanin)]
            ids.append(b.add(kids) if choice < 0.6 else b.mul(kids))
    used = set()
    for g in b._gates:
        used.update(g.args)
    roots = [i for i in range(len(b._gates)) if i not in used]
    out = roots[0] if len(roots) == 1 else b.add(roots)
    return b.build(out)


# The values partial assignments are drawn from in the folding tests.
FOLD_VALUES = (0, 1, Fraction(1, 2), -2, Fraction(3, 7))


def assert_valid(c: Circuit) -> None:
    """The public constructor accepts c's gates and output, as they are."""
    again = Circuit(c.gates, c.output)
    assert again.gates == c.gates and again.output == c.output


def assert_folded(c: Circuit) -> None:
    """No ADD or MUL gate of c has only CONST arguments, and no MUL a CONST 0."""
    for g in c.gates:
        if not g.is_leaf():
            consts = [c.gates[a].const for a in g.args if c.gates[a].op == CONST]
            assert len(consts) < len(g.args)
            assert g.op != MUL or 0 not in consts


def is_syntactically_multilinear(c: Circuit) -> bool:
    """True iff every MUL gate's children use pairwise disjoint variables."""
    varsets: list = [frozenset()] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            varsets[i] = frozenset((g.var,))
        elif g.op == CONST:
            varsets[i] = frozenset()
        else:
            union: set = set()
            if g.op == MUL:
                total = 0
                for a in g.args:
                    total += len(varsets[a])
                    union |= varsets[a]
                if len(union) != total:
                    return False
            else:
                for a in g.args:
                    union |= varsets[a]
            varsets[i] = frozenset(union)
    return True


def total_degree(p: SparsePoly) -> int:
    """The largest total degree of a term of p; 0 for the zero polynomial."""
    return max((sum(e for _, e in m) for m, _ in p.items()), default=0)


def shuffled_topological(rng: random.Random, c: Circuit,
                         ledger: GadgetLedger = GadgetLedger(())) -> tuple:
    """c with its gates renumbered in a random topological order, and the ledger to match."""
    users = [[] for _ in c.gates]
    waiting = [len(g.args) for g in c.gates]
    for i, g in enumerate(c.gates):
        for a in g.args:
            users[a].append(i)
    ready = [i for i, n in enumerate(waiting) if n == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for u in users[i]:
            waiting[u] -= 1
            if waiting[u] == 0:
                ready.append(u)
    new = {old: k for k, old in enumerate(order)}
    gates = [g if g.is_leaf() else Gate(g.op, args=tuple(new[a] for a in g.args))
             for g in (c.gates[i] for i in order)]
    entries = [LedgerEntry(gate=new[e.gate], source_gate=e.source_gate, t=e.t, vars=e.vars,
                           children=tuple(GadgetChild(ch.address, new[ch.child], new[ch.summand])
                                          for ch in e.children),
                           internal=frozenset(new[i] for i in e.internal))
               for e in ledger.entries]
    return Circuit(gates, new[c.output]), GadgetLedger(entries)


def random_product_dag(rng: random.Random, n_gates: int) -> Circuit:
    """A ledger-free DAG of MUL gates over x1..x3 and CONST 0/1 whose gates share children."""
    b = CircuitBuilder()
    ids = [b.var(Var("x", i)) for i in (1, 2, 3)] + [b.const(1)]
    if rng.random() < 0.3:
        ids.append(b.const(0))
    while len(b._gates) < n_gates:
        ids.append(b.mul(rng.sample(ids, rng.randint(2, 3))))
    used = {a for g in b._gates for a in g.args}
    roots = [i for i in ids if i not in used]
    return b.build(roots[0] if len(roots) == 1 else b.mul(roots))


def pointwise(c: Circuit):
    """compile_evaluator(c) as a function of one point: run(assignment,
    prime=None), the value of c there, from a batch of one point."""
    run = compile_evaluator(c)
    return lambda assignment, prime=None: run(
        {v: (x,) for v, x in assignment.items()}, 1, prime)[0]


def _semantically_differs(a: Circuit, b: Circuit, seed: int) -> bool:
    prime = 2305843009213693967
    rng = random.Random(f"mutcheck:{seed}")
    vars_ = sorted(set(a.variables()) | set(b.variables()))
    for _ in range(3):
        point = {v: rng.randrange(prime) for v in vars_}
        if eval_circuit_mod(a, point, prime) != eval_circuit_mod(b, point, prime):
            return True
    return False


def _mutate_circuit(rng: random.Random, c: Circuit) -> Circuit:
    gates = list(c.gates)
    i = rng.randrange(len(gates))
    gates[i] = _mutated_gate(rng, gates[i], c.variables)
    return _compact(gates, c.output)


def _mutated_gate(rng: random.Random, g: Gate, variables) -> Gate:
    """One single-site change of g: a constant moved, a variable swapped for
    another of variables() or for a constant, an argument dropped, or ADD and
    MUL swapped."""
    if g.op == CONST:
        return Gate(CONST, const=g.const + rng.choice((1, -1, 2)))
    if g.op == VAR:
        others = [v for v in variables() if v != g.var]
        if others and rng.random() < 0.7:
            return Gate(VAR, var=rng.choice(others))
        return Gate(CONST, const=Fraction(rng.choice((0, 2))))
    if len(g.args) >= 2 and rng.random() < 0.5:
        args = list(g.args)
        args.pop(rng.randrange(len(args)))
        return Gate(g.op, args=tuple(args))
    return Gate(MUL if g.op == ADD else ADD, args=g.args)


# ---------------------------------------------------------------------------
# The per-variable refutation and its nullstellensatz-cert/2 document: the
# reference that the pinned /2 documents are written from, and that the
# reader of /2 documents and the per-pair verifier are checked against.

# The builder tag of every /2 document refute wrote.
BUILDER_TAG_V2 = "ipscert-refute/1"


def _summed(b: CircuitBuilder, acc: dict) -> dict:
    """{v: sum of v's terms}, without the variables whose sum is literal 0."""
    sums = {v: b.sum(terms) for v, terms in acc.items()}
    return {v: s for v, s in sums.items() if b.gate(s).const != 0}


def square_certificates_v2(c: Circuit, gids) -> tuple:
    """(builder, {gate id: {v: cofactor id}}) with g^2 - g = sum_v C_v * (v^2 - v)
    for each gate g in gids and each gate their certificates use: one
    cofactor per variable of each certified gate's support, built by the
    rules refute's placeholder rules multiply z_v into."""
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
            certs[i] = _sum_rule_v2(b, sums[i], certs)
        elif g.op == ADD:
            lit = literal_of(c, i)
            if lit is None:
                raise ValueError(
                    f"g{i}: addition gate without a gadget; transform the circuit first")
            certs[i] = {lit[0]: one}   # (1 - v)^2 - (1 - v) = v^2 - v
        else:
            certs[i] = _product_rule_v2(b, g.args, certs)
    return b, certs


def _product_rule_v2(b: CircuitBuilder, args: tuple, certs: dict) -> dict:
    acc = defaultdict(list)
    for ell, a in enumerate(args):
        if certs[a]:
            h = b.prod(list(args[:ell]) + _squared(args[ell + 1:]))
            for v, cof in certs[a].items():
                acc[v].append(b.prod([h, cof]))
    return _summed(b, acc)


def _sum_rule_v2(b: CircuitBuilder, terms: list, certs: dict) -> dict:
    codes = [code for _, code, _ in terms]
    kids = [child for _, _, child in terms]
    factors = [list(literal_gates(b, code.items())) for code in codes]
    kid_certs = [certs[k[0]] if len(k) == 1 else _product_rule_v2(b, k, certs) for k in kids]
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


def refutation_v2(cprime: Circuit, shift=Fraction(-2)) -> NullstellensatzCertificate:
    """The per-pair refutation of f' + shift that /2 documents hold: the
    instance's cofactor c1*(f' + c0/c1), and -c1 times the output's
    per-variable cofactor against each Boolean axiom, E then F."""
    shift = Fraction(shift)
    c0, c1 = inverse_differences(1, -shift)
    _validate_leaves(cprime)
    out = cprime.output
    b, certs = square_certificates_v2(cprime, [out])
    instance = b.add([out, b.const(shift)])
    order = sorted(certs[out], key=lambda v: (v.ns == "y", v._key))   # E, then F
    roots = [b.mul([b.const(c1), b.add([out, b.const(c0 / c1)])])]
    roots += [b.mul([b.const(-c1), certs[out][v]]) for v in order]
    axioms = [("f", instance)] + [(f"{v.name}^2-{v.name}", b.boolean_axiom(v)) for v in order]
    return NullstellensatzCertificate(
        table=b, axioms=tuple(axioms), cofactors=tuple(roots),
        claimed_metrics=tuple(b.metrics(roots)), instance_sha256=b.sha256(instance),
        shift=shift, builder=BUILDER_TAG_V2, written_as_poly=frozenset(range(1, len(axioms))))


def certificate_to_json_v2(cert: NullstellensatzCertificate,
                           version: str = "nullstellensatz-cert/2") -> str:
    """The reference writer of the nullstellensatz-cert/2 document, which
    certificate_from_json still reads: the gate table the circuits reach,
    written once (CircuitBuilder.write_table), each circuit the one line
    "OUTPUT g<k>" naming its root's line, and an axiom in written_as_poly
    as its polynomial's text.  Given a linear certificate and version /3,
    the nullstellensatz-cert/3 document refute wrote before /4: the same
    fields, C the one cofactor (certificate_to_json_v3)."""
    table, polys = cert.table, cert.written_as_poly
    circuits = [ax for k, (_, ax) in enumerate(cert.axioms) if k not in polys] + [*cert.cofactors]
    starting, lines, positions = table.write_table(circuits)
    at = dict(zip(circuits, positions))

    def poly(label: str, root: int) -> str:
        v, written = boolean_axiom_label(label)
        return written if is_boolean_axiom(table, root, v) else format_poly(table.expand(root))

    doc = {
        "format": version,
        "builder": cert.builder,
        "shift": f"{cert.shift.numerator}/{cert.shift.denominator}",
        "instance_sha256": cert.instance_sha256,
        "starting": starting,
        "table": lines,
        "axioms": [{"label": label, "poly": poly(label, ax)} if k in polys
                   else {"label": label, "circuit": [f"OUTPUT g{at[ax]}"]}
                   for k, (label, ax) in enumerate(cert.axioms)],
        "cofactors": [[f"OUTPUT g{at[r]}"] for r in cert.cofactors],
        "metrics": [{"size": m.size, "depth": m.depth} for m in cert.claimed_metrics],
    }
    return json.dumps(doc, indent=2) + "\n"


def certificate_to_json_v3(cert: NullstellensatzCertificate) -> str:
    """The reference writer of the nullstellensatz-cert/3 document of a
    linear certificate, which certificate_from_json still reads: the /4
    document that refute writes, without its lemmas."""
    assert cert.linear
    return certificate_to_json_v2(cert, "nullstellensatz-cert/3")


def point_placeholders(b: CircuitBuilder, roots, images: dict) -> tuple:
    """(table, roots): a copy of b in which each gate id in images, a
    placeholder, stands for the gate images names, each gate above one laid
    in again over its arguments' images, and the roots' images: C(x, F(x))
    for C linear in the placeholders, walked in ascending id order."""
    table, image = b.copy(), dict(images)
    for i in range(min(images, default=0), max(roots, default=-1) + 1):
        g = b.gate(i)
        if i not in image and any(a in image for a in g.args):
            args = [image.get(a, a) for a in g.args]
            image[i] = table.add(args) if g.op == ADD else table.mul(args)
    return table, [image.get(r, r) for r in roots]


def _text(x) -> list:
    """The text lines of x, a Circuit or a SparsePoly (as_circuit)."""
    return format_circuit(as_circuit(x)).splitlines()


def certificate_of(axioms, cofactors, instance_sha256: str = "", shift=Fraction(-2),
                   builder: str = BUILDER_TAG_V2,
                   written_as_poly=frozenset()) -> NullstellensatzCertificate:
    """A certificate of (label, axiom) pairs and cofactors, each a Circuit
    or a SparsePoly (as_circuit), written as text and read into a fresh
    table as certificate_from_json reads a /1 circuit, so that it lays out
    again as given.  The claimed metrics are each cofactor's measure; the
    axioms at the indices written_as_poly are written as poly text."""
    table = CircuitBuilder()
    axioms = tuple((label, table.read(_text(ax))) for label, ax in axioms)
    cofactors = tuple(table.read(_text(cf)) for cf in cofactors)
    return NullstellensatzCertificate(table, axioms, cofactors,
                                      tuple(table.metrics(cofactors)),
                                      instance_sha256, Fraction(shift), builder,
                                      frozenset(written_as_poly))


def fork(table: CircuitBuilder) -> CircuitBuilder:
    """A table in table's state, each of its containers copied, so that
    the two grow apart: reading into one leaves the other as it was."""
    out = copy.copy(table)
    out.__dict__.update((k, v.copy()) for k, v in vars(table).items() if hasattr(v, "copy"))
    return out


def lay_again(table: CircuitBuilder, source: CircuitBuilder, root: int, lines: int) -> int:
    """Lay source's hash-consed root into table as table.read reads its
    text, the `lines` lines of source.lines(root), without writing or
    parsing them: read lays a new gate where a structure first completes
    in the text, which is where a post-order walk of root's DAG first meets
    it."""
    lay, ids = table._lay_in(0), {}
    for i in _postorder(source._gates, root):
        g = source.gate(i)
        ids[i] = lay(g, None) if g.is_leaf() else lay(g.op, [ids[a] for a in g.args])
    table._text += lines
    return ids[root]


class MutationBase:
    """A certificate read once for its mutants, as certificate_of reads it:
    its axioms and then its cofactors, laid out, written and read into one
    table, forked before each cofactor is read.  A mutant of cofactor k is
    certificate_of's certificate without reading the rest again: the fork
    before cofactor k reads the mutated text, then lays each later cofactor
    in again from the table they were read into (lay_again)."""

    def __init__(self, cert: NullstellensatzCertificate):
        axioms, self.cofactors = laid_out(cert)
        self.cert = cert
        self.table = CircuitBuilder()
        self.axioms = tuple((label, self.table.read(_text(ax))) for label, ax in axioms)
        self.texts = [_text(cf) for cf in self.cofactors]
        self.forks, self.roots = [], []    # forks[k]: the table before cofactor k is read
        for text in self.texts:
            self.forks.append(fork(self.table))
            self.roots.append(self.table.read(text))
        assert not self.table._starting     # every text was hash-consed, as lay_again needs

    def certificate(self, k: int, mutated: Circuit) -> NullstellensatzCertificate:
        """certificate_of(axioms, cofactors with the k-th replaced by mutated),
        as mutate_certificate makes it."""
        cert, table = self.cert, fork(self.forks[k])
        cofactors = (*self.roots[:k], table.read(_text(mutated)),
                     *[lay_again(table, self.table, self.roots[j], len(self.texts[j]))
                       for j in range(k + 1, len(self.roots))])
        return NullstellensatzCertificate(table, self.axioms, cofactors,
                                          tuple(table.metrics(cofactors)),
                                          cert.instance_sha256, cert.shift, BUILDER_TAG_V2,
                                          cert.written_as_poly)


def placeholder_images(cert: NullstellensatzCertificate) -> dict:
    """{id of a placeholder gate fresh<k> that C reaches: axiom k's root}
    of a linear certificate."""
    table, axioms = cert.table, cert.axioms
    return {i: axioms[g.var.idx[0]][1] for i in table._reach(cert.cofactors[0])
            for g in [table.gate(i)] if g.op == VAR and g.var.ns == PLACEHOLDER_NS}


def identity_circuit(cert: NullstellensatzCertificate) -> Circuit:
    """The identity verify_pit tests, as a standalone circuit, for checks of
    its walk of the table: for a linear certificate C with each placeholder
    pointed at its axiom's root (point_placeholders), and otherwise
    ADD(MUL(axiom_0, cofactor_0), MUL(axiom_1, cofactor_1), ...) over a
    copy of the certificate's table, compacted."""
    if cert.linear:
        table, (root,) = point_placeholders(cert.table, cert.cofactors, placeholder_images(cert))
        return table.subcircuit(root)
    b = cert.table.copy()
    products = [b.mul([ax, cf]) for (_, ax), cf in zip(cert.axioms, cert.cofactors)]
    return _compact(b._gates, b.add(products) if products else b.const(0))


def ci_chain_certificate() -> NullstellensatzCertificate:
    """The certificate the CI chain refutes x1*(x2 + x3) + x4 with."""
    x = [Var("x", i) for i in range(1, 5)]
    c = cadd(cmul(cvar(x[0]), cadd(cvar(x[1]), cvar(x[2]))), cvar(x[3]))
    return refutation_v2(gadgetize(normalize_layered(c))[0])


def shift_certificates():
    """The certificates of the pinned shift corpus: 5 corpus formulas
    (build_corpus(4106, 5)), normalized and transformed, at each shift
    whose documents test_refute pins."""
    for shift in ("-2", "-3", "1", "1/2", "2/3"):
        for c in build_corpus(4106, 5):
            cp, _ = gadgetize(normalize_layered(c))
            yield refutation_v2(cp, shift=Fraction(shift))


def formal_degree(c: Circuit) -> int:
    """The formal degree of c's output: a VAR has 1, a CONST 0, an ADD the
    max of its arguments', a MUL their sum (an oracle, folded over every
    gate of the table)."""
    degree: list = []
    for g in c.gates:
        if g.op == "VAR":
            degree.append(1)
        elif g.op == "CONST":
            degree.append(0)
        elif g.op == "ADD":
            degree.append(max(degree[a] for a in g.args))
        else:
            degree.append(sum(degree[a] for a in g.args))
    return degree[c.output]


def laid_out(cert: NullstellensatzCertificate) -> tuple:
    """(axioms, cofactors) of a certificate, each root laid out as its formula."""
    table = cert.table
    axioms = [(label, table.formula(ax)) for label, ax in cert.axioms]
    return axioms, [table.formula(cf) for cf in cert.cofactors]


def reference_verify_exact(cert: NullstellensatzCertificate) -> VerifyReport:
    """verify_exact root by root (an oracle): every axiom and cofactor root
    expanded on its own, as it is, and each cofactor * axiom summed."""
    if len(cert.axioms) != len(cert.cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    table = cert.table
    expansions = 0
    total = _Accumulator()
    for (label, ax), cf in zip(cert.axioms, cert.cofactors):
        ax_p = table.expand(ax)
        cf_p = table.expand(cf)
        expansions += 2
        for v in cf_p.variables():
            if v.ns == PLACEHOLDER_NS:
                return VerifyReport(
                    "error",
                    detail=f"cofactor of {label} mentions placeholder variable {v.name}")
        total.add_product(cf_p, ax_p)
    total.add(SparsePoly.constant(-1))
    residual = total.result()
    if residual.is_zero():
        return VerifyReport("verified-exact", work={"expansions": expansions})
    return VerifyReport(
        "refuted",
        detail="sum(cofactor * axiom) - 1 is not the zero polynomial",
        witness=_nonzero_witness(residual),
        work={"expansions": expansions})


def reference_bad_constant(cert: NullstellensatzCertificate, prime: int) -> str:
    """The error of the first constant whose denominator vanishes mod prime,
    in the written order of the axioms and cofactors pair by pair (an
    oracle): each root laid out as its formula and its gates read in order."""
    for x in [r for (_, ax), cf in zip(cert.axioms, cert.cofactors) for r in (ax, cf)]:
        for g in cert.table.formula(x).gates:
            if g.op == CONST:
                try:
                    frac_mod(g.const, prime)
                except ZeroDivisionError as exc:
                    return str(exc)
    raise AssertionError("no constant's denominator vanishes mod the prime")


def mutate_certificate(rng: random.Random, cert: NullstellensatzCertificate,
                       seed: int, base: MutationBase | None = None) -> NullstellensatzCertificate:
    """One single-site, semantics-changing mutation of a random cofactor,
    or of a gate of C for a linear certificate (_mutate_linear).

    base is MutationBase(cert), made here if not given; only the mutated
    cofactor is written and read.  The claimed metrics are measured again,
    so every claim of the document but the identity still holds.
    mutate_lemmas changes a linear certificate's lemmas instead."""
    if cert.linear:
        return _mutate_linear(rng, cert, seed)
    base = base or MutationBase(cert)
    cofactors = base.cofactors
    for attempt in range(200):
        k = rng.randrange(len(cofactors))
        original = cofactors[k]
        try:
            mutated = _mutate_circuit(rng, original)
        except ValueError:
            continue
        if _semantically_differs(original, mutated, seed * 1000 + attempt):
            return base.certificate(k, mutated)
    raise AssertionError("could not find a semantics-changing mutation")


def _mutate_linear(rng: random.Random, cert: NullstellensatzCertificate,
                   seed: int) -> NullstellensatzCertificate:
    """One single-site change of a gate C reaches (_mutated_gate), laid
    into a fork of the table as a composed gate, hash-consed, with every
    gate above it that C reaches laid in again over the images of its
    arguments.  A change is kept when C stays homogeneous of degree 1 in
    the placeholders and C(x, F(x)) differs from 1 at a seeded point mod a
    large prime, so the mutant is refuted exactly; its claimed metric is
    C's new measure, so every other claim still holds."""
    from ipscert.verify import _degree_error, _identity
    prime = 2305843009213693967
    table, root = cert.table, cert.cofactors[0]
    reach = table._reach(root)
    variables = sorted({g.var for g in map(table.gate, reach) if g.op == VAR},
                       key=lambda v: v._key)
    for attempt in range(200):
        i = rng.choice(reach)
        g = _mutated_gate(rng, table.gate(i), lambda: variables)
        b = fork(table)
        lay = b._lay_in(0)
        image = {i: lay(g, None) if g.is_leaf() else lay(g.op, g.args)}
        for j in reach:
            args = table.gate(j).args
            if j > i and any([a in image for a in args]):
                image[j] = lay(table.gate(j).op, [image.get(a, a) for a in args])
        top = image.get(root, root)
        mutant = dataclasses.replace(cert, table=b, cofactors=(top,),
                                     claimed_metrics=(b.dag_metrics(top),))
        if _degree_error(mutant) is not None:
            continue
        identity, _, ordered = _identity(mutant)
        point = random.Random(f"mutcheck:{seed * 1000 + attempt}")
        columns = {v: (point.randrange(prime),) for v in ordered}
        if compile_evaluator(identity)(columns, 1, prime) != [1]:
            return mutant
    raise AssertionError("could not find a semantics-changing mutation")


LEMMA_MUTATIONS = ("drop", "swap", "reorder", "foreign", "literal")


def mutate_lemmas(rng: random.Random, doc: dict) -> tuple:
    """(kind, text): the nullstellensatz-cert/4 document doc, a dict, with
    one change of the kind to its lemmas, which leaves every other claim
    as it was: drop entry j, swap its two gates, move it to another place
    in the list, point one of its gates at a foreign gate (another gate of
    the table, or as often a name g<k> past the table's last line, which
    the reader refuses naming lemmas[j]), or cut at a literal: put before
    entry j a lemma that certifies a literal gate 1 - y of the table by
    y's placeholder, which holds, and makes that literal an unknown of
    every later check."""
    d = copy.deepcopy(doc)
    lemmas, table = d["lemmas"], d["table"]
    lines = dict(line.split(" = ", 1) for line in table)
    placeholder = {f"VAR {ax['label'].partition('^')[0]}": f"VAR {PLACEHOLDER_NS}{k}"
                   for k, ax in enumerate(d["axioms"])}
    line_of = {rhs: g for g, rhs in lines.items()}
    literals = []            # [1 - y, y's placeholder]
    for g, rhs in lines.items():
        words = rhs.split()
        if words[0] == "ADD" and len(words) == 3 and lines[words[1]] == "CONST 1/1":
            negated = lines[words[2]].split()
            if negated[0] == "MUL" and len(negated) == 3 and lines[negated[1]] == "CONST -1/1":
                z = line_of.get(placeholder.get(lines[negated[2]]))
                if z is not None:
                    literals.append([g, z])
    kinds = [kind for kind in LEMMA_MUTATIONS
             if (kind != "reorder" or len(lemmas) > 1) and (kind != "literal" or literals)]
    kind = rng.choice(kinds)
    j = rng.randrange(len(lemmas))
    if kind == "drop":
        del lemmas[j]
    elif kind == "swap":
        lemmas[j].reverse()
    elif kind == "reorder":
        lemmas.insert(rng.choice([k for k in range(len(lemmas)) if k != j]), lemmas.pop(j))
    elif kind == "foreign":
        lemmas[j][rng.randrange(2)] = f"g{rng.randrange(len(table)) + rng.choice((0, len(table)))}"
    else:
        lemmas.insert(j, rng.choice(literals))
    return kind, json.dumps(d, indent=2) + "\n"


def boolean_axiom_as_circuit(doc: dict, k: int, v: Var) -> None:
    """Rewrite doc's axioms[k], a /1 or a /2 document, as a circuit whose
    gates are exactly the layout of v^2 - v, the gates its poly text lays
    in: the formula's lines in /1, and in /2 those lines appended to the
    table with the circuit one OUTPUT line naming the last."""
    lines = format_circuit(poly_to_circuit(boolean_axiom(v))).splitlines()
    if "table" in doc:
        n = len(doc["table"])
        moved = [re.sub(r"\bg(\d+)", lambda m: f"g{int(m[1]) + n}", line) for line in lines]
        doc["table"] += moved[:-1]
        lines = moved[-1:]
    doc["axioms"][k] = {"label": doc["axioms"][k]["label"], "circuit": lines}


def certificate_to_json_v1(cert: NullstellensatzCertificate) -> str:
    """The reference writer of the older nullstellensatz-cert/1 document,
    which certificate_from_json still reads: each circuit is the text lines
    of its root laid out as a standalone formula (CircuitBuilder.lines)."""
    table = cert.table
    doc = {
        "format": "nullstellensatz-cert/1",
        "builder": cert.builder,
        "shift": f"{cert.shift.numerator}/{cert.shift.denominator}",
        "instance_sha256": cert.instance_sha256,
        "axioms": [{"label": label, "poly": format_poly(table.expand(ax))}
                   if k in cert.written_as_poly else {"label": label, "circuit": table.lines(ax)}
                   for k, (label, ax) in enumerate(cert.axioms)],
        "cofactors": [table.lines(r) for r in cert.cofactors],
        "metrics": [{"size": m.size, "depth": m.depth} for m in cert.claimed_metrics],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# A reference reader of circuit text: the general line rules alone, with no
# written-form shortcut, as an oracle for the parser and the table readers.

def reference_gate_lines(lines, names: dict | None = None):
    """Yield (leaf gate, None) or (ADD or MUL, argument positions) per gate
    line, a position counting the gate lines before, and last (None,
    position of the output).  Each leaf right-hand side is parsed once: a
    line repeating one shares its gate.  Raises ValueError naming the line
    of the first malformed line.

    Given a dict names, the lines are a gate table: names is filled with
    each gate id token's position, an OUTPUT line is malformed, and nothing
    follows the gate lines.
    """
    id_map: dict = {} if names is None else names   # gate id token -> position
    leaves: dict = {}        # leaf right-hand side -> its gate
    output = None

    def refs(toks: list) -> list:
        try:
            return [id_map[t] for t in toks]
        except KeyError as exc:
            raise ValueError(f"reference to undefined gate {exc.args[0]!r}") from None

    for lineno, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        try:
            if line.startswith("OUTPUT"):
                if names is not None:
                    raise ValueError("OUTPUT line in a gate table")
                if output is not None:
                    raise ValueError("multiple OUTPUT lines")
                toks = line.split()
                if len(toks) != 2:
                    raise ValueError("OUTPUT line must name exactly one gate")
                output = refs(toks[1:])[0]
                continue
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise ValueError("no '=' in a gate line")
            lhs = lhs.strip()
            num = lhs[1:]
            if not lhs.startswith("g") or not (num.isascii() and num.isdigit()):
                raise ValueError(f"bad gate id {lhs!r}")
            if lhs in id_map:
                raise ValueError(f"gate {lhs} defined twice")
            g = leaves.get(rhs)
            if g is not None:
                item = g, None
            else:
                kind, *ops = rhs.split() or (None,)
                if kind == ADD or kind == MUL:
                    if not ops:
                        raise ValueError(f"{kind} gate {lhs} has no children")
                    item = kind, refs(ops)
                elif kind == VAR or kind == CONST:
                    if len(ops) != 1:
                        raise ValueError(f"{kind} gate {lhs} needs exactly one operand")
                    g = leaves[rhs] = (Gate(VAR, var=parse_var(ops[0])) if kind == VAR
                                       else Gate(CONST, const=parse_frac(ops[0])))
                    item = g, None
                elif kind is None:
                    raise ValueError(f"gate {lhs} has no kind")
                else:
                    raise ValueError(f"unknown gate kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        id_map[lhs] = len(id_map)
        yield item
    if names is not None:
        return
    if output is None:
        raise ValueError("missing OUTPUT line")
    yield None, output


def reference_parse_circuit(text: str) -> Circuit:
    """parse_circuit by the reference reader."""
    gates: list = []
    for g, args in reference_gate_lines(text.splitlines()):
        if args is None:
            gates.append(g)
        elif g is None:
            return Circuit(gates, args)
        else:
            gates.append(Gate(g, args=args))


def reference_read_table(b: CircuitBuilder, lines, starting: int) -> dict:
    """CircuitBuilder.read_table by the reference reader: the first
    `starting` gates kept as starting gates, every later one hash-consed by
    its key, a leaf by its text and an ADD or MUL by its kind and argument
    ids; returns {gate id token: id}."""
    shared = b._shared
    names: dict = {}
    ids: list = []           # the id of each gate line, in order
    for g, args in reference_gate_lines(lines, names):
        key = _leaf_text(g) if args is None else (g, tuple([ids[a] for a in args]))
        if len(ids) < starting:
            b._starting.add(len(b._gates))
        elif key in shared:
            ids.append(shared[key])
            continue
        else:
            shared[key] = len(b._gates)
        ids.append(b._push(g if args is None else Gate(g, args=key[1])))
    return {name: ids[p] for name, p in names.items()}


def table_state(b: CircuitBuilder) -> tuple:
    """(gates, starting ids, key map) of a table, its gates as plain tuples."""
    return [(g.op, g.var, g.const, g.args) for g in b._gates], b._starting, b._shared

"""Shared test utilities: random formulas, polynomials, and cert mutations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ipscert.circuit import (
    ADD,
    CONST,
    Circuit,
    CircuitBuilder,
    Gate,
    MUL,
    VAR,
    _compact,
    as_circuit,
    compile_evaluator,
    eval_circuit_mod,
    format_circuit,
)
from ipscert.gadget import AddressingGadget, GadgetChild, GadgetLedger, LedgerEntry
from ipscert.instances import InstanceBundle, inverse_differences
from ipscert.poly import SparsePoly, Var, _Accumulator
from ipscert.refute import BUILDER_TAG, NullstellensatzCertificate

CORPUS_SEED = 20260810


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


def sparse_rows(dense) -> list:
    """The nonzero rows of a dense matrix as rank_matrix returns them:
    {column: Fraction} over each row's nonzero entries."""
    rows = [{c: Fraction(x) for c, x in enumerate(row) if x} for row in dense]
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


def gadget_poly(g: AddressingGadget) -> SparsePoly:
    """A(n, j) = prod_{B1} y_i * prod_{B0} (1 - y_i) by ring operations from
    the gadget's bit sets: an oracle for AddressingGadget.factors."""
    p = SparsePoly.constant(1)
    for bit in sorted(g.one_bits):
        p = p * SparsePoly.variable(g.vars[bit])
    for bit in sorted(g.zero_bits):
        p = p * (1 - SparsePoly.variable(g.vars[bit]))
    return p


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


def assert_folded(c: Circuit) -> None:
    """No ADD or MUL gate of c has only CONST arguments, and no MUL a CONST 0."""
    for g in c.gates:
        if not g.is_leaf():
            consts = [c.gates[a].const for a in g.args if c.gates[a].op == CONST]
            assert len(consts) < len(g.args)
            assert g.op != MUL or 0 not in consts


def shuffled_topological(rng: random.Random, c: Circuit, ledger: GadgetLedger) -> tuple:
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
    g = gates[i]
    if g.op == CONST:
        gates[i] = Gate(CONST, const=g.const + rng.choice((1, -1, 2)))
    elif g.op == VAR:
        others = [v for v in c.variables() if v != g.var]
        if others and rng.random() < 0.7:
            gates[i] = Gate(VAR, var=rng.choice(others))
        else:
            gates[i] = Gate(CONST, const=Fraction(rng.choice((0, 2))))
    elif len(g.args) >= 2 and rng.random() < 0.5:
        args = list(g.args)
        args.pop(rng.randrange(len(args)))
        gates[i] = Gate(g.op, args=tuple(args))
    else:
        gates[i] = Gate(MUL if g.op == ADD else ADD, args=g.args)
    return _compact(gates, c.output)


def certificate_of(axioms, cofactors, instance_sha256: str = "", shift=Fraction(-2),
                   builder: str = BUILDER_TAG) -> NullstellensatzCertificate:
    """A certificate of (label, Circuit | SparsePoly) axioms and Circuit
    (or SparsePoly) cofactors, each circuit written as text and read into a
    fresh table as certificate_from_json reads a document, so that it lays
    out again as given.  The claimed metrics are each cofactor's measure."""
    table = CircuitBuilder()

    def read(c: Circuit) -> int:
        return table.read(format_circuit(c).splitlines())

    axioms = tuple((label, ax if isinstance(ax, SparsePoly) else read(ax))
                   for label, ax in axioms)
    cofactors = tuple(read(as_circuit(cf)) for cf in cofactors)
    return NullstellensatzCertificate(table, axioms, cofactors,
                                      tuple(table.metrics(r) for r in cofactors),
                                      instance_sha256, Fraction(shift), builder)


def laid_out(cert: NullstellensatzCertificate) -> tuple:
    """(axioms, cofactors) of a certificate, each root laid out as its formula."""
    table = cert.table
    axioms = [(label, ax if isinstance(ax, SparsePoly) else table.formula(ax))
              for label, ax in cert.axioms]
    return axioms, [table.formula(cf) for cf in cert.cofactors]


def mutate_certificate(rng: random.Random, cert: NullstellensatzCertificate,
                       seed: int) -> NullstellensatzCertificate:
    """One single-site, semantics-changing mutation of a random cofactor.

    The claimed metrics are measured again, so every claim of the document
    but the identity still holds."""
    axioms, cofactors = laid_out(cert)
    for attempt in range(200):
        k = rng.randrange(len(cofactors))
        original = cofactors[k]
        try:
            mutated = _mutate_circuit(rng, original)
        except ValueError:
            continue
        if _semantically_differs(original, mutated, seed * 1000 + attempt):
            cofactors[k] = mutated
            return certificate_of(
                axioms, cofactors,
                instance_sha256=cert.instance_sha256,
                shift=cert.shift,
            )
    raise AssertionError("could not find a semantics-changing mutation")

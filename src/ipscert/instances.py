"""Hard-instance families and their functional refutations.

Three families:

  * the inductive interval polynomial over u with split selectors v:
    the empty interval computes 1, and an even interval [i, j] computes

        (1 + u_i u_j) * f_{i+1, j-1} + sum_r v_{i,r,j} * f_{i,r} * f_{r+1,j}

    where r ranges over the interior endpoints that cut [i, j] into two
    even halves ((len-2)/2 of them).  Interval gates are memoized, so the
    result is a polynomial-size syntactically multilinear DAG.

  * the gadgeted variant over u and control variables w: each interval
    owns w_top and w_leaf plus an address block selecting one valid split
    through an addressing gadget.  Its value over the Boolean cube is
    always 0 or 1, so 2 - P is unsatisfiable and (1 + P)/2 is its unique
    multilinear functional refutation.

  * subset-sum instances sum(z) - beta with beta outside the achievable
    range, refuted by g = sum_k alpha_k e_k(z).  The lifted variant
    substitutes z_e -> z_e x_i x_j and multilinearizes; its graded pieces
    contain the clique polynomials.

Every functional refutation comes from one rule: if f takes values in
{0..k} on the cube, f - beta is refuted by q(f) = sum_j D_j binom(f, j),
D_j the forward differences of 1/(t - beta) at 0 (inverse_differences).
On the cube binom(sum z, j) = e_j(z), so the alphas are the D_j, and a
0/1-valued f has binom(f, 1) = f: k = 1 gives mnc's (1 + P)/2 and
refute's instance cofactor.

Addressing deviation: an interval of length L has (L-2)/2 valid splits and
the address block is sized for exactly that many choices (the gadget's
arity parameter is (L-2)/2 - 1), with addresses numbering valid splits in
increasing order of the cut point (WVarSet.addresses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from operator import mul

from .circuit import Circuit, CircuitBuilder, Folding, expand
from .gadget import address_code, literal_gates, t_for
from .poly import TERM_GUARD, ResourceLimitError, SparsePoly, Var, elementary_sum


def uvar(i: int) -> Var:
    return Var("u", i)


def vvar(i: int, r: int, j: int) -> Var:
    return Var("v", i, r, j)


def wvar(i: int, j: int, which) -> Var:
    return Var("w", i, j, which)


def valid_splits(i: int, j: int) -> tuple:
    """Interior cut points r splitting [i, j] into two even intervals."""
    length = j - i + 1
    if length < 0 or length % 2:
        raise ValueError(f"interval [{i},{j}] does not have even length")
    return tuple(r for r in range(i + 1, j) if (r - i) % 2 == 1)


@dataclass(frozen=True)
class WVarSet:
    """Control variables owned by one interval of the gadgeted family."""

    i: int
    j: int
    w_top: Var
    w_leaf: Var
    address_vars: tuple
    splits: tuple      # valid_splits(i, j); address idx selects splits[idx]
    addresses: tuple   # per split, the code of its address (gadget.address_code)


@cache
def interval_wvarsets(n: int) -> tuple:
    """The control variables of gadgeted_ry_circuit(n), one WVarSet per interval.

    Every even-length interval of [1, 2n] is reached by the recursion, so
    this lists them directly, by length and then left end, without building
    the circuit.  The sets are immutable and made once per n: rank builds P
    under a witness per partition, from the same sets.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    wsets = []
    for length in range(2, 2 * n + 1, 2):
        for i in range(1, 2 * n - length + 2):
            j = i + length - 1
            splits = valid_splits(i, j)
            t = t_for(len(splits) - 1) if splits else -1
            avars = tuple(wvar(i, j, bit) for bit in range(t + 1))
            addresses = tuple(address_code(idx, avars) for idx in range(len(splits)))
            wsets.append(WVarSet(i=i, j=j, w_top=wvar(i, j, "top"), w_leaf=wvar(i, j, "leaf"),
                                 address_vars=avars, splits=splits, addresses=addresses))
    return tuple(wsets)


@dataclass
class InstanceBundle:
    """An unsatisfiable instance paired with its functional refutation."""

    name: str
    params: dict
    instance: object      # SparsePoly or Circuit
    refutation: object    # SparsePoly or Circuit
    provenance: dict = field(default_factory=dict)

    def instance_poly(self) -> SparsePoly:
        return expand(self.instance) if isinstance(self.instance, Circuit) else self.instance

    def refutation_poly(self) -> SparsePoly:
        return expand(self.refutation) if isinstance(self.refutation, Circuit) else self.refutation


def functional_identity_holds(bundle: InstanceBundle) -> bool:
    """reduce(refutation * instance) == 1, the defining property."""
    product = bundle.instance_poly().multilinear_product(bundle.refutation_poly())
    return product == SparsePoly.constant(1)


def _interval_dag(n: int, node, b) -> int:
    """The interval recursion over [1, 2n], memoized, in one builder b (a
    CircuitBuilder or a Folding); returns the root's id or handle.

    node(b, leaf, gate, i, j) adds interval [i, j]'s gates and returns its
    id; leaf(v) is the one VAR gate of a u or v variable, and gate(i, j) the
    id of a subinterval, or None for the empty interval.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    leaves: dict = {}
    memo: dict = {}

    def leaf(v: Var) -> int:
        if v not in leaves:
            leaves[v] = b.var(v)
        return leaves[v]

    def gate(i: int, j: int):
        if j < i:
            return None
        if (i, j) not in memo:
            memo[i, j] = node(b, leaf, gate, i, j)
        return memo[i, j]

    return gate(1, 2 * n)


def ry_circuit(n: int) -> Circuit:
    """The interval-recursion polynomial over u_1..u_2n and split vars v."""
    def node(b, leaf, gate, i, j):
        pair = b.add([b.const(1), b.mul([leaf(uvar(i)), leaf(uvar(j))])])
        inner = gate(i + 1, j - 1)
        terms = [pair if inner is None else b.mul([pair, inner])]
        terms += [b.mul([leaf(vvar(i, r, j)), gate(i, r), gate(r + 1, j)])
                  for r in valid_splits(i, j)]
        return terms[0] if len(terms) == 1 else b.add(terms)

    b = CircuitBuilder()
    return b.build(_interval_dag(n, node, b))


def gadgeted_ry_circuit(n: int, assignment=None) -> tuple:
    """The Boolean-valued gadgeted variant; returns (circuit, interval vars).

    Given an assignment of variables, P is built with it folded in by
    Folding's rule: the circuit computes partial_evaluate(P, assignment)
    and is folded as that is, and a split's halves are built only where its
    address factors leave the summand live.  With none, every gate is made,
    in the order of P's text.
    """
    wsets = interval_wvarsets(n)
    by_interval = {(ws.i, ws.j): ws for ws in wsets}

    def node(b, leaf, gate, i, j):
        ws = by_interval[i, j]
        # (1 - w_leaf) + w_leaf * u_i * u_j
        leaf_factor = b.add([b.complement(ws.w_leaf),
                             b.mul([b.var(ws.w_leaf), leaf(uvar(i)), leaf(uvar(j))])])
        inner = gate(i + 1, j - 1)
        # 1 - w_top comes after the inner interval's gates: the order is the text.
        branch_leaf = b.mul([b.complement(ws.w_top), leaf_factor]
                            + ([] if inner is None else [inner]))
        if not ws.splits:
            return branch_leaf

        def summand(code, r):
            # Each factor is made as the product takes it: a zero factor
            # ends the product, so the halves it zeroes are never built.
            yield from literal_gates(b, code)
            yield gate(i, r)
            yield gate(r + 1, j)

        terms = [b.mul(summand(code, r)) for code, r in zip(ws.addresses, ws.splits)]
        sum_gate = b.add(terms)    # before VAR w_top: the order is the text
        return b.add([branch_leaf, b.mul([b.var(ws.w_top), sum_gate])])

    f = Folding(assignment)
    return f.build(_interval_dag(n, node, f)), wsets


def mnc_instance(n: int) -> InstanceBundle:
    """Instance 2 - P with functional refutation (1 + P)/2, constants first."""
    p, wsets = gadgeted_ry_circuit(n)
    q0, q1 = inverse_differences(1, 2)   # P - 2 is refuted by q0 + q1*P
    b = CircuitBuilder()
    two, minus_one, half, one = (b.const(c) for c in (2, -1, -q1, q0 / q1))
    pid = b.keep(p)
    instance = b.add([two, b.mul([minus_one, pid])])
    refutation = b.mul([half, b.add([one, pid])])
    return InstanceBundle(
        name="mnc",
        params={"n": n},
        instance=b.subcircuit(instance),
        refutation=b.subcircuit(refutation),
        provenance={
            "generator": "mnc",
            "n": n,
            "u_vars": 2 * n,
            "w_vars": sum(2 + len(ws.address_vars) for ws in wsets),
            "split_convention": "addresses number the (len-2)/2 valid even splits",
        },
    )


def inverse_differences(k: int, beta) -> list:
    """Forward differences D_0..D_k of 1/(t - beta) at 0, by one difference
    table: sum_j D_j binom(t, j) interpolates 1/(t - beta) on {0..k}.  A
    beta in {0..k} is a pole on the image: the instance is satisfiable."""
    beta = Fraction(beta)
    if beta.denominator == 1 and 0 <= beta <= k:
        raise ValueError(f"beta = {beta} lies in the image {{0..{k}}}; instance satisfiable")
    row = [1 / (t - beta) for t in range(k + 1)]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def _subset_sum_over(terms: list, beta, name: str, params: dict) -> InstanceBundle:
    """sum(terms) - beta for m monic monomial terms, 0/1 on the cube, refuted
    by sum_k alpha_k e_k(terms), multilinearized: each subset S of the terms
    gives one term, alpha_|S| times their product.  Each term has a z
    variable of its own and every alpha_k is nonzero, so the refutation has
    2^m terms, and one over the guard is refused before any is listed."""
    m = len(terms)
    beta = Fraction(m + 1 if beta is None else beta)
    alphas = inverse_differences(m, beta)
    if 1 << m > TERM_GUARD:
        raise ResourceLimitError(f"refutation of 2^{m} terms is over the dense-size guard")
    instance = sum(terms, SparsePoly.zero()) - beta
    return InstanceBundle(
        name=name,
        params=params,
        instance=instance,
        refutation=elementary_sum(terms, alphas),
        provenance={
            "generator": name,
            "beta": f"{beta.numerator}/{beta.denominator}",
            "alphas": [f"{a.numerator}/{a.denominator}" for a in alphas],
            **params,
        },
    )


def subset_sum(n_vars: int, beta=None) -> InstanceBundle:
    """Instance z_1 + ... + z_n - beta with its multilinear refutation.

    beta defaults to n_vars + 1, just past the largest achievable sum.
    """
    if n_vars < 1:
        raise ValueError("n must be at least 1")
    zvars = [SparsePoly.variable(Var("z", i)) for i in range(1, n_vars + 1)]
    return _subset_sum_over(zvars, beta, "subset-sum", {"n_vars": n_vars})


def lifted_subset_sum(n: int, beta=None) -> InstanceBundle:
    """Instance sum_{i<j} z_ij x_i x_j - beta, refuted by monomial substitution.

    The refutation of the flat instance over the pair variables is carried
    through z_e -> z_e x_i x_j and multilinearized.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    x = {i: SparsePoly.variable(Var("x", i)) for i in range(1, n + 1)}
    lifted = [SparsePoly.variable(Var("z", i, j)) * x[i] * x[j]
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bundle = _subset_sum_over(lifted, beta, "lifted-subset-sum", {"n": n})
    bundle.provenance["lift"] = "z_ij -> z_ij * x_i * x_j, then multilinearized"
    return bundle


def no_target(family: str, beta) -> None:
    """Only the subset-sum families have a target: for any other, a beta is an error."""
    if beta is not None:
        raise ValueError(f"family {family} takes no --beta")


def _mnc(n: int, beta) -> InstanceBundle:
    """The registry's mnc builder: mnc has no target."""
    no_target("mnc", beta)
    return mnc_instance(n)


# The families with a functional refutation, by name: builder(n, beta) ->
# InstanceBundle, where beta is the subset-sum target (None for the default)
# and mnc takes none.  The builders are looked up at call time, so a wrapper
# installed on the module function (as perfbench's tracer does) sees them.
FAMILIES = {
    "mnc": _mnc,
    "subset-sum": lambda n, beta: subset_sum(n, beta),
    "lifted-subset-sum": lambda n, beta: lifted_subset_sum(n, beta),
}


def extract_clique_component(g: SparsePoly, n: int, ell: int) -> SparsePoly:
    """Terms with exactly binom(ell,2) z-variables and ell x-variables, monic.

    For the lifted subset-sum refutation the only edge sets of that shape
    are complete graphs on ell vertices, so the component is the clique
    polynomial (after dividing out its uniform coefficient).
    """
    if not g.is_multilinear():
        raise ValueError("clique extraction expects a multilinear polynomial")
    want_z = math.comb(ell, 2)
    out, lead = SparsePoly.zero(), None
    for m, c in g.items():
        zc = sum(1 for v, _ in m if v.ns == "z")
        xc = sum(1 for v, _ in m if v.ns == "x")
        if zc == want_z and xc == ell:
            lead = c if lead is None else lead
            out = out + reduce(mul, (SparsePoly.variable(v) for v, _ in m), c / lead)
    return out

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
    range.  The functional refutation is a combination of elementary
    symmetric polynomials g = sum_k alpha_k e_k(z); on a point with k ones
    the instance equals k - beta and e_j contributes binom(k, j), so the
    alphas solve the triangular system
    sum_{j<=k} alpha_j binom(k, j) = 1/(k - beta).  The lifted variant
    substitutes z_e -> z_e x_i x_j and multilinearizes; its graded pieces
    contain the clique polynomials.

Addressing deviation: an interval of length L has (L-2)/2 valid splits and
the address block is sized for exactly that many choices (the gadget's
arity parameter is (L-2)/2 - 1), with addresses numbering valid splits in
increasing order of the cut point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import Circuit, CircuitBuilder, expand
from .gadget import AddressingGadget, t_for
from .poly import SparsePoly, Var, mono_from_pairs


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
    product = bundle.instance_poly() * bundle.refutation_poly()
    return product.multilinear_reduce() == SparsePoly.constant(1)


def ry_circuit(n: int) -> Circuit:
    """The interval-recursion polynomial over u_1..u_2n and split vars v."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = CircuitBuilder()
    leaves: dict = {}

    def leaf(v: Var) -> int:
        if v not in leaves:
            leaves[v] = b.var(v)
        return leaves[v]

    memo: dict = {}

    def gate(i: int, j: int):
        """Gate id for the interval polynomial, or None for the empty interval."""
        if j < i:
            return None
        key = (i, j)
        if key in memo:
            return memo[key]
        pair = b.add([b.const(1), b.mul([leaf(uvar(i)), leaf(uvar(j))])])
        inner = gate(i + 1, j - 1)
        branch = pair if inner is None else b.mul([pair, inner])
        terms = [branch]
        for r in valid_splits(i, j):
            terms.append(b.mul([leaf(vvar(i, r, j)), gate(i, r), gate(r + 1, j)]))
        node = terms[0] if len(terms) == 1 else b.add(terms)
        memo[key] = node
        return node

    return b.build(gate(1, 2 * n))


def gadgeted_ry_circuit(n: int) -> tuple:
    """The Boolean-valued gadgeted variant; returns (circuit, interval vars)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = CircuitBuilder()
    leaves: dict = {}
    wsets: list = []

    def leaf(v: Var) -> int:
        if v not in leaves:
            leaves[v] = b.var(v)
        return leaves[v]

    memo: dict = {}

    def gate(i: int, j: int):
        if j < i:
            return None
        key = (i, j)
        if key in memo:
            return memo[key]
        w_top = wvar(i, j, "top")
        w_leaf = wvar(i, j, "leaf")
        # (1 - w_leaf) + w_leaf * u_i * u_j
        leaf_factor = b.add([b.complement(w_leaf),
                             b.mul([b.var(w_leaf), leaf(uvar(i)), leaf(uvar(j))])])
        inner = gate(i + 1, j - 1)
        factors = [b.complement(w_top), leaf_factor]
        if inner is not None:
            factors.append(inner)
        branch_leaf = b.mul(factors)
        splits = valid_splits(i, j)
        if splits:
            t = t_for(len(splits) - 1)
            avars = tuple(wvar(i, j, bit) for bit in range(t + 1))
            terms = []
            for idx, r in enumerate(splits):
                gd = AddressingGadget.build(len(splits) - 1, idx, avars)
                fac = []
                for bit in range(gd.t + 1):
                    fac.append(b.var(avars[bit]) if bit in gd.one_bits
                               else b.complement(avars[bit]))
                terms.append(b.mul(fac + [gate(i, r), gate(r + 1, j)]))
            sum_gate = terms[0] if len(terms) == 1 else b.add(terms)
            branch_split = b.mul([b.var(w_top), sum_gate])
            node = b.add([branch_leaf, branch_split])
        else:
            avars = ()
            node = branch_leaf
        wsets.append(WVarSet(i=i, j=j, w_top=w_top, w_leaf=w_leaf, address_vars=avars))
        memo[key] = node
        return node

    root = gate(1, 2 * n)
    wsets.sort(key=lambda ws: (ws.j - ws.i, ws.i))
    return b.build(root), tuple(wsets)


def mnc_instance(n: int) -> InstanceBundle:
    """Instance 2 - P with functional refutation (1 + P)/2."""
    from .circuit import cadd, cconst, cscale

    p, wsets = gadgeted_ry_circuit(n)
    instance = cadd(cconst(2), cscale(-1, p))
    refutation = cscale(Fraction(1, 2), cadd(cconst(1), p))
    return InstanceBundle(
        name="mnc",
        params={"n": n},
        instance=instance,
        refutation=refutation,
        provenance={
            "generator": "mnc",
            "n": n,
            "u_vars": 2 * n,
            "w_vars": sum(2 + len(ws.address_vars) for ws in wsets),
            "split_convention": "addresses number the (len-2)/2 valid even splits",
        },
    )


def subset_sum_alphas(n_vars: int, beta: Fraction) -> list:
    """Solve sum_{j<=k} alpha_j binom(k, j) = 1/(k - beta) for k = 0..n_vars."""
    alphas: list = []
    for k in range(n_vars + 1):
        value = Fraction(1, 1) / (k - beta)
        for j, a in enumerate(alphas):
            value -= a * math.comb(k, j)
        alphas.append(value)
    return alphas


def _subset_sum_over(vars_: tuple, beta: Fraction, name: str, params: dict) -> InstanceBundle:
    instance = SparsePoly({mono_from_pairs([(v, 1)]): Fraction(1) for v in vars_})
    instance = instance - beta
    alphas = subset_sum_alphas(len(vars_), beta)
    terms: dict = {}
    for k in range(len(vars_) + 1):
        if not alphas[k]:
            continue
        for combo in itertools.combinations(vars_, k):
            terms[mono_from_pairs([(v, 1) for v in combo])] = alphas[k]
    refutation = SparsePoly(terms)
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


def subset_sum(n_vars: int, beta=None) -> InstanceBundle:
    """Instance z_1 + ... + z_n - beta with its multilinear refutation.

    beta defaults to n_vars + 1, just past the largest achievable sum.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    beta = Fraction(n_vars + 1) if beta is None else Fraction(beta)
    if beta.denominator == 1 and 0 <= beta <= n_vars:
        raise ValueError(f"beta = {beta} is an achievable subset sum; instance satisfiable")
    zvars = tuple(Var("z", i) for i in range(1, n_vars + 1))
    return _subset_sum_over(zvars, beta, "subset-sum", {"n_vars": n_vars})


def lifted_subset_sum(n: int, beta=None) -> InstanceBundle:
    """Instance sum_{i<j} z_ij x_i x_j - beta, refuted by monomial substitution.

    The refutation of the flat instance over the pair variables is carried
    through z_e -> z_e x_i x_j and multilinearized.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    m = len(pairs)
    beta = Fraction(m + 1) if beta is None else Fraction(beta)
    if beta.denominator == 1 and 0 <= beta <= m:
        raise ValueError(f"beta = {beta} is an achievable sum; instance satisfiable")
    zvars = tuple(Var("z", i, j) for i, j in pairs)
    flat = _subset_sum_over(zvars, beta, "lifted-subset-sum", {"n": n})
    substitution = {}
    for (i, j), zv in zip(pairs, zvars):
        substitution[zv] = SparsePoly({mono_from_pairs(
            [(zv, 1), (Var("x", i), 1), (Var("x", j), 1)]): Fraction(1)})
    instance = flat.instance_poly().substitute(substitution).multilinear_reduce()
    refutation = flat.refutation_poly().substitute(substitution).multilinear_reduce()
    flat.instance = instance
    flat.refutation = refutation
    flat.provenance["lift"] = "z_ij -> z_ij * x_i * x_j, then multilinearized"
    return flat


# The families with a functional refutation, by name: builder(n, beta) ->
# InstanceBundle, where beta is the subset-sum target (None for the default)
# and mnc takes none.  The builders are looked up at call time, so a wrapper
# installed on the module function (as perfbench's tracer does) sees them.
FAMILIES = {
    "mnc": lambda n, beta: mnc_instance(n),
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
    kept: dict = {}
    for m, c in g.terms.items():
        zc = sum(1 for v, _ in m if v.ns == "z")
        xc = sum(1 for v, _ in m if v.ns == "x")
        if zc == want_z and xc == ell:
            kept[m] = c
    if not kept:
        return SparsePoly.zero()
    from .poly import mono_key

    lead = kept[min(kept, key=mono_key)]
    return SparsePoly({m: c / lead for m, c in kept.items()})

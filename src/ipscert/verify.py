"""Certificate verification: exact, probabilistic, and Boolean-image checks.

Both verifiers take a NullstellensatzCertificate: one gate table with a
root id per axiom and cofactor (see refute), every axiom alike.  Its
identity is C(x, F(x)) = 1 for a linear certificate, whose one cofactor C
is linear in the placeholders fresh<k>, and otherwise
sum(cofactor * axiom) = 1.  The linear identity is the table with each
placeholder pointed at its axiom's root, built by one ascending pass that
lays the gates above placeholders in again (_substituted).

verify_exact checks the linear identity gate by gate when the certificate
lists lemmas (a nullstellensatz-cert/4 document): each lemma (s, C_s)
claims C_s(x, F(x)) = s^2 - s and is checked by one small expansion in
which s's arguments and the other listed gates are unknowns A_{s'}, the
C_{s'} of earlier lemmas are A_{s'}^2 - A_{s'} and each placeholder is its
axiom; then C so expanded must be 1.  Setting A_{s'} := s'(x) is a ring
homomorphism, so by induction over the lemmas this proves C(x, F(x)) = 1
whatever gates the list names.  A lemma or a last check that fails, or
trips the guard, sends the certificate to the full expansion, which
expands the linear identity once and gives every report it gave before
lemmas, verdict, detail and witness alike.  A per-pair certificate is
summed pair by pair, with the placeholder discipline: cofactors may not
mention the reserved placeholder namespace, so the induced substitution
circuit sum_k placeholder_k * cofactor_k vanishes at placeholder zero and
is linear in every placeholder.  Each pair is expanded on its own, its
axiom and cofactor over one sweep of the two roots.

verify_pit evaluates the same identity at seeded uniform points over a
large prime field (default: the 62-bit prime 2^62 - 57).  A false accept
happens with probability at most D/prime per trial, D the identity's formal
degree (Schwartz-Zippel), so a prime at or below D is refused; a genuinely
valid certificate is never rejected.  The identity is one root, C(x, F(x))
or the sum of MUL(axiom_k, cofactor_k), on a copy of the certificate's
gate table (hash-consed when read from a document); the gates it reaches
are swept once in the table, with no standalone copy, and walked for D and
to compile them, run once over all trials as one batch, so a gate shared
by many cofactors is evaluated once.  A constant whose denominator vanishes
mod the prime is named as the first such in the written order of the roots
(the axioms, then C; or axioms and cofactors, pair by pair), found by
visiting each gate once.  Trial points are derived from (seed, trial
index), so identical configurations produce identical reports.

check_claims checks what a certificate document claims besides the
identity (the Boolean axioms, the instance and its shift and hash, that C
is homogeneous of degree 1 in the placeholders, the metrics; see its
docstring).  ipscert verify runs it first, in both modes (verify
--instance FILE gives the circuit).  verify_exact and verify_pit check the
identity, and first that it refutes the axioms at all: a linear
certificate's C must be homogeneous of degree 1 in the placeholders, so
that C(x, 0) = 0 (_shape_error).  That pass over C runs once per
certificate: its verdict is kept on the certificate (degree_checked), so
check_claims and the verifier after it share it.

boolean_image enumerates the value set of a circuit over the Boolean cube,
exhaustively when the variable count is small and by seeded sampling
otherwise.  Both modes evaluate the circuit as value masks (bit-slicing,
Biham, FSE 1997): each point is one bit of a big int, and each gate holds
{value: mask of the points where it takes that value}, so a pair of
argument values costs one AND over all the points at once.  The exhaustive
points are the 2^k bits of periodic column masks; the sampled points are
those of rng.randrange(2) drawn per point and variable, drawn in bulk from
whole Mersenne Twister words.  A gate that takes more than _MASK_VALUES
values sends the whole image to the pointwise paths: the exhaustive image
becomes a zeta transform of the multilinear coefficients (the value at the
point with support S is the sum of the coefficients of the monomials inside
S), and the sampled image is evaluated point by point in fixed-size batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from .circuit import (ADD, CONST, MUL, VAR, Circuit, _expand, _sweep,
                      circuit_sha256, compile_evaluator, expand)
from .poly import (RESERVED_NS, TERM_GUARD, ResourceLimitError, SparsePoly, Var, _Accumulator,
                   boolean_axiom, format_frac, frac_mod, fresh_slots, subset_transform)
from .refute import (PLACEHOLDER_NS, NullstellensatzCertificate, boolean_axiom_label,
                     is_boolean_axiom)

# 2^62 - 57, the largest 62-bit prime; comfortably above 2^61.
DEFAULT_PIT_PRIME = 4611686018427387847

# The first 13 primes.  Miller-Rabin to these bases is deterministic below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson & Webster, Math. Comp. 2017); PitConfig takes no prime from
# there on.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: deterministic for n < _MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PitConfig:
    """Parameters for probabilistic identity testing over GF(prime)."""

    prime: int = DEFAULT_PIT_PRIME
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.prime == 2:
            raise ValueError("prime 2 is excluded (the constructions divide by 2)")
        if self.prime >= _MR_BOUND:
            raise ValueError(f"prime {self.prime} is not below {_MR_BOUND}, the bound under "
                             "which the primality test is exact")
        if not is_probable_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass
class VerifyReport:
    """Outcome of a verification run.

    verdict is one of verified-exact, verified-probabilistic, refuted,
    error; a refuted report carries a concrete falsifying assignment.
    """

    verdict: str
    detail: str = ""
    witness: dict | None = None
    work: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("verified-exact", "verified-probabilistic")

    def exit_code(self) -> int:
        if self.ok:
            return 0
        if self.verdict == "refuted":
            return 1
        return 2

    def to_jsonable(self) -> dict:
        doc = {"verdict": self.verdict, "detail": self.detail, "work": self.work}
        if self.witness is not None:
            doc["witness"] = {v.name: str(val) for v, val in self.witness.items()}
        return doc


def _nonzero_witness(p: SparsePoly) -> dict:
    """A rational point where the nonzero polynomial p does not vanish.

    Fixes variables one at a time: a polynomial of degree d in v cannot
    vanish identically at d+1 distinct values of v.
    """
    point: dict = {}
    current = p
    for v in p.variables():
        d = current.degree_in(v)
        for val in range(d + 1):
            restricted = current.restrict(v, val)
            if restricted:
                point[v] = Fraction(val)
                current = restricted
                break
        else:
            raise AssertionError("nonzero polynomial vanished at every probe")
    return point


def verify_exact(cert: NullstellensatzCertificate) -> VerifyReport:
    """Check the certificate's identity by exact expansion: C(x, F(x)) = 1
    for a linear certificate, and otherwise sum(cofactor * axiom) = 1, pair
    by pair.

    A linear certificate with lemmas (a /4 document) is checked gate by
    gate first (_lemmas_hold, see the module docstring).  If a lemma or the
    last check fails, or trips the guard, or the certificate has no lemmas,
    C(x, F(x)) is expanded once (_substituted), and that expansion gives
    the report, as it would without lemmas.

    Pair by pair, in order, the axiom and the cofactor are expanded over
    one sweep of the two roots, so a gate they share (the instance's f' and
    the functional refutation c0 + c1*f') is expanded once; a cofactor that
    mentions a placeholder is refused before the next pair is expanded, and
    cofactor * axiom is added to the sum.  Either way work counts two
    expansions per axiom, as verify_pit counts its evaluations."""
    error = _shape_error(cert)
    if error is not None:
        return error
    work = {"expansions": 2 * len(cert.axioms)}
    if cert.linear and _lemmas_hold(cert):
        return VerifyReport("verified-exact", work=work)
    if cert.linear:
        b, root = _substituted(cert)
        residual = b.expand(root) - SparsePoly.constant(1)
        detail = "cofactors[0]: C(x, F(x)) - 1 is not the zero polynomial"
    else:
        gates = cert.table._gates
        total = _Accumulator()
        for (label, ax), cf in zip(cert.axioms, cert.cofactors):
            polys: dict = {}
            cf_p = _expand(gates, _sweep(gates, (ax, cf)), cf, polys)
            for v in cf_p.variables():
                if v.ns == PLACEHOLDER_NS:
                    return VerifyReport("error", detail=f"cofactor of {label} mentions "
                                                        f"placeholder variable {v.name}")
            total.add_product(cf_p, polys[ax])
        total.add(SparsePoly.constant(-1))
        residual = total.result()
        detail = "sum(cofactor * axiom) - 1 is not the zero polynomial"
    if residual.is_zero():
        return VerifyReport("verified-exact", work=work)
    return VerifyReport("refuted", detail=detail, witness=_nonzero_witness(residual), work=work)


def _shape_error(cert: NullstellensatzCertificate) -> VerifyReport | None:
    """The error report of a certificate whose identity proves nothing: one
    with the wrong number of cofactors (one, C, when it is linear, and
    otherwise one per axiom), or a linear one whose C is not homogeneous of
    degree 1 in the placeholders (_degree_error, run once per certificate
    and C: its verdict is kept in cert.degree_checked), without which
    C(x, F(x)) = 1 does not refute the axioms."""
    if cert.linear and len(cert.cofactors) != 1:
        return VerifyReport("error", detail="a linear certificate has one cofactor, C")
    if not cert.linear and len(cert.axioms) != len(cert.cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    if not cert.linear:
        return None
    key = (cert.cofactors[0], len(cert.axioms))
    if cert.degree_checked is None or cert.degree_checked[:2] != key:
        cert.degree_checked = (*key, _degree_error(cert))
    error = cert.degree_checked[2]
    if error is not None:
        return VerifyReport("error", detail=f"cofactors[0]: {error}")
    return None


def check_claims(cert: NullstellensatzCertificate,
                 instance: Circuit | None = None) -> VerifyReport | None:
    """An error report for the first claim of the certificate that does not
    hold, in this order, or None when every claim holds.  The detail names
    the field:
      * each axiom k after the instance names a new variable v by its label
        "v^2-v": axioms[k].label; it is written as poly text that lays
        out as v^2 - v (refute.is_boolean_axiom): axioms[k].poly;
      * axiom 0 has the instance label f: axioms[0].label;
      * axiom 0 is a circuit whose root is ADD(f', CONST c):
        axioms[0].circuit;
      * c is the shift, which lies outside {0, -1}: shift;
      * axiom 0 lays out to no more lines than the table holds
        (CircuitBuilder.fits): axioms[0].circuit;
      * instance_sha256 is the SHA-256 of axiom 0's text: instance_sha256;
      * given an instance circuit, f' has its text: axioms[0].circuit;
      * a linear certificate's C is homogeneous of degree 1 in the
        placeholders, by one ascending pass over the gates it reaches (a
        placeholder fresh<k> naming axiom k has degree 1 and any other leaf
        0, a MUL sums its arguments' degrees, an ADD's arguments agree, and
        the root has degree 1), which names the first gate that breaks it:
        cofactors[0];
      * each claimed metric is its cofactor's measure, all measured over
        one sweep of the table: metrics[k].size, metrics[k].depth; C's is
        the size and depth of the DAG it reaches (CircuitBuilder.dag_metrics).
    """
    seen: set = set()
    for k, (label, ax) in enumerate(cert.axioms[1:], start=1):
        v = boolean_axiom_label(label)[0]
        if v is None:
            return VerifyReport("error", detail=f"axioms[{k}].label: {label!r} does not "
                                                "name a Boolean axiom v^2-v")
        if v in seen:
            return VerifyReport("error", detail=f"axioms[{k}].label: a second Boolean "
                                                f"axiom of {v.name}")
        seen.add(v)
        if k not in cert.written_as_poly or not is_boolean_axiom(cert.table, ax, v):
            return VerifyReport("error", detail=f"axioms[{k}].poly: not the Boolean axiom {label}")
    if cert.axioms and cert.axioms[0][0] != "f":
        return VerifyReport("error", detail=f"axioms[0].label: {cert.axioms[0][0]!r} is not "
                                            "the instance label 'f'")
    table = cert.table
    root = cert.axioms[0][1] if cert.axioms else None
    g = None if root is None else table.gate(root)
    if g is None or g.op != ADD or len(g.args) != 2 or table.gate(g.args[1]).op != CONST:
        return VerifyReport("error", detail="axioms[0].circuit: not an instance "
                                            "ADD(f', CONST shift)")
    c = table.gate(g.args[1]).const
    if c != cert.shift:
        return VerifyReport("error", detail=f"shift: {format_frac(cert.shift)} is not the "
                                            f"constant {format_frac(c)} axiom 0 adds")
    if c in (0, -1):
        return VerifyReport("error", detail=f"shift: {format_frac(c)} leaves the instance "
                                            "satisfiable over the cube")
    if not table.fits(root):
        return VerifyReport("error", detail="axioms[0].circuit: lays out to more lines "
                                            "than the document holds")
    if table.sha256(root) != cert.instance_sha256:
        return VerifyReport("error", detail="instance_sha256: not the SHA-256 of the "
                                            "text of axiom 0")
    if instance is not None and table.sha256(g.args[0]) != circuit_sha256(instance):
        return VerifyReport("error", detail="axioms[0].circuit: f' is not the given "
                                            "instance circuit")
    if cert.linear:
        error = _shape_error(cert)
        if error is not None:
            return error
        measured = [table.dag_metrics(cert.cofactors[0])]
    else:
        measured = table.metrics(cert.cofactors)
    for k, (claimed, measured) in enumerate(zip(cert.claimed_metrics, measured)):
        for name, got, want in (("size", claimed.size, measured.size),
                                ("depth", claimed.depth, measured.depth)):
            if got != want:
                return VerifyReport("error", detail=f"metrics[{k}].{name}: claimed {got}, "
                                                    f"measured {want}")
    return None


def _axiom_of(v, axioms: int) -> int | None:
    """k when v is the placeholder fresh<k> of one of the axioms, else None."""
    if v.ns != PLACEHOLDER_NS or len(v.idx) != 1 or not isinstance(v.idx[0], int):
        return None
    return v.idx[0] if v.idx[0] < axioms else None


def _degree_error(cert: NullstellensatzCertificate) -> str | None:
    """Where a linear certificate's C is not homogeneous of degree 1 in the
    placeholders, or None: one ascending pass over the kept sweep of C
    (CircuitBuilder._reach), with the rules of check_claims."""
    table = cert.table
    gates, root, axioms = table._gates, cert.cofactors[0], len(cert.axioms)
    degree: dict = {}
    for i in table._reach(root):
        g = gates[i]
        if g.op == VAR:
            placeholder = _axiom_of(g.var, axioms) is not None
            if g.var.ns == PLACEHOLDER_NS and not placeholder:
                return f"g{i}: placeholder {g.var.name} names no axiom"
            degree[i] = int(placeholder)
        elif g.op == CONST:
            degree[i] = 0
        elif g.op == MUL:
            d = degree[i] = sum([degree[a] for a in g.args])
            if d > 1:
                return f"g{i}: a product of degree {d} in the placeholders"
        else:
            ds = {degree[a] for a in g.args}
            if len(ds) > 1:
                return f"g{i}: a sum of terms of degrees 0 and 1 in the placeholders"
            degree[i] = ds.pop()
    if degree[root] != 1:
        return f"g{root}: C has degree 0 in the placeholders"
    return None


def _lemmas_hold(cert: NullstellensatzCertificate) -> bool:
    """Whether a linear certificate's lemmas prove C(x, F(x)) = 1 (see the
    module docstring), checked one by one in order and then C itself, each by
    one expansion with cuts in a slot table of its own (_LemmaCheck);
    False when there are none, when a lemma's gate s is a leaf, when an
    axiom reaches a placeholder, or when an expansion trips the guard.
    Lemma (s, c) holds when c expands to A^2 - A, A being s expanded over
    its arguments' expansions."""
    lemmas, gates = cert.lemmas, cert.table._gates
    if not lemmas or any(not gates[s].args for s, _ in lemmas):
        return False
    if any(gates[i].op == VAR and gates[i].var.ns == PLACEHOLDER_NS
           for i in _sweep(gates, [ax for _, ax in cert.axioms])):
        return False
    check = _LemmaCheck(cert)
    try:
        for s, c in lemmas:
            with fresh_slots():
                polys = check.expand([c, *gates[s].args])
                a = _expand(gates, (s,), s, {x: polys[x] for x in gates[s].args})
                if polys[c] != a * a - a:
                    return False
            check.proven.setdefault(c, s)
        with fresh_slots():
            root = cert.cofactors[0]
            return check.expand([root])[root] == 1
    except ResourceLimitError:
        return False


class _LemmaCheck:
    """Expansions of a linear certificate's gates with cuts, for the lemma
    check: a gate c that a lemma (s, c) has proven is A_s^2 - A_s, else a
    lemma's gate s is the unknown A_s (Var(RESERVED_NS, s)), and a
    placeholder fresh<k> naming an axiom is axiom k, expanded with the same
    cuts (a Boolean axiom laid as refute.is_boolean_axiom reads it is
    v^2 - v); every other gate is expanded over its arguments
    (circuit._expand).

    Setting each A_s to s's own polynomial, with each placeholder pointed at
    its axiom, is a ring homomorphism that maps every gate's expansion here
    to its expansion in C(x, F(x)), once each proven c expands so: s^2 - s.
    By induction over the lemmas in order, then, lemmas that hold and a C
    that expands to 1 here prove C(x, F(x)) = 1, for any list of the
    table's gates, as long as no axiom reaches a placeholder (a gate s
    under an axiom is then its own polynomial there too)."""

    def __init__(self, cert: NullstellensatzCertificate):
        self.gates, self.axioms = cert.table._gates, cert.axioms
        self.unknowns = {s: Var(RESERVED_NS, s) for s, _ in cert.lemmas}
        self.proven: dict = {}   # c -> s, of each lemma that holds
        self.laid = {k: v for k, (label, ax) in enumerate(cert.axioms)
                     for v in [boolean_axiom_label(label)[0]]
                     if is_boolean_axiom(cert.table, ax, v)}   # axiom k -> its v

    def expand(self, roots: list) -> dict:
        """{gate id: polynomial} of the gates the roots reach, not entering
        a cut, in the current slot table."""
        gates, proven, unknowns = self.gates, self.proven, self.unknowns
        polys: dict = {}
        top = max(roots)
        reached = bytearray(top + 1)
        for r in roots:
            reached[r] = 1
        ids: list = []
        i = top
        while i >= 0:            # _sweep, not entering a cut
            if i in proven:
                polys[i] = boolean_axiom(unknowns[proven[i]])
            elif i in unknowns:
                polys[i] = SparsePoly.variable(unknowns[i])
            else:
                ids.append(i)
                for a in gates[i].args:
                    reached[a] = 1
            i -= 1
            if not reached[i]:
                i = reached.rfind(1, 0, i)
        ids.reverse()
        for i in ids:
            g = gates[i]
            k = _axiom_of(g.var, len(self.axioms)) if g.op == VAR else None
            if k in self.laid:
                polys[i] = boolean_axiom(self.laid[k])
            elif k is not None:
                ax = self.axioms[k][1]
                polys[i] = self.expand([ax])[ax]
        _expand(gates, [i for i in ids if i not in polys], top, polys)
        return polys


def _substituted(cert: NullstellensatzCertificate) -> tuple:
    """(b, root): C(x, F(x)) as the last gate of a copy b of a linear
    certificate's table, the table left as it was.  One ascending pass over
    the kept sweep of C points each placeholder fresh<k> that names an
    axiom at axiom k's root, and lays each gate above one in again over
    its arguments' images; every other gate is C's own."""
    table = cert.table
    b = table.copy()
    gates, root, axioms = table._gates, cert.cofactors[0], cert.axioms
    image: dict = {}
    for i in table._reach(root):
        g = gates[i]
        if g.op == VAR:
            k = _axiom_of(g.var, len(axioms))
            if k is not None:
                image[i] = axioms[k][1]
        elif any([a in image for a in g.args]):
            args = [image.get(a, a) for a in g.args]
            image[i] = b.add(args) if g.op == ADD else b.mul(args)
    root = image.get(root, root)
    return b, root if root == len(b._gates) - 1 else b.add([root])


def _identity(cert: NullstellensatzCertificate) -> tuple:
    """(identity, D, variables): a copy of the certificate's table whose
    last gate is the identity that must equal 1, with the certificate's
    table left as it was: C(x, F(x)) for a linear certificate
    (_substituted), and otherwise the sum of MUL(axiom_k, cofactor_k); the
    formal degree D of that gate; and the variables it reaches, in order.
    The ids it reaches are swept once and kept on the copy, where
    compile_evaluator reads them again.

    D is folded over those ids, ascending: a VAR has 1, a CONST 0, an ADD
    the max of its arguments', a MUL their sum.  It bounds the total degree
    from above."""
    if cert.linear:
        b, root = _substituted(cert)
    else:
        b = cert.table.copy()
        root = b.sum([b.mul([ax, cf]) for (_, ax), cf in zip(cert.axioms, cert.cofactors)])
    gates = b._gates
    degree = [0] * len(gates)
    variables = set()
    for i in b._reach(root):
        g = gates[i]
        if g.op == VAR:
            degree[i] = 1
            variables.add(g.var)
        elif g.op == ADD:
            degree[i] = max([degree[a] for a in g.args])
        elif g.op != CONST:
            degree[i] = sum([degree[a] for a in g.args])
    return b, degree[root], sorted(variables, key=lambda v: v._key)


def verify_pit(cert: NullstellensatzCertificate, cfg: PitConfig = PitConfig()) -> VerifyReport:
    """Probabilistic identity check at cfg.trials seeded points mod cfg.prime.

    The identity is compiled once and run once, over all trials as
    one batch; the report names the first failing trial, and work still
    counts two evaluations per axiom and trial up to it (the axiom and its
    cofactor, which in a linear certificate is its placeholder's
    coefficient in C).
    Raises ValueError when cfg.prime is at most the identity's formal degree
    D, where the Schwartz-Zippel bound D/prime per trial promises nothing.
    """
    error = _shape_error(cert)
    if error is not None:
        return error
    identity, degree, ordered = _identity(cert)
    if cfg.prime <= degree:
        raise ValueError(f"--prime {cfg.prime} is not above {degree}, the formal degree of "
                         "the identity, so a false identity could pass every trial")
    evaluations = 2 * len(cert.axioms)
    seeds = (f"pit:{cfg.seed}:{trial}" for trial in range(cfg.trials))
    points = [[rng.randrange(cfg.prime) for _ in ordered] for rng in map(random.Random, seeds)]
    try:
        totals = compile_evaluator(identity)(
            dict(zip(ordered, zip(*points))), cfg.trials, cfg.prime)
    except ZeroDivisionError:
        return VerifyReport("error", detail=_bad_constant(cert, cfg.prime))
    for trial, total in enumerate(totals):
        if total != 1 % cfg.prime:
            return VerifyReport(
                "refuted",
                detail=("cofactors[0]: C(x, F(x)) is not 1" if cert.linear else "identity failed")
                + f" at trial {trial} mod {cfg.prime}",
                witness=dict(zip(ordered, points[trial])),
                work={"evaluations": evaluations * (trial + 1), "trials": trial + 1})
    return VerifyReport(
        "verified-probabilistic",
        detail=f"{cfg.trials} trials mod {cfg.prime}",
        work={"evaluations": evaluations * cfg.trials, "trials": cfg.trials})


def _bad_constant(cert: NullstellensatzCertificate, prime: int) -> str:
    """The error of the first constant whose denominator vanishes mod prime,
    in the written order of the axioms and then C for a linear certificate,
    and otherwise of the axioms and cofactors pair by pair.

    Each gate the roots reach is visited once, ascending, for the first such
    constant of its layout (CircuitBuilder.lines): a composed gate's is its
    first argument's that has one, a starting gate's the lowest id among
    its arguments' and its own."""
    gates, starting = cert.table._gates, cert.table._starting
    if cert.linear:
        roots = [ax for _, ax in cert.axioms] + [*cert.cofactors]
    else:
        roots = [r for (_, ax), cf in zip(cert.axioms, cert.cofactors) for r in (ax, cf)]
    first: dict = {}         # gate id -> (id, error) of the first such constant of its layout
    for i in _sweep(gates, roots):
        g = gates[i]
        if g.op == CONST:
            try:
                frac_mod(g.const, prime)
            except ZeroDivisionError as exc:
                first[i] = (i, str(exc))
        found = [first[a] for a in g.args if a in first]
        if found:
            first[i] = min(found) if i in starting else found[0]
    for r in roots:
        if r in first:
            return first[r][1]
    raise AssertionError("no constant's denominator vanishes mod the prime")


# ---------------------------------------------------------------------------
# Boolean image.

@dataclass
class ImageReport:
    """Observed value set of a circuit over the Boolean cube."""

    values: frozenset
    exhaustive: bool
    points: int
    contained: bool | None = None


def boolean_image_poly(p: SparsePoly) -> frozenset:
    """Exact value set of a polynomial over all Boolean assignments.

    With the k variables of the multilinear reduction as bits, the value
    at the point with support S is a[S] = sum of c_T over T inside S.  The
    zeta transform (poly.subset_transform, which multilinear_product also
    runs) fills all 2^k sums of the integer numerators in place, one pass
    per variable, and each sum is divided by the one denominator at the
    end.  Raises ValueError if 2^k exceeds
    TERM_GUARD.
    """
    reduced = p.multilinear_reduce()
    vars_ = reduced.variables()
    size = 1 << len(vars_)
    if size > TERM_GUARD:
        raise ValueError(f"exhaustive Boolean image over {len(vars_)} variables "
                         f"needs 2^{len(vars_)} values, over the 2^24 guard")
    numerators, d = reduced.subset_masks(vars_)
    a = [0] * size
    for mask, n in numerators.items():
        a[mask] = n
    subset_transform(a, add)
    return frozenset(Fraction(v, d) for v in set(a))


# Points per chunk of the sampled bits, and per batch of the sampled image's
# pointwise path: one list per live gate of this many values.
_IMAGE_CHUNK = 1024
# Most points per mask of the sampled image: one int of this many bits per
# value of a live gate, whatever the sample count.
_MASK_CHUNK = 64 * _IMAGE_CHUNK
# rng.randrange(2) is getrandbits(2) with rejection: it takes one 32-bit
# word per try, rejects it when bit 31 is set and otherwise returns bit 30.
# getrandbits(32 * m) is m such words, lowest first, so in its little-endian
# bytes every fourth byte from byte 3 is the top byte of a word.
_TOP_BYTE_BIT = bytes(b >> 6 for b in range(256))
_REJECTED = bytes(range(128, 256))


def _sampled_bits(rng: random.Random, width: int, samples: int):
    """The Boolean points rng.randrange(2) would draw one coordinate at a
    time, width coordinates per point, as (count, bits) chunks of at most
    _IMAGE_CHUNK points: bits holds the count points one after another.
    Words are drawn in bulk; accepted bits left over from one chunk start
    the next, so the stream is never resynced."""
    pool = b""
    for start in range(0, samples, _IMAGE_CHUNK):
        count = min(_IMAGE_CHUNK, samples - start)
        want = count * width
        while len(pool) < want:
            words = 2 * (want - len(pool)) + 64   # half the words are accepted
            data = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            pool += data[3::4].translate(_TOP_BYTE_BIT, _REJECTED)
        yield count, pool[:want]
        pool = pool[want:]


def _cube_columns(vars_) -> dict:
    """Each variable's value mask over the 2^k points of its cube: point p
    gives variable j bit j of p, so its column is 2^j zeros then 2^j ones,
    repeated, doubled up from one such block by shifts."""
    size = 1 << len(vars_)
    columns = {}
    for j, v in enumerate(vars_):
        half = 1 << j
        col, span = ((1 << half) - 1) << half, 2 * half
        while span < size:
            col |= col << span
            span *= 2
        columns[v] = col
    return columns


# A sampled bit as the digit int(..., 2) reads.
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _sampled_columns(rng: random.Random, vars_, samples: int):
    """Each variable's value mask over the points _sampled_bits draws, as
    (count, columns) per run of count <= _MASK_CHUNK points: the first point
    of a run is the top bit of each of its columns."""
    width = len(vars_)
    columns, count = [0] * width, 0
    for start, (chunk, bits) in zip(range(0, samples, _IMAGE_CHUNK),
                                    _sampled_bits(rng, width, samples)):
        digits = bits.translate(_DIGIT)
        for j in range(width):
            columns[j] = columns[j] << chunk | int(digits[j::width], 2)
        count += chunk
        if count == _MASK_CHUNK or start + chunk == samples:
            yield count, dict(zip(vars_, columns))
            columns, count = [0] * width, 0


# Most distinct values one gate may take in the mask evaluation of the image;
# a gate that takes more sends the whole image to the pointwise paths.
_MASK_VALUES = 8


def _mask_image(c: Circuit, columns: dict, full: int) -> frozenset | None:
    """The values c takes at the points, the bits of full, where columns[v]
    is the mask of the points at which v is 1; None when a gate takes more
    than _MASK_VALUES values.

    Each gate holds {value: mask of the points where it takes that value},
    its masks nonzero and disjoint.  An ADD or MUL folds its arguments
    pairwise: each pair of values costs one AND, ORed into the entry of
    their sum or product.  A gate's dict is dropped after its last reader."""
    gates = c.gates
    released: dict = {}   # gate id -> the ids it reads last
    for a, i in {a: i for i, g in enumerate(gates) for a in g.args}.items():
        released.setdefault(i, []).append(a)
    masks: list = [None] * len(gates)
    for i, g in enumerate(gates):
        if g.op == VAR:
            m = columns[g.var]
            masks[i] = {0: full ^ m, 1: m} if 0 < m < full else {int(m != 0): full}
        elif g.op == CONST:
            q = g.const
            masks[i] = {int(q) if q.denominator == 1 else q: full}
        else:
            op = add if g.op == ADD else mul
            acc = masks[g.args[0]]
            for a in g.args[1:]:
                out: dict = {}
                for vb, mb in masks[a].items():
                    for va, ma in acc.items():
                        m = ma & mb
                        if m:
                            v = op(va, vb)
                            out[v] = out[v] | m if v in out else m
                if len(out) > _MASK_VALUES:
                    return None
                acc = out
            masks[i] = acc
            for a in released.get(i, ()):
                masks[a] = None
    return frozenset(map(Fraction, masks[c.output]))


def _sampled_mask_image(c: Circuit, vars_, samples: int, seed: int) -> frozenset | None:
    """The values c takes at the sampled points, one _mask_image per run of
    _sampled_columns; None when a gate takes more than _MASK_VALUES values."""
    seen: set = set()
    for count, columns in _sampled_columns(random.Random(f"image:{seed}"), vars_, samples):
        values = _mask_image(c, columns, (1 << count) - 1)
        if values is None:
            return None
        seen |= values
    return frozenset(seen)


def boolean_image(c: Circuit, target: frozenset | None = None,
                  exhaustive_limit: int = 16, samples: int = 20000,
                  seed: int = 0) -> ImageReport:
    """Value set of the circuit over Boolean inputs.

    Exhaustive when the circuit has at most exhaustive_limit variables,
    otherwise sampled at `samples` seeded uniform Boolean points: the
    points of rng.randrange(2) drawn per variable and point.  Either way the
    points are evaluated as value masks (_mask_image), the exhaustive ones
    only when the cube's 2^k points fit TERM_GUARD.  When a gate takes more
    than _MASK_VALUES values, or the cube is over TERM_GUARD, the image is
    taken pointwise instead: boolean_image_poly(expand(c)) when exhaustive,
    which raises ValueError past the guard, and compile_evaluator over
    batches of _IMAGE_CHUNK points when sampled.  Raises ValueError when
    samples < 1 or exhaustive_limit < 0.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if exhaustive_limit < 0:
        raise ValueError(f"exhaustive_limit must be at least 0, not {exhaustive_limit}")
    vars_ = c.variables()
    width = len(vars_)
    if width <= exhaustive_limit:
        size = 1 << width
        values = (_mask_image(c, _cube_columns(vars_), (1 << size) - 1)
                  if size <= TERM_GUARD else None)
        if values is None:
            values = boolean_image_poly(expand(c))
        report = ImageReport(values=values, exhaustive=True, points=size)
    else:
        values = _sampled_mask_image(c, vars_, samples, seed)
        if values is None:
            run = compile_evaluator(c)
            seen: set = set()
            for count, bits in _sampled_bits(random.Random(f"image:{seed}"), width, samples):
                seen.update(run({v: bits[j::width] for j, v in enumerate(vars_)}, count))
            values = frozenset(map(Fraction, seen))
        report = ImageReport(values=values, exhaustive=False, points=samples)
    if target is not None:
        report.contained = report.values <= frozenset(Fraction(t) for t in target)
    return report

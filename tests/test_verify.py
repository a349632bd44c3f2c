import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (build_corpus, certificate_of, ci_chain_certificate, formal_degree,
                     identity_circuit, laid_out, mutate_certificate, pointwise,
                     random_dag_circuit, random_layered_formula, ref_evaluate,
                     ref_evaluate_mod, reference_bad_constant, reference_verify_exact,
                     shift_certificates, total_degree)

from ipscert import verify as verify_module
from ipscert.circuit import (
    CONST,
    CircuitBuilder,
    Gate,
    as_circuit,
    cadd,
    cconst,
    cmul,
    cscale,
    csum,
    cvar,
    compile_evaluator,
    eval_circuit,
    expand,
    normalize_layered,
    poly_to_circuit,
)
from ipscert.gadget import address_code, gadgetize, literal_gates
from ipscert.instances import gadgeted_ry_circuit
from ipscert.poly import ResourceLimitError, SparsePoly, Var
from ipscert.refute import (
    assemble_refutation,
    certificate_from_json,
    certificate_to_json,
)
from ipscert.verify import (
    DEFAULT_PIT_PRIME,
    PitConfig,
    VerifyReport,
    _identity,
    boolean_image,
    boolean_image_poly,
    check_claims,
    is_probable_prime,
    verify_exact,
    verify_pit,
)

X1, X2 = Var("x", 1), Var("x", 2)


def leaf_certificate():
    return assemble_refutation(cvar(X1))


def test_default_prime_is_a_62_bit_prime():
    assert DEFAULT_PIT_PRIME == 2 ** 62 - 57
    assert DEFAULT_PIT_PRIME > 2 ** 61
    assert is_probable_prime(DEFAULT_PIT_PRIME)


def test_pit_config_validation():
    with pytest.raises(ValueError, match="not prime"):
        PitConfig(prime=2 ** 61)
    with pytest.raises(ValueError, match="prime 2"):
        PitConfig(prime=2)
    with pytest.raises(ValueError, match="trials"):
        PitConfig(trials=0)


def test_verify_exact_hand_example():
    cert = leaf_certificate()
    report = verify_exact(cert)
    assert report.verdict == "verified-exact"
    assert report.ok and report.exit_code() == 0


def test_verify_exact_flipped_sign_refuted_with_witness():
    axioms, cofactors = laid_out(leaf_certificate())
    cofactors[1] = cscale(-1, cofactors[1])
    report = verify_exact(certificate_of(axioms, cofactors))
    assert report.verdict == "refuted"
    assert report.witness is not None
    residual = SparsePoly.zero() - 1
    for (_, ax), cf in zip(axioms, cofactors):
        residual = residual + expand(cf) * expand(ax)
    assert ref_evaluate(dict(residual.items()), report.witness) != 0


def test_verify_exact_trivial_certificate():
    axioms = (("one", SparsePoly.constant(1)),)
    cofactors = (cconst(1),)
    assert verify_exact(certificate_of(axioms, cofactors)).verdict == "verified-exact"


def test_verify_exact_rejects_placeholder_use():
    axioms = (("one", SparsePoly.constant(1)),)
    cofactors = (cadd(cconst(1), cvar(Var("fresh", 1))),)
    report = verify_exact(certificate_of(axioms, cofactors))
    assert report.verdict == "error"
    assert "placeholder" in report.detail


def test_verify_exact_length_mismatch():
    assert verify_exact(certificate_of((), (cconst(1),))).verdict == "error"


def assert_exact_matches_reference(cert):
    """verify_exact's report, checked against the root-by-root reference
    field by field and as the JSON the CLI prints."""
    report, want = verify_exact(cert), reference_verify_exact(cert)
    assert report == want
    assert json.dumps(report.to_jsonable()) == json.dumps(want.to_jsonable())
    return report


def test_verify_exact_matches_the_root_by_root_reference(transformed01):
    # verify_exact moves each cofactor's scalar onto its axiom and expands
    # the instance with its cofactor over one sweep; every report must be
    # the one of expanding each root as it is.
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01[::10]]
    certs += list(shift_certificates()) + [ci_chain_certificate()]
    for cert in certs:
        assert assert_exact_matches_reference(cert).verdict == "verified-exact"
        assert_exact_matches_reference(certificate_from_json(certificate_to_json(cert)))
    rng = random.Random(43)
    verdicts = set()
    for i in range(40):
        mutated = mutate_certificate(rng, certs[i % len(certs)], seed=i)
        verdicts.add(assert_exact_matches_reference(mutated).verdict)
    assert verdicts == {"refuted"}


def guard_tripping_product():
    """(x1 + ... + x4097) * (u1 + ... + u4097): its product projects 4097^2
    terms, over the dense-size guard of 2^24, before any is made."""
    return cmul(*[csum([cvar(Var(ns, i)) for i in range(1, 4098)]) for ns in ("x", "u")])


def test_verify_exact_reports_the_first_pair_that_fails():
    # The pairs are expanded in order: a placeholder in pair 0 is reported
    # before pair 1's expansion trips the guard, and with the pairs swapped
    # the guard's error comes first.
    one = SparsePoly.constant(1)
    fresh = cadd(cconst(1), cvar(Var("fresh", 1)))
    cert = certificate_of((("f", one), ("g", one)), (fresh, guard_tripping_product()))
    report = assert_exact_matches_reference(cert)
    assert report.detail == "cofactor of f mentions placeholder variable fresh1"
    cert = certificate_of((("f", one), ("g", one)), (guard_tripping_product(), fresh))
    for check in (verify_exact, reference_verify_exact):
        with pytest.raises(ResourceLimitError, match="dense-size guard"):
            check(cert)


def test_verify_exact_names_the_guard_gate_two_cofactors_share():
    # Both cofactors reach one guard-tripping gate of the hash-consed table
    # (the second as a scaled wire over it): the error names its id, as
    # expanding each root alone does.
    product = guard_tripping_product()
    cert = certificate_of((("f", SparsePoly.constant(1)), ("g", SparsePoly.constant(2))),
                          (cadd(product, cvar(X1)), cscale(-1, product)))
    shared = cert.table.gate(cert.cofactors[1]).args[1]
    assert shared in cert.table.gate(cert.cofactors[0]).args
    messages = []
    for check in (verify_exact, reference_verify_exact):
        with pytest.raises(ResourceLimitError) as exc:
            check(cert)
        messages.append(str(exc.value))
    assert messages == [f"expansion of g{shared} projects over the dense-size guard"] * 2


def test_bad_constant_matches_the_layout_reference():
    # The first constant whose denominator vanishes, in the written order,
    # found by visiting each gate once: composed gates (hash-consed text)
    # lay out in argument order, starting gates (a DAG kept as written) as
    # their subcircuit in id order.
    # Constants get distinct numerators, so that each names its own gate.
    rng, serial = random.Random(3511), itertools.count(1)
    certs = list(shift_certificates())[::3]
    for _ in range(40):
        parts = []
        for _ in range(4):
            b = CircuitBuilder(random_dag_circuit(rng, n_gates=rng.randint(6, 14)).gates)
            for i, g in enumerate(b._gates):
                if g.op == CONST:
                    b._gates[i] = Gate(CONST, const=Fraction(next(serial),
                                                             rng.choice((1, 2, 3, 5, 6, 10))))
            circuit = b.build(len(b._gates) - 1)
            parts.append(circuit if rng.random() < 0.5 else as_circuit(expand(circuit)))
        certs.append(certificate_of([("f", parts[0]), ("g", parts[1])], parts[2:]))
    for cert in certs:
        for read in (cert, certificate_from_json(certificate_to_json(cert))):
            for prime in (2, 3, 5):
                try:
                    want = reference_bad_constant(read, prime)
                except AssertionError:
                    with pytest.raises(AssertionError):
                        verify_module._bad_constant(read, prime)
                else:
                    assert verify_module._bad_constant(read, prime) == want


@pytest.mark.parametrize("scaled", [
    lambda c, x: cscale(c, x),
    lambda c, x: cmul(x, cconst(c)),
])
@pytest.mark.parametrize("c", [0, 1, 2, Fraction(-1, 3)])
def test_verify_exact_scaled_roots_match_the_reference(scaled, c):
    fresh = cadd(cconst(1), cvar(Var("fresh", 1)))
    axioms = (("f", cadd(cvar(X1), cconst(2))), ("g", SparsePoly.constant(1)))
    # A zero scalar hides the placeholder: its root expands to 0.
    report = assert_exact_matches_reference(certificate_of(axioms, (scaled(c, fresh),
                                                                     cconst(1))))
    if c == 0:
        assert report.verdict == "verified-exact"
    else:
        assert report.verdict == "error"
        assert report.detail == "cofactor of f mentions placeholder variable fresh1"
    # Without a placeholder: the scalar rides on the axiom, which shares
    # x1 with the scaled root, and the residual keeps its witness.
    x = cadd(cvar(X1), cconst(-1))
    report = assert_exact_matches_reference(certificate_of(axioms, (scaled(c, x), cconst(1))))
    assert report.verdict == ("verified-exact" if c == 0 else "refuted")


def test_pit_accepts_valid_certificate_many_seeds():
    cert = leaf_certificate()
    for seed in range(100):
        cfg = PitConfig(trials=5, seed=seed)
        assert verify_pit(cert, cfg).verdict == "verified-probabilistic"


def test_pit_determinism():
    cert = leaf_certificate()
    cfg = PitConfig(trials=7, seed=42)
    r1 = verify_pit(cert, cfg)
    r2 = verify_pit(cert, cfg)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_pit_rejects_mutations():
    rng = random.Random(5)
    base = build_corpus(551, 3)
    certs = []
    for c in base:
        cp, _ = gadgetize(normalize_layered(c))
        certs.append(assemble_refutation(cp))
    for i in range(30):
        cert = certs[i % len(certs)]
        mutated = mutate_certificate(rng, cert, seed=i)
        cfg = PitConfig(trials=20, seed=i)
        report = verify_pit(mutated, cfg)
        assert report.verdict == "refuted"
        assert report.witness is not None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_transform_then_certificate_on_random_layered_formulas(seed):
    rng = random.Random(seed)
    cp, _ = gadgetize(normalize_layered(random_layered_formula(rng, max_nodes=20)))
    cert = assemble_refutation(cp)
    assert check_claims(cert) is None
    cfg = PitConfig(trials=5, seed=seed)
    assert verify_exact(cert).verdict == "verified-exact"
    assert verify_pit(cert, cfg).verdict == "verified-probabilistic"
    axioms, cofactors = laid_out(cert)
    axioms = [ax for _, ax in axioms]
    vars_ = sorted({v for c in axioms + cofactors for v in c.variables()}, key=lambda v: v._key)
    for _ in range(3):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in vars_}
        assert sum(pointwise(cf)(point) * pointwise(ax)(point)
                   for ax, cf in zip(axioms, cofactors)) == 1
    mutated = mutate_certificate(rng, cert, seed)
    assert verify_exact(mutated).verdict == "refuted"
    assert verify_pit(mutated, cfg).verdict == "refuted"


def test_pit_denominator_divisible_by_prime():
    axioms = (("f", SparsePoly.constant(Fraction(1, 3))),)
    cofactors = (cconst(3),)
    report = verify_pit(certificate_of(axioms, cofactors), PitConfig(prime=3, trials=1))
    assert report.verdict == "error"
    assert "denominator" in report.detail and "3" in report.detail
    # Two constants vanish mod 5.  The error names the first in written
    # order, pair by pair, not the first in the table, which reads the
    # axioms first and holds one CONST 7/5 for both of its uses.
    axioms = (("f", cadd(cvar(X1), cconst(1))), ("g", cmul(cconst(Fraction(7, 5)), cvar(X2))))
    cofactors = (cadd(cmul(cvar(X1), cconst(Fraction(3, 10))), cconst(Fraction(7, 5))), cconst(1))
    report = verify_pit(certificate_of(axioms, cofactors), PitConfig(prime=5, trials=1))
    assert report.verdict == "error"
    assert report.detail == "denominator 10 of constant 3/10 is divisible by prime 5"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pit_refuses_a_prime_at_or_below_the_formal_degree(p):
    # q (x1^2 - x1) = x1^p - x1 for q = sum_{j < p-1} x1^j: added to x1's
    # cofactor, it leaves a residual that vanishes at every point of GF(p).
    cert = ci_chain_certificate()
    assert formal_degree(identity_circuit(cert)) == 12
    axioms, cofactors = laid_out(cert)
    k = [label for label, _ in axioms].index("x1^2-x1")
    x, q, power = SparsePoly.variable(X1), SparsePoly.constant(0), SparsePoly.constant(1)
    for _ in range(p - 1):
        q, power = q + power, power * x
    cofactors[k] = cadd(cofactors[k], poly_to_circuit(q))
    forged = certificate_of(axioms, cofactors, instance_sha256=cert.instance_sha256,
                            shift=cert.shift, written_as_poly=cert.written_as_poly)
    assert check_claims(forged) is None
    assert verify_exact(forged).verdict == "refuted"
    with pytest.raises(ValueError, match=f"^--prime {p} is not above 1[0-9], the formal degree"):
        verify_pit(forged, PitConfig(prime=p, trials=50))
    assert verify_pit(forged).verdict == "refuted"
    with pytest.raises(ValueError, match="^--prime 11 is not above 12"):
        verify_pit(cert, PitConfig(prime=11))
    assert verify_pit(cert, PitConfig(prime=13)).verdict == "verified-probabilistic"


def test_formal_degree_bounds_the_identity_degree(transformed01):
    # The refusal names D of the standalone identity: verify_pit's walk of
    # the table finds the same degree at the largest prime it must refuse.
    rng = random.Random(29)
    for k, (_, cp, _) in enumerate(transformed01[::10]):
        cert = assemble_refutation(cp)
        for c in (cert, mutate_certificate(rng, cert, seed=k)):
            assert len(c.axioms) == len(c.cofactors)
            identity = identity_circuit(c)
            degree = formal_degree(identity)
            assert degree >= total_degree(expand(identity))
            p = max(q for q in range(3, degree + 1) if is_probable_prime(q))
            with pytest.raises(ValueError, match=f"^--prime {p} is not above {degree}, "):
                verify_pit(c, PitConfig(prime=p))
            axioms, cofactors = laid_out(c)
            for (_, ax), cf in zip(axioms, cofactors):
                pair = cmul(as_circuit(ax), cf)
                assert formal_degree(pair) >= total_degree(expand(pair))


def test_the_walked_degree_is_the_formal_degree_of_the_standalone_identity(transformed01):
    # verify_pit takes D from its one sweep of the table: it must be the
    # formal degree of the identity compacted into a standalone circuit.
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01[::10]]
    certs += list(shift_certificates())[::10] + [ci_chain_certificate()]
    for cert in certs:
        for read in (cert, certificate_from_json(certificate_to_json(cert))):
            _, degree, variables = _identity(read)
            identity = identity_circuit(read)
            assert degree == formal_degree(identity)
            assert variables == list(identity.variables())


def reference_pit(axioms, cofactors, cfg):
    """verify_pit pair by pair: each axiom and cofactor compiled on its own
    and evaluated separately at every trial (the per-copy algorithm)."""
    if len(axioms) != len(cofactors):
        return VerifyReport("error", detail="axiom/cofactor list length mismatch")
    vars_seen: set = set()
    for (_, ax), cf in zip(axioms, cofactors):
        vars_seen.update(ax.variables())
        vars_seen.update(cf.variables())
    ordered = sorted(vars_seen, key=lambda v: v._key)
    runs = [pointwise(x) for (_, ax), cf in zip(axioms, cofactors) for x in (ax, cf)]
    evaluations = 0
    for trial in range(cfg.trials):
        rng = random.Random(f"pit:{cfg.seed}:{trial}")
        point = {v: rng.randrange(cfg.prime) for v in ordered}
        total = 0
        try:
            for ax_run, cf_run in zip(runs[::2], runs[1::2]):
                av = ax_run(point, cfg.prime)
                cv = cf_run(point, cfg.prime)
                evaluations += 2
                total = (total + av * cv) % cfg.prime
        except ZeroDivisionError as exc:
            return VerifyReport("error", detail=str(exc))
        if total != 1 % cfg.prime:
            return VerifyReport(
                "refuted", detail=f"identity failed at trial {trial} mod {cfg.prime}",
                witness=dict(point), work={"evaluations": evaluations, "trials": trial + 1})
    return VerifyReport(
        "verified-probabilistic", detail=f"{cfg.trials} trials mod {cfg.prime}",
        work={"evaluations": evaluations, "trials": cfg.trials})


def assert_pit_matches_reference(cert, cfg):
    report = verify_pit(cert, cfg)
    assert report.to_jsonable() == reference_pit(*laid_out(cert), cfg).to_jsonable()
    return report


def test_pit_matches_the_per_pair_reference_on_corpus_certificates(transformed01):
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01[::10]]
    assert len(certs) == 20
    for k, cert in enumerate(certs):
        report = assert_pit_matches_reference(cert, PitConfig(trials=5, seed=k))
        assert report.verdict == "verified-probabilistic"
        assert_pit_matches_reference(certificate_from_json(certificate_to_json(cert)),
                                     PitConfig(trials=5, seed=k))
    rng = random.Random(17)
    verdicts = set()
    for i in range(30):
        mutated = mutate_certificate(rng, certs[i % len(certs)], seed=i)
        for cfg in (PitConfig(trials=20, seed=i), PitConfig(prime=101, trials=20, seed=i)):
            verdicts.add(assert_pit_matches_reference(mutated, cfg).verdict)
    assert "refuted" in verdicts


@pytest.mark.parametrize("axioms, cofactors, prime", [
    ((("f", SparsePoly.constant(Fraction(1, 3))),), (cconst(3),), 3),
    ((("f", cconst(1)), ("g", cconst(Fraction(1, 5)))), (cconst(Fraction(1, 7)), cconst(2)), 7),
    ((("f", cconst(1)),), (cconst(2),), 11),
    ((), (), 11),
    ((("f", cconst(1)),), (), 11),
    ((("f", cconst(1)), ("g", cconst(Fraction(1, 14)))), (cconst(Fraction(1, 7)), cconst(2)), 7),
])
def test_pit_matches_the_per_pair_reference_on_edge_cases(axioms, cofactors, prime):
    cert = certificate_of(axioms, cofactors)
    assert_pit_matches_reference(cert, PitConfig(prime=prime, trials=3))
    # Read back, the axioms come before the cofactors in the table.
    assert_pit_matches_reference(certificate_from_json(certificate_to_json(cert)),
                                 PitConfig(prime=prime, trials=3))


def test_verify_invariant_under_restructuring():
    c = cadd(cvar(X1), cmul(cvar(X2), cvar(X1)))
    cp, _ = gadgetize(normalize_layered(c))
    cert = assemble_refutation(cp)
    axioms, cofactors = laid_out(cert)
    restructured = [normalize_layered(cf) for cf in cofactors]
    assert verify_exact(certificate_of(axioms, restructured)).verdict == "verified-exact"


def test_boolean_image_product():
    report = boolean_image(cmul(cvar(X1), cvar(X2)))
    assert report.exhaustive
    assert report.values == frozenset((Fraction(0), Fraction(1)))


def test_boolean_image_matches_pointwise_oracle():
    rng = random.Random(61)
    from helpers import random_dag_circuit

    for _ in range(15):
        c = random_dag_circuit(rng, n_gates=rng.randint(6, 18))
        report = boolean_image(c)
        assert report.exhaustive
        vars_ = c.variables()
        oracle = set()
        for bits in itertools.product((0, 1), repeat=len(vars_)):
            oracle.add(eval_circuit(c, dict(zip(vars_, bits))))
        assert report.values == frozenset(oracle)


def test_boolean_image_poly_oracle_agreement():
    p = SparsePoly.variable(X1) * 2 - SparsePoly.variable(X2)
    assert boolean_image_poly(p) == frozenset(
        (Fraction(0), Fraction(2), Fraction(-1), Fraction(1)))


def random_expanded_formula(rng, vars_, depth):
    """A random formula over vars_ with negative and rational constants."""
    b = CircuitBuilder()
    consts = (-3, -1, 2, Fraction(-1, 3), Fraction(5, 2), Fraction(7, 4))

    def node(d):
        if d == 0 or rng.random() < 0.2:
            if rng.random() < 0.3:
                return b.const(rng.choice(consts))
            return b.var(rng.choice(vars_))
        kids = [node(d - 1) for _ in range(rng.randint(2, 3))]
        return b.add(kids) if rng.random() < 0.5 else b.mul(kids)

    return b.build(node(depth))


def image_by_evaluation(c):
    """The value set of c from compile_evaluator at every point of its cube,
    evaluated as one batch."""
    vars_ = c.variables()
    cube = list(itertools.product((0, 1), repeat=len(vars_)))
    return frozenset(map(Fraction, compile_evaluator(c)(dict(zip(vars_, zip(*cube))), len(cube))))


def test_boolean_image_poly_matches_compiled_evaluation_at_every_cube_point():
    rng = random.Random(89)
    pool = [Var("x", i) for i in range(1, 10)]
    sizes = set()
    for _ in range(60):
        c = random_expanded_formula(rng, rng.sample(pool, rng.randint(1, 9)), rng.randint(1, 4))
        image = boolean_image_poly(expand(c))
        assert image == image_by_evaluation(c)
        sizes.add(len(image))
    assert len(sizes) > 10


@pytest.mark.parametrize("build, image", [
    # the zero polynomial
    (lambda b: b.add([b.var(X1), b.mul([b.const(-1), b.var(X1)])]), {0}),
    # a constant, with and without variables in the circuit
    (lambda b: b.const(Fraction(-7, 3)), {Fraction(-7, 3)}),
    (lambda b: b.add([b.const(Fraction(-7, 3)), b.mul([b.const(0), b.var(X2)])]),
     {Fraction(-7, 3)}),
    # x1^2 - x1 vanishes on the cube, so only x3 is left of x1, x2, x3
    (lambda b: b.add([b.mul([b.var(X1), b.var(X1)]), b.mul([b.const(-1), b.var(X1)]),
                      b.mul([b.const(Fraction(5, 2)), b.var(Var("x", 3))]),
                      b.mul([b.var(X2), b.const(0)])]),
     {0, Fraction(5, 2)}),
])
def test_boolean_image_poly_edge_cases(build, image):
    b = CircuitBuilder()
    c = b.build(build(b))
    p = expand(c)
    assert len(p.multilinear_reduce().variables()) < len(c.variables()) or not c.variables()
    assert boolean_image_poly(p) == frozenset(Fraction(v) for v in image) == image_by_evaluation(c)


def test_boolean_image_poly_guards_the_cube_size(monkeypatch):
    xs = [SparsePoly.variable(Var("x", i)) for i in range(1, 26)]
    with pytest.raises(ValueError, match="25 variables"):
        boolean_image_poly(sum(xs, SparsePoly.zero()))
    monkeypatch.setattr(verify_module, "TERM_GUARD", 1 << 4)
    assert boolean_image_poly(sum(xs[:4], SparsePoly.zero())) == frozenset(range(5))
    with pytest.raises(ValueError, match="5 variables"):
        boolean_image_poly(sum(xs[:5], SparsePoly.zero()))


def test_boolean_image_sampling_mode():
    vars_ = [Var("x", i) for i in range(1, 20)]
    parts = [cvar(v) for v in vars_]
    c = cadd(*parts)
    report = boolean_image(c, exhaustive_limit=10, samples=500, seed=1)
    assert not report.exhaustive
    assert report.points == 500
    assert all(0 <= v <= 19 for v in report.values)
    again = boolean_image(c, exhaustive_limit=10, samples=500, seed=1)
    assert report.values == again.values


def test_boolean_image_containment_verdict():
    report = boolean_image(cmul(cvar(X1), cvar(X2)), target=frozenset((0, 1)))
    assert report.contained is True
    report = boolean_image(cadd(cvar(X1), cvar(X2)), target=frozenset((0, 1)))
    assert report.contained is False


CHUNK = verify_module._IMAGE_CHUNK


def reference_points(seed, width, samples):
    """The sampled image's points drawn one coordinate at a time by
    rng.randrange(2): the reference for the bulk draw."""
    rng = random.Random(f"image:{seed}")
    return [[rng.randrange(2) for _ in range(width)] for _ in range(samples)]


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 13, 17, 29, 31, 32, 33, 40])
def test_sampled_bits_are_the_points_of_randrange(width):
    longest = 2 * CHUNK + 5
    for seed in (0, 20260810):
        expected = bytes(b for point in reference_points(seed, width, longest) for b in point)
        for samples in (1, CHUNK - 1, CHUNK, CHUNK + 1, longest):
            rng = random.Random(f"image:{seed}")
            chunks = list(verify_module._sampled_bits(rng, width, samples))
            assert [count for count, _ in chunks] == \
                [min(CHUNK, samples - s) for s in range(0, samples, CHUNK)]
            assert all(len(bits) == count * width for count, bits in chunks)
            assert b"".join(bits for _, bits in chunks) == expected[:samples * width]


@pytest.mark.parametrize("n_vars, samples, seed", [
    (17, 300, 0), (20, CHUNK, 3), (24, CHUNK + 3, 11), (40, 2 * CHUNK + 1, 5)])
def test_sampled_image_is_the_set_of_reference_points(n_vars, samples, seed):
    # sum_j 2^j x_j: the value of the circuit is its point, written in binary.
    weight = {Var("x", j): 1 << j for j in range(n_vars)}
    b = CircuitBuilder()
    c = b.build(b.add([b.mul([b.const(w), b.var(v)]) for v, w in weight.items()]))
    report = boolean_image(c, samples=samples, seed=seed)
    assert not report.exhaustive and report.points == samples
    assert report.values == frozenset(
        Fraction(sum(weight[v] * bit for v, bit in zip(c.variables(), point)))
        for point in reference_points(seed, n_vars, samples))


def test_sampled_image_of_a_constant_circuit():
    # 0 * x1 * ... * x20 + 5 is 5 at every point of its 2^20 cube.
    b = CircuitBuilder()
    product = b.mul([b.const(0)] + [b.var(Var("x", j)) for j in range(1, 21)])
    c = b.build(b.add([product, b.const(5)]))
    report = boolean_image(c, target=frozenset((5,)), samples=CHUNK + 7, seed=2)
    assert not report.exhaustive and report.points == CHUNK + 7
    assert report.values == frozenset((Fraction(5),))
    assert report.contained is True


@pytest.mark.parametrize("kwargs, name", [
    ({"samples": 0}, "samples"), ({"samples": -5}, "samples"),
    ({"exhaustive_limit": -1}, "exhaustive_limit")])
def test_boolean_image_rejects_bad_sample_counts(kwargs, name):
    with pytest.raises(ValueError, match=name):
        boolean_image(cadd(cvar(X1), cvar(X2)), **kwargs)


def sampled_reference_image(c, seed, samples):
    """The value set of c at the points of reference_points, from
    compile_evaluator over them as one batch."""
    vars_ = c.variables()
    points = reference_points(seed, len(vars_), samples)
    return frozenset(map(Fraction, compile_evaluator(c)(dict(zip(vars_, zip(*points))), samples)))


def cube_mask_image(c):
    """verify's mask evaluation of c over its whole cube, None past the value limit."""
    vars_ = c.variables()
    return verify_module._mask_image(c, verify_module._cube_columns(vars_),
                                     (1 << (1 << len(vars_))) - 1)


def test_value_mask_columns_are_the_points():
    # format(column, "0{n}b") writes the column's n points top bit first,
    # and is longer when the column has a bit past them.
    for width in range(6):
        vars_ = [Var("x", j) for j in range(1, width + 1)]
        columns = verify_module._cube_columns(vars_)
        for j, v in enumerate(vars_):
            assert format(columns[v], f"0{1 << width}b") == \
                "".join(str(p >> j & 1) for p in reversed(range(1 << width)))
    vars_ = [Var("x", j) for j in range(1, 6)]
    mask_chunk = verify_module._MASK_CHUNK
    for samples in (1, CHUNK, 2 * CHUNK + 1, mask_chunk, mask_chunk + CHUNK + 3):
        points = reference_points(4, len(vars_), samples)
        runs = list(verify_module._sampled_columns(random.Random("image:4"), vars_, samples))
        assert [count for count, _ in runs] == \
            [min(mask_chunk, samples - s) for s in range(0, samples, mask_chunk)]
        for start, (count, columns) in zip(range(0, samples, mask_chunk), runs):
            for j, v in enumerate(vars_):
                assert format(columns[v], f"0{count}b") == \
                    "".join(str(point[j]) for point in points[start:start + count])


def test_mask_image_matches_pointwise_evaluation_and_expansion():
    # Random circuits with negative and rational constants, on both sides of
    # the value limit, each also with z1^2 - z1 added: 0 on the cube, so the
    # multilinear reduction drops z1.  Exhaustive and sampled images alike.
    rng = random.Random(97)
    pool = [Var("x", i) for i in range(1, 10)]
    z1 = Var("z", 1)
    under = over = 0
    for k in range(40):
        if k % 2:
            c = random_expanded_formula(rng, rng.sample(pool, rng.randint(1, 8)),
                                        rng.randint(1, 4))
        else:
            c = random_dag_circuit(rng, n_gates=rng.randint(6, 24),
                                   vars_=rng.sample(pool, rng.randint(1, 6)))
        b = CircuitBuilder()
        padded = b.build(b.add([b.keep(c), b.boolean_axiom(z1)]))
        assert len(expand(padded).multilinear_reduce().variables()) < len(padded.variables())
        for circ in (c, padded):
            expected = image_by_evaluation(circ)
            masked = cube_mask_image(circ)
            if masked is None:
                over += 1
            else:
                under += 1
                assert masked == expected
            assert boolean_image(circ).values == boolean_image_poly(expand(circ)) == expected
            sampled = boolean_image(circ, exhaustive_limit=0, samples=CHUNK + 3, seed=k)
            assert sampled.values == sampled_reference_image(circ, k, CHUNK + 3)
    assert under >= 40 and over >= 10


def test_mask_image_value_limit_is_per_gate():
    # x_1 + ... + x_m takes m + 1 values, the last partial sum of its ADD.
    limit = verify_module._MASK_VALUES
    for m, fits in ((limit - 1, True), (limit, False)):
        c = cadd(*(cvar(Var("x", j)) for j in range(1, m + 1)))
        assert (cube_mask_image(c) is not None) is fits
        assert boolean_image(c).values == frozenset(map(Fraction, range(m + 1)))
    # The root takes two values, but a gate under it takes limit + 1.
    b = CircuitBuilder()
    total = b.add([b.var(Var("x", j)) for j in range(1, limit + 1)])
    c = b.build(b.mul([total, b.const(0)]))
    assert cube_mask_image(c) is None and boolean_image(c).values == {0}


def test_sampled_mask_image_of_p_is_the_set_of_reference_points():
    p3, _ = gadgeted_ry_circuit(3)
    samples = 2 * CHUNK + 1
    assert verify_module._sampled_mask_image(p3, p3.variables(), samples, 7) is not None
    report = boolean_image(p3, samples=samples, seed=7)
    assert not report.exhaustive and report.points == samples
    assert report.values == sampled_reference_image(p3, 7, samples)


def test_sampled_image_at_one_point_is_its_value():
    # One point: a variable's mask is all ones or all zeros, and the image
    # of a lone variable, or of a fan-in-1 gate over it, is its one bit.
    b = CircuitBuilder()
    wire = b.build(b.add([b.var(X1)]))
    for seed in range(4):
        bit = Fraction(reference_points(seed, 1, 1)[0][0])
        for c in (cvar(X1), wire):
            report = boolean_image(c, exhaustive_limit=0, samples=1, seed=seed)
            assert report.values == {bit} and report.points == 1


def test_benchmark_images_take_the_mask_path(monkeypatch):
    # The sampled image of P at n = 3 and the exhaustive image of a
    # transformed formula never reach the pointwise paths.
    def refuse(*args, **kwargs):
        raise AssertionError("the pointwise path was taken")

    p3, _ = gadgeted_ry_circuit(3)
    transformed = [gadgetize(normalize_layered(c))[0] for c in build_corpus(992, 12)]
    cp = max((t for t in transformed if len(t.variables()) <= 14), key=lambda t: len(t.gates))
    expected = sampled_reference_image(p3, 5, 2000), image_by_evaluation(cp)
    monkeypatch.setattr(verify_module, "compile_evaluator", refuse)
    monkeypatch.setattr(verify_module, "expand", refuse)
    sampled = boolean_image(p3, target=frozenset((0, 1)), samples=2000, seed=5)
    exhaustive = boolean_image(cp, target=frozenset((0, 1)))
    assert not sampled.exhaustive and sampled.contained
    assert exhaustive.exhaustive and exhaustive.contained
    assert (sampled.values, exhaustive.values) == expected


def test_image_over_the_value_limit_takes_the_pointwise_paths(monkeypatch):
    calls = []
    for name in ("compile_evaluator", "expand"):
        def spy(c, real=getattr(verify_module, name), name=name):
            calls.append(name)
            return real(c)
        monkeypatch.setattr(verify_module, name, spy)
    # sum_j 2^j x_j: its value is its point, written in binary.
    b = CircuitBuilder()
    c = b.build(b.add([b.mul([b.const(1 << j), b.var(Var("x", j))]) for j in range(6)]))
    assert boolean_image(c).values == frozenset(map(Fraction, range(64)))
    assert calls == ["expand"]
    sampled = boolean_image(c, exhaustive_limit=0, samples=300, seed=3)
    assert calls == ["expand", "compile_evaluator"]
    assert sampled.values == sampled_reference_image(c, 3, 300)


def test_image_past_the_cube_guard_raises_before_any_mask(monkeypatch):
    def refuse(*args):
        raise AssertionError("a value mask was built")

    monkeypatch.setattr(verify_module, "_cube_columns", refuse)
    monkeypatch.setattr(verify_module, "_mask_image", refuse)
    c = cadd(*(cvar(Var("x", i)) for i in range(1, 26)))
    with pytest.raises(ValueError, match=r"over 25 variables needs 2\^25 values, "
                                         r"over the 2\^24 guard"):
        boolean_image(c, exhaustive_limit=30)


def test_image_answers_a_power_whose_expansion_trips_the_guard():
    # A(4096, 0) + A(4096, 3) over 14 controls is a 0/1-valued gadget sum
    # of 8192 terms expanded, so the first product of its cube projects
    # 2^26 terms: expand refuses it, and the image was refused with it.
    ys = [Var("y", 0, bit) for bit in range(14)]
    b = CircuitBuilder()
    s = b.add([b.prod(literal_gates(b, address_code(j, ys))) for j in (0, 3)])
    c = b.build(b.mul([s, s, s]))
    with pytest.raises(ResourceLimitError, match="dense-size guard"):
        expand(c)
    report = boolean_image(c, target=frozenset((0, 1)))
    assert report.exhaustive and report.points == 1 << 14 and report.contained
    assert report.values == frozenset((0, 1)) == image_by_evaluation(c)


def test_batch_evaluation_agrees_with_expansion_at_every_point():
    rng = random.Random(53)
    xs = [Var("x", j) for j in range(1, 13)]
    b = CircuitBuilder()
    leaves = [b.var(v) for v in xs] + [b.const(Fraction(1, 3)), b.const(-2)]
    # Fan-ins on both sides of the nested-map limit, and a fan-in-1 gate.
    wide = b.add([b.mul(rng.sample(leaves, k)) for k in (1, 2, 3, 8, 9, 14)])
    c = b.build(b.mul([wide, b.add(leaves[:11]), b.add([leaves[0]])]))
    run, terms = compile_evaluator(c), dict(expand(c).items())
    count = 25
    for draw in (lambda: rng.randrange(2), lambda: rng.randint(-9, 9),
                 lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
        points = [{v: draw() for v in xs} for _ in range(count)]
        columns = {v: [p[v] for p in points] for v in xs}
        assert run(columns, count) == [ref_evaluate(terms, p) for p in points]
        integral = all(type(x) is int for p in points for x in p.values())
        for prime in (101, DEFAULT_PIT_PRIME) if integral else ():
            assert run(columns, count, prime) == [ref_evaluate_mod(terms, p, prime) for p in points]
    assert compile_evaluator(cvar(X1))({X1: bytes((0, 1, 1))}, 3) == [0, 1, 1]
    assert compile_evaluator(cconst(Fraction(7, 2)))({}, 3) == [Fraction(7, 2)] * 3
    assert compile_evaluator(cconst(Fraction(7, 2)))({}, 3, 11) == [9] * 3
    with pytest.raises(ValueError, match="x1 has 2 values for 3 points"):
        run({v: [0, 1] for v in xs}, 3)

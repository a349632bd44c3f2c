"""The IPS_LIN refutation refute writes: one circuit C(x, z), linear in the
placeholders, checked against the per-pair reference it replaces, pinned
as nullstellensatz-cert/3 and /4 documents, and refused when forged; and
the lemmas of a /4 document, read by name and checked gate by gate to the
verdict of the full expansion."""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from helpers import (LEMMA_MUTATIONS, build_corpus, certificate_to_json_v2,
                     certificate_to_json_v3, mutate_certificate, mutate_lemmas, pit_corpus,
                     random_product_dag, refutation_v2, shuffled_topological)

import ipscert.verify

from ipscert.circuit import (VAR, cadd, cmul, compile_evaluator, cvar, expand, format_circuit,
                             normalize_layered, parse_circuit)
from ipscert.cli import main
from ipscert.gadget import gadgetize
from ipscert.instances import gadgeted_ry_circuit, mnc_instance
from ipscert.poly import SparsePoly, Var
from ipscert.refute import (PLACEHOLDER_NS, assemble_refutation, certificate_from_json,
                            certificate_to_json, gate_square_certificates)
from ipscert.verify import (DEFAULT_PIT_PRIME, PitConfig, _lemmas_hold, check_claims,
                            verify_exact, verify_pit)

X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))

# SHA-256 of the nullstellensatz-cert/3 documents of the formulas whose /1
# and /2 documents test_refute pins, taken when refute first wrote /3 and
# the shuffled formulas' and P - 2's taken again when C was composed
# hash-consed: the same tables, some composed lines in another order.
SHUFFLED_FORMULAS_V3_SHA256 = "2865ab9a4f0ad284fb4b80856296664d7144718238894a10a0bb01c9cb099701"
PRODUCT_DAGS_V3_SHA256 = "9f87c410d3e152ef098332de9468140545ec851290240c36310f834120f686a2"
SHIFT_V3_SHA256 = {
    "-2": "8e13eb5d39f5c34751a96dd8b114888329382be7c94e66e47aee4c169f8b3a03",
    "1": "219ddf3826b5ecd6db550ad5b2de91b2d8de54b282b716473c562c8ba6fe1e12",
    "1/2": "47c2726c82ea1e7083deb56c3e4c39f36f88777b93c5379cb56bb7c10cd1565b",
    "-3": "e24b4a587eb0a6c0b5c891ff4e877b52c5d4b885b9dc23c93c887100001f6cb7",
    "2/3": "b41cd3f2b0358683bff110b94794890b305dba400b9592eaff2cf036370f355d",
}
# The /3 documents of the paper's P - 2 at n = 3 and 4, and the size and
# depth of their C.
SIZE_DEPTH = {3: (635, 17), 4: (1481, 23)}
P_MINUS_2_V3_SHA256 = {
    3: "a4eabc6c68512df775223c2a5165516844c86bad27721ab0c79821c1a86018b9",
    4: "5d670a500b737152fd2fc7a0eff62c4ca2b2224320b963f70a423d3c8192f2e9",
}
# SHA-256 of the nullstellensatz-cert/4 documents of the same certificates,
# taken when refute first wrote /4: each the /3 document and its lemmas.
SHUFFLED_FORMULAS_V4_SHA256 = "032590f3fd1e0e8d458128df8eef9fed67c6b57161323016cbb02f3a093751ab"
PRODUCT_DAGS_V4_SHA256 = "cab75810a3311a427d06eb761c0f22432fddfffb170980e0a9d40081b1b67f03"
SHIFT_V4_SHA256 = {
    "-2": "cce3e6418dbab64e9ff33638643df89cd37810de5b624253e03e1a0e2b1af9aa",
    "1": "6235b71196702eecc6425780505b5a8aa351469e4926c5840bdd5e1da5e595ab",
    "1/2": "fcc8b19712b5d067c90a2fac4169d405e34249a41c30316c696bf09d804faba8",
    "-3": "dfdb8c5adda2edfa7cec13ed04ce7801aa809bf8d3e118d2c50fdebfabdb0ac5",
    "2/3": "4cc67be275cd30c586952a9c6d688f822209cc64db6667202b3af48bca34e35c",
}
P_MINUS_2_V4_SHA256 = {
    3: "5fe0d8f4ce291bef38a4441b7c162eceb18435c400c9f6a90a08b94e74832c42",
    4: "6746c64baa4140072dc815168d230f201a7ddcfdfb62b512b02c4f29a55c8cb7",
}


def shuffled_formulas():
    """test_refute's shuffled formulas: transformed, then their gate lines
    renumbered out of post-order and read back."""
    rng = random.Random(4104)
    for c in build_corpus(4104, 12):
        cp, _ = gadgetize(normalize_layered(c))
        yield parse_circuit(format_circuit(shuffled_topological(rng, cp)[0]))


def product_dags():
    """test_refute's products whose gates share children."""
    rng = random.Random(4105)
    for _ in range(10):
        yield random_product_dag(rng, rng.randint(6, 11))


def shift_formulas():
    """test_refute's shift corpus: 5 transformed formulas."""
    return [gadgetize(normalize_layered(c))[0] for c in build_corpus(4106, 5)]


def digest_of_documents(circuits, shift=Fraction(-2)) -> tuple:
    """SHA-256 of the /3 documents of the circuits (the reference writer)
    and of their /4 documents, each read back to the same bytes and to a
    certificate whose every claim holds; the /4 document is the /3 one
    with its lemmas added."""
    v3, v4 = hashlib.sha256(), hashlib.sha256()
    for c in circuits:
        cert = assemble_refutation(c, shift=shift)
        for h, write in ((v3, certificate_to_json_v3), (v4, certificate_to_json)):
            text = write(cert)
            read = certificate_from_json(text)
            assert read.linear and len(read.cofactors) == 1
            assert write(read) == text
            assert check_claims(read) is None
            h.update(text.encode())
        doc = json.loads(text)
        assert list(doc).pop() == "lemmas" and len(doc.pop("lemmas")) == len(cert.lemmas)
        doc["format"] = "nullstellensatz-cert/3"
        assert json.dumps(doc, indent=2) + "\n" == certificate_to_json_v3(cert)
    return v3.hexdigest(), v4.hexdigest()


def test_documents_of_shuffled_formulas_and_product_dags_are_pinned():
    assert digest_of_documents(shuffled_formulas()) == (SHUFFLED_FORMULAS_V3_SHA256,
                                                        SHUFFLED_FORMULAS_V4_SHA256)
    assert digest_of_documents(product_dags()) == (PRODUCT_DAGS_V3_SHA256,
                                                   PRODUCT_DAGS_V4_SHA256)


@pytest.mark.parametrize("shift", sorted(SHIFT_V3_SHA256))
def test_documents_at_each_shift_are_pinned(shift):
    assert digest_of_documents(shift_formulas(), Fraction(shift)) == (SHIFT_V3_SHA256[shift],
                                                                     SHIFT_V4_SHA256[shift])


# ---------------------------------------------------------------------------
# C against the reference: z_j = 1 and every other placeholder 0 gives the
# per-pair refutation's cofactor j.

def coefficients_mod(cert, trials: int, seed: int) -> tuple:
    """([C at (x_t, e_j) for t] per placeholder j, the points x_t): C run
    once over a batch of points mod DEFAULT_PIT_PRIME, each x_t seeded
    uniform and each placeholder set to 0 or 1."""
    rng = random.Random(seed)
    table, root, m = cert.table, cert.cofactors[0], len(cert.axioms)
    xs = {g.var: [rng.randrange(DEFAULT_PIT_PRIME) for _ in range(trials)]
          for g in table._gates if g.op == VAR and g.var.ns != PLACEHOLDER_NS}
    columns = {v: col * m for v, col in xs.items()}
    for k in range(m):
        columns[Var(PLACEHOLDER_NS, k)] = [int(j == k) for j in range(m) for _ in range(trials)]
    values = compile_evaluator(table.subcircuit(root))(columns, m * trials, DEFAULT_PIT_PRIME)
    return [values[j * trials:(j + 1) * trials] for j in range(m)], xs


def assert_coefficients_are_the_reference_cofactors_mod(cert, reference, seed: int) -> None:
    assert [label for label, _ in cert.axioms] == [label for label, _ in reference.axioms]
    coefficients, xs = coefficients_mod(cert, 3, seed)
    for j, cf in enumerate(reference.cofactors):
        run = compile_evaluator(reference.table.subcircuit(cf))
        assert coefficients[j] == run(xs, 3, DEFAULT_PIT_PRIME), j


def coefficient(c: SparsePoly, k: int) -> SparsePoly:
    """The coefficient of the placeholder fresh<k> in c, linear in it."""
    z = Var(PLACEHOLDER_NS, k)
    return c.restrict(z, 1) - c.restrict(z, 0)


def assert_coefficients_are_the_reference_cofactors(cert, reference) -> None:
    # C = sum_j z_j * cofactor_j as polynomials: every coefficient agrees.
    assert [label for label, _ in cert.axioms] == [label for label, _ in reference.axioms]
    expected = SparsePoly.zero()
    for j, cf in enumerate(reference.cofactors):
        expected = expected + SparsePoly.variable(Var(PLACEHOLDER_NS, j)) * reference.table.expand(cf)
    assert cert.table.expand(cert.cofactors[0]) == expected


def test_c_gives_the_reference_cofactors_on_the_formula_corpus(transformed01):
    # Exactly, and by evaluation mod the PIT prime; each document read back
    # makes only claims that hold.
    for k, (_, cp, _) in enumerate(transformed01):
        cert, reference = assemble_refutation(cp), refutation_v2(cp)
        assert_coefficients_are_the_reference_cofactors(cert, reference)
        assert_coefficients_are_the_reference_cofactors_mod(cert, reference, seed=k)
        assert check_claims(certificate_from_json(certificate_to_json(cert)), cp) is None


@pytest.fixture(scope="module")
def pit_certificates():
    """(transformed formula, its linear certificate) of the PIT corpus."""
    return [(cp, assemble_refutation(cp)) for cp in (gadgetize(c)[0] for c in pit_corpus(101, 150))]


def test_c_gives_the_reference_cofactors_on_the_pit_corpus(pit_certificates):
    for k, (cp, cert) in enumerate(pit_certificates):
        assert_coefficients_are_the_reference_cofactors_mod(cert, refutation_v2(cp), seed=k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_c_gives_the_reference_cofactors_on_p_minus_2(n):
    p, _ = gadgeted_ry_circuit(n)
    cert, reference = assemble_refutation(p), refutation_v2(p)
    assert_coefficients_are_the_reference_cofactors_mod(cert, reference, seed=n)


@pytest.mark.parametrize("n", [1, 2])
def test_the_papers_instance_p_minus_2_is_refuted_by_one_circuit(n):
    # The instance's placeholder has the coefficient -(1 + P)/2, the
    # paper's functional refutation of 2 - P, negated.
    p, _ = gadgeted_ry_circuit(n)
    cert = certificate_from_json(certificate_to_json(assemble_refutation(p, shift=Fraction(-2))))
    assert check_claims(cert, p) is None
    assert verify_exact(cert).verdict == "verified-exact"
    assert verify_pit(cert, PitConfig(trials=20, seed=n)).verdict == "verified-probabilistic"
    c = cert.table.expand(cert.cofactors[0])
    assert coefficient(c, 0) == -expand(mnc_instance(n).refutation)


@pytest.mark.parametrize("n", [3, 4])
def test_the_papers_linear_certificates_are_pinned(n):
    p, _ = gadgeted_ry_circuit(n)
    made = assemble_refutation(p, shift=Fraction(-2))
    text = certificate_to_json_v3(made)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == P_MINUS_2_V3_SHA256[n]
    v4 = certificate_to_json(made)
    assert hashlib.sha256(v4.encode("utf-8")).hexdigest() == P_MINUS_2_V4_SHA256[n]
    assert len(json.loads(v4)["lemmas"]) == {3: 22, 4: 41}[n]
    cert = certificate_from_json(text)
    assert check_claims(cert, p) is None
    assert verify_pit(cert, PitConfig(trials=20, seed=n)).verdict == "verified-probabilistic"
    # The table against the per-pair reference's, and C's size and depth.
    old = json.loads(certificate_to_json_v2(refutation_v2(p)))["table"]
    assert (len(json.loads(text)["table"]), len(old)) == {3: (374, 606), 4: (792, 1708)}[n]
    assert (cert.total_size, cert.total_depth) == SIZE_DEPTH[n]


# ---------------------------------------------------------------------------
# Forged and hostile /3 documents, refused in both modes by name.

def small_instance():
    """x1 + x2 x3, transformed."""
    return gadgetize(cadd(cvar(X1), cmul(cvar(X2), cvar(X3))))[0]


def root(doc: dict) -> int:
    """The table line of C's root."""
    return int(doc["cofactors"][0][0].split()[1][1:])


def remeasured(doc: dict) -> dict:
    """doc with its claimed metric the one C measures, so that only the
    forgery is wrong."""
    cert = certificate_from_json(json.dumps(doc))
    m = cert.table.dag_metrics(cert.cofactors[0])
    doc["metrics"] = [{"size": m.size, "depth": m.depth}]
    return doc


def placeholder_lines(doc: dict) -> list:
    """The table lines VAR fresh<k>."""
    return [k for k, text in enumerate(doc["table"])
            if text.split()[2:3] == ["VAR"] and text.split()[3].startswith(PLACEHOLDER_NS)]


def square_a_placeholder(doc: dict) -> str:
    zs = placeholder_lines(doc)
    k = next(k for k, text in enumerate(doc["table"])
             if " = MUL " in text and any(f"g{z}" in text.split() for z in zs))
    z = next(z for z in zs if f"g{z}" in doc["table"][k].split())
    doc["table"][k] += f" g{z}"
    remeasured(doc)
    return f"cofactors[0]: g{k}: a product of degree 2 in the placeholders"


def add_a_constant_term(doc: dict) -> str:
    n = len(doc["table"])
    doc["table"] += [f"g{n} = CONST 7/1", f"g{n + 1} = ADD g{root(doc)} g{n}"]
    doc["cofactors"] = [[f"OUTPUT g{n + 1}"]]
    remeasured(doc)
    return f"cofactors[0]: g{n + 1}: a sum of terms of degrees 0 and 1 in the placeholders"


def name_no_axiom(doc: dict) -> str:
    k = min(placeholder_lines(doc))
    name = f"{PLACEHOLDER_NS}{len(doc['axioms'])}"
    doc["table"][k] = f"g{k} = VAR {name}"
    return f"cofactors[0]: g{k}: placeholder {name} names no axiom"


def raise_the_size(doc: dict) -> str:
    size = doc["metrics"][0]["size"]
    doc["metrics"][0]["size"] += 1
    return f"metrics[0].size: claimed {size + 1}, measured {size}"


FORGERIES = pytest.mark.parametrize("forge", [square_a_placeholder, add_a_constant_term,
                                              name_no_axiom, raise_the_size],
                                    ids=lambda f: f.__name__)


def verify_doc(tmp_path, capsys, doc: dict, instance, mode: str) -> tuple:
    """(exit code, report) of verify --mode mode on the document."""
    cert, src = tmp_path / "cert.json", tmp_path / "t.circ"
    cert.write_text(json.dumps(doc, indent=2) + "\n")
    src.write_text(format_circuit(instance))
    code = main(["verify", "--cert", str(cert), "--instance", str(src), "--mode", mode])
    return code, json.loads(capsys.readouterr().out)


@FORGERIES
@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_a_forged_linear_certificate_is_refused_naming_its_gate_or_field(tmp_path, capsys,
                                                                         forge, mode):
    cp = small_instance()
    doc = json.loads(certificate_to_json(assemble_refutation(cp)))
    detail = forge(doc)
    assert verify_doc(tmp_path, capsys, doc, cp, mode) == (2, {
        "verdict": "error", "detail": detail, "work": {}})


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_a_dropped_summand_is_refuted_naming_c(tmp_path, capsys, mode):
    # The widest sum of C loses its last term; every claim is measured
    # again, so only the identity fails.
    cp = small_instance()
    doc = json.loads(certificate_to_json(assemble_refutation(cp)))
    sums = [k for k, text in enumerate(doc["table"]) if " = ADD " in text and k >= doc["starting"]]
    k = max(sums, key=lambda k: len(doc["table"][k].split()))
    doc["table"][k] = doc["table"][k].rsplit(" ", 1)[0]
    code, report = verify_doc(tmp_path, capsys, remeasured(doc), cp, mode)
    assert (code, report["verdict"]) == (1, "refuted")
    assert report["detail"].startswith("cofactors[0]: C(x, F(x))")


def test_a_linear_document_holds_one_cofactor():
    doc = json.loads(certificate_to_json(assemble_refutation(small_instance())))
    for cofactors in ([], doc["cofactors"] * 2):
        doc["cofactors"], doc["metrics"] = cofactors, doc["metrics"] * len(cofactors)
        with pytest.raises(ValueError, match=re.escape(
                f"field cofactors has {len(cofactors)} entries; a linear certificate has one")):
            certificate_from_json(json.dumps(doc))


def test_a_per_pair_certificate_is_not_written_as_a_linear_document():
    with pytest.raises(ValueError, match="only a linear certificate is written"):
        certificate_to_json(refutation_v2(small_instance()))


# ---------------------------------------------------------------------------
# The lemmas of a /4 document: one per certified gate whose C_s C reaches,
# read by name, and checked gate by gate to the verdict of the full
# expansion of C(x, F(x)).

def full_report(cert) -> dict:
    """verify_exact's report of cert with its lemmas left out: C(x, F(x))
    expanded whole, as before /4."""
    return verify_exact(dataclasses.replace(cert, lemmas=())).to_jsonable()


def test_refute_lists_each_certified_gate_whose_certificate_c_reaches(transformed01):
    # In ascending s, the lowest s of each C_s, only composed C_s with
    # arguments that C reaches: no leaf or literal.
    for _, cp, _ in transformed01[::4]:
        cert = assemble_refutation(cp)
        b, certs, _ = gate_square_certificates(cp, [cp.output])
        reached = set(cert.table._reach(cert.cofactors[0]))
        want, seen = [], set()
        for s in sorted(certs):
            if certs[s] in reached and b.gate(certs[s]).args and certs[s] not in seen:
                seen.add(certs[s])
                want.append((s, certs[s]))
        assert list(cert.lemmas) == want
        assert all(s < len(cp.gates) <= c and cp.gates[s].args for s, c in cert.lemmas)


def test_the_lemma_check_gives_the_full_expansions_report_on_the_corpus(transformed01):
    # Every document's lemmas hold, and its report is the full expansion's,
    # which is its /3 twin's; in PIT mode too, on every fifth.
    cfg = PitConfig(trials=3, seed=7)
    for k, (_, cp, _) in enumerate(transformed01):
        made = assemble_refutation(cp)
        cert = certificate_from_json(certificate_to_json(made))
        assert _lemmas_hold(cert)
        report = verify_exact(cert).to_jsonable()
        assert report == full_report(cert)
        assert report["verdict"] == "verified-exact"
        if k % 5 == 0:
            twin = certificate_from_json(certificate_to_json_v3(made))
            assert not twin.lemmas and verify_exact(twin).to_jsonable() == report
            assert verify_pit(cert, cfg).to_jsonable() == verify_pit(twin, cfg).to_jsonable()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_lemma_check_gives_the_full_expansions_report_on_p_minus_2(n):
    p, _ = gadgeted_ry_circuit(n)
    cert = certificate_from_json(certificate_to_json(assemble_refutation(p)))
    assert _lemmas_hold(cert)
    assert verify_exact(cert).to_jsonable() == full_report(cert) == {
        "verdict": "verified-exact", "detail": "", "work": {"expansions": 2 * len(cert.axioms)}}


def lemma_mutants(cert, rng, count: int):
    """(kind, text) of count mutants of cert's /4 document's lemmas."""
    doc = json.loads(certificate_to_json(cert))
    return [mutate_lemmas(rng, doc) for _ in range(count)]


def assert_refused_by_name_or_decided_as_the_full_expansion(kind: str, text: str) -> str:
    """The reader refuses the mutant naming lemmas[j], for a foreign gate
    outside the table, or verify_exact reports what the full expansion
    does; returns "refused" or the verdict."""
    try:
        cert = certificate_from_json(text)
    except ValueError as exc:
        assert kind == "foreign"
        assert re.fullmatch(r"certificate document: field lemmas\[\d+\]: "
                            r"'g\d+' is not a gate of the table", str(exc)), exc
        return "refused"
    report = verify_exact(cert).to_jsonable()
    assert report == full_report(cert)
    return report["verdict"]


def test_mutated_lemmas_are_refused_by_name_or_decided_as_the_full_expansion(transformed01):
    # A wrong list costs only time: the verdict is the full expansion's.
    rng = random.Random(4201)
    certs = [assemble_refutation(cp) for _, cp, _ in transformed01[::8]]
    certs += [assemble_refutation(gadgeted_ry_circuit(n)[0]) for n in (1, 2)]
    seen = set()
    for cert in certs:
        for kind, text in lemma_mutants(cert, rng, 6):
            outcome = assert_refused_by_name_or_decided_as_the_full_expansion(kind, text)
            assert outcome in ("refused", "verified-exact")
            seen.add((kind, outcome))
    assert {kind for kind, _ in seen} == set(LEMMA_MUTATIONS)
    assert ("foreign", "refused") in seen and ("foreign", "verified-exact") in seen


def test_no_lemma_list_verifies_a_refuted_identity(transformed01):
    # C with one gate changed is refuted with its own lemmas and with each
    # mutated list, exactly as the full expansion refutes it.
    rng = random.Random(4202)
    for k, (_, cp, _) in enumerate(transformed01[::10]):
        mutant = mutate_certificate(rng, assemble_refutation(cp), seed=k)
        read = certificate_from_json(certificate_to_json(mutant))
        assert verify_exact(read).to_jsonable() == full_report(read)
        assert full_report(read)["verdict"] == "refuted"
        for kind, text in lemma_mutants(mutant, rng, 3):
            outcome = assert_refused_by_name_or_decided_as_the_full_expansion(kind, text)
            assert outcome in ("refused", "refuted")


def test_an_axiom_that_reaches_a_placeholder_is_left_to_the_full_expansion():
    # The cut expansions put axiom k for fresh<k>, so an axiom that reaches
    # a placeholder, here axiom 0 its own, would expand without end.
    cert = assemble_refutation(small_instance())
    z0 = next(i for i, g in enumerate(cert.table._gates)
              if g.op == VAR and g.var is Var(PLACEHOLDER_NS, 0))
    forged = dataclasses.replace(cert, axioms=((cert.axioms[0][0], z0), *cert.axioms[1:]))
    assert forged.lemmas and not _lemmas_hold(forged)
    assert verify_exact(forged).to_jsonable() == full_report(forged)
    assert full_report(forged)["verdict"] == "refuted"


BAD_LEMMAS = [
    (lambda doc: doc["lemmas"].__setitem__(1, ["g1"]),
     r"field lemmas\[1\]: not two gate names \[\"g<s>\", \"g<c>\"\]"),
    (lambda doc: doc["lemmas"].__setitem__(0, ["g1", "g2", "g3"]),
     r"field lemmas\[0\]: not two gate names"),
    (lambda doc: doc["lemmas"].__setitem__(1, [1, 2]), r"field lemmas\[1\]: not two gate names"),
    (lambda doc: doc["lemmas"].__setitem__(0, "g1"), r"field lemmas\[0\] is not a list"),
    (lambda doc: doc["lemmas"][1].__setitem__(1, "x1"),
     r"field lemmas\[1\]: 'x1' is not a gate of the table"),
    (lambda doc: doc["lemmas"][0].__setitem__(0, f"g{len(doc['table'])}"),
     r"field lemmas\[0\]: 'g50' is not a gate of the table"),
    (lambda doc: doc.__setitem__("lemmas", {}), r"field lemmas is not a list"),
    (lambda doc: doc.pop("lemmas"), r"missing field lemmas"),
    (lambda doc: doc.__setitem__("format", "nullstellensatz-cert/3"),
     r"field lemmas is not read in nullstellensatz-cert/3"),
]


@pytest.mark.parametrize("forge, message", BAD_LEMMAS)
def test_a_lemmas_field_that_names_no_two_table_gates_is_refused(tmp_path, capsys, forge, message):
    # Also by the CLI, with exit code 2 in both modes.
    doc = json.loads(certificate_to_json(assemble_refutation(small_instance())))
    assert len(doc["table"]) == 50 and len(doc["lemmas"]) == 2
    forge(doc)
    text = json.dumps(doc, indent=2) + "\n"
    with pytest.raises(ValueError, match="^certificate document: " + message):
        certificate_from_json(text)
    path = tmp_path / "cert.json"
    path.write_text(text)
    for mode in ("exact", "pit"):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
        assert re.match("error: certificate document: " + message, capsys.readouterr().err)


def test_a_lemmas_field_in_a_per_pair_document_is_refused():
    doc = json.loads(certificate_to_json_v2(refutation_v2(small_instance())))
    doc["lemmas"] = []
    with pytest.raises(ValueError, match="^certificate document: field lemmas is not read in "
                                         "nullstellensatz-cert/2$"):
        certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_verify_runs_the_degree_pass_over_c_once(tmp_path, capsys, monkeypatch, mode):
    # check_claims runs it, and the verifier reuses its verdict; called
    # alone, each verifier runs it (test_verify refuses a C of degree 0).
    calls = []
    degree_error = ipscert.verify._degree_error
    monkeypatch.setattr(ipscert.verify, "_degree_error",
                        lambda cert: calls.append(cert) or degree_error(cert))
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(assemble_refutation(small_instance())))
    assert main(["verify", "--cert", str(path), "--mode", mode]) == 0
    assert len(calls) == 1
    cert = certificate_from_json(path.read_text())
    verify_exact(cert)
    verify_pit(cert)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_p_minus_2_is_refuted_and_verified_exactly_by_the_cli(tmp_path, capsys, n):
    # Exact mode past n = 3, where expanding C(x, F(x)) whole took seconds.
    prefix = tmp_path / "p"
    assert main(["instance", "--family", "gadgeted-ry", "--n", str(n), "--out", str(prefix)]) == 0
    circ, cert = str(tmp_path / "p.circ"), str(tmp_path / "cert.json")
    assert main(["refute", "--input", circ, "--shift", "-2", "--out", cert]) == 0
    axioms = json.loads(capsys.readouterr().out)["axioms"]
    assert main(["verify", "--cert", cert, "--instance", circ, "--mode", "exact"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "verified-exact", "detail": "", "work": {"expansions": 2 * axioms}}


def test_the_pit_corpus_verifies_exactly_gate_by_gate(pit_certificates):
    # Larger formulas, whose C(x, F(x)) is costly to expand whole.
    for _, made in pit_certificates:
        cert = certificate_from_json(certificate_to_json(made))
        assert _lemmas_hold(cert)
        assert verify_exact(cert).verdict == "verified-exact"

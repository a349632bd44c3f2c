import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import (boolean_axiom_as_circuit, build_corpus, certificate_to_json_v1,
                     mutate_certificate)

from ipscert import circuit as circuit_module
from ipscert.circuit import (
    CircuitBuilder,
    Metrics,
    cadd,
    cmul,
    cvar,
    format_circuit,
    measure,
    normalize_layered,
    parse_circuit,
)
from ipscert import cli, poly
from ipscert.cli import main
from ipscert.gadget import GadgetLedger, gadgetize
from ipscert.poly import Var, format_poly
from ipscert.refute import (NullstellensatzCertificate, assemble_refutation, certificate_from_json,
                            certificate_to_json)


X1, X2, X3 = (Var("x", i) for i in (1, 2, 3))


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_parse_round_trip_is_byte_exact(tmp_path):
    c = cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))
    src = tmp_path / "c.circ"
    out1 = tmp_path / "c1.circ"
    out2 = tmp_path / "c2.circ"
    write(src, format_circuit(c))
    assert main(["parse", "--input", str(src), "--out", str(out1)]) == 0
    assert main(["parse", "--input", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == src.read_bytes() == out2.read_bytes()


def test_parse_reports_metrics(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cadd(cvar(X1), cvar(X2))))
    assert main(["parse", "--input", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2 and doc["depth"] == 1 and doc["formula"] is True
    assert doc["variables"] == ["x1", "x2"]


def test_parse_hashes_the_text_it_writes(tmp_path, capsys):
    src, out = tmp_path / "c.circ", tmp_path / "canon.circ"
    write(src, format_circuit(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))))
    assert main(["parse", "--input", str(src), "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_usage_error_exits_2(tmp_path, capsys):
    assert main(["parse"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["parse", "--input", str(tmp_path / "missing.circ")]) == 2


def test_end_to_end_refute_verify(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))))
    cp = tmp_path / "cp.circ"
    ledger = tmp_path / "l.json"
    cert = tmp_path / "cert.json"
    assert main(["transform", "--input", str(src), "--out", str(cp), "--ledger", str(ledger)]) == 0
    assert main(["refute", "--input", str(cp), "--ledger", str(ledger),
                 "--shift", "-2", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "pit",
                 "--trials", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "verified-exact" in out and "verified-probabilistic" in out


def test_refute_leaf_without_ledger(tmp_path):
    src = tmp_path / "x.circ"
    write(src, format_circuit(cvar(X1)))
    cert = tmp_path / "cert.json"
    assert main(["refute", "--input", str(src), "--shift", "-2", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0


def test_verify_mutated_certificate_exits_1(tmp_path):
    c = normalize_layered(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3)))
    cp, _ = gadgetize(c)
    cert = assemble_refutation(cp)
    mutated = mutate_certificate(random.Random(3), cert, seed=99)
    path = tmp_path / "mutated.json"
    write(path, certificate_to_json(mutated))
    assert main(["verify", "--cert", str(path), "--mode", "pit",
                 "--trials", "20", "--seed", "7"]) == 1
    assert main(["verify", "--cert", str(path), "--mode", "exact"]) == 1


def test_pipeline_determinism(tmp_path):
    c = build_corpus(881, 1)[0]
    src = tmp_path / "c.circ"
    write(src, format_circuit(c))
    outs = []
    for tag in ("a", "b"):
        cp = tmp_path / f"cp_{tag}.circ"
        led = tmp_path / f"l_{tag}.json"
        cert = tmp_path / f"cert_{tag}.json"
        assert main(["transform", "--input", str(src), "--out", str(cp),
                     "--ledger", str(led)]) == 0
        assert main(["refute", "--input", str(cp), "--ledger", str(led),
                     "--out", str(cert)]) == 0
        outs.append((cp.read_bytes(), led.read_bytes(), cert.read_bytes()))
    assert outs[0] == outs[1]


def _certify(tmp_path, c, tag):
    """transform, refute and verify in both modes on c; every command must succeed."""
    src, cp = tmp_path / f"{tag}.circ", tmp_path / f"{tag}_t.circ"
    led, cert = tmp_path / f"{tag}.json", tmp_path / f"{tag}_cert.json"
    write(src, format_circuit(c))
    assert main(["parse", "--input", str(src)]) == 0
    assert main(["transform", "--input", str(src), "--out", str(cp), "--ledger", str(led)]) == 0
    assert main(["refute", "--input", str(cp), "--ledger", str(led), "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0
    assert main(["verify", "--cert", str(cert), "--mode", "pit", "--seed", "3"]) == 0


def test_commands_leave_the_callers_slot_tables_unchanged(tmp_path, capsys):
    fresh = [Var("x", k) for k in (9101, 9102, 9103)]
    tables = (poly._PROCESS_SLOTS, poly._CURRENT_SLOTS.get())
    before = [list(t.vars) for t in tables]
    _certify(tmp_path, cadd(cmul(cvar(fresh[0]), cvar(fresh[1])), cvar(fresh[2])), "f")
    assert main(["funcref", "--family", "mnc", "--n", "1"]) == 0
    assert main(["rank", "--n", "2"]) == 0
    assert [t.vars for t in tables] == before
    assert not set(fresh) & {v for t in tables for v in t.vars}


def test_certify_chain_never_repacks_across_slot_tables(tmp_path, capsys, monkeypatch):
    def refuse(p, tab):
        raise AssertionError("a polynomial crossed slot tables")
    monkeypatch.setattr(poly, "_repack", refuse)
    for k, c in enumerate(build_corpus(4242, 3)):
        _certify(tmp_path, c, f"c{k}")


def test_normalize_command(tmp_path):
    src = tmp_path / "c.circ"
    out = tmp_path / "n.circ"
    write(src, format_circuit(cmul(cvar(X1), cvar(X2))))
    assert main(["normalize", "--input", str(src), "--out", str(out)]) == 0
    n = parse_circuit(out.read_text())
    assert n.gates[n.output].op == "ADD"


def test_image_command_csv(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cmul(cvar(X1), cvar(X2))))
    assert main(["image", "--input", str(src), "--target", "0,1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "source,mode,points,values,contained"
    assert "exhaustive" in out and "0;1" in out and "true" in out
    # additive circuit escapes {0,1}
    write(src, format_circuit(cadd(cvar(X1), cvar(X2))))
    assert main(["image", "--input", str(src), "--target", "0,1"]) == 1


def test_image_over_too_many_variables_exits_2_at_once(tmp_path, capsys):
    src = tmp_path / "sum.circ"
    write(src, format_circuit(cadd(*(cvar(Var("x", i)) for i in range(1, 26)))))
    started = time.perf_counter()
    assert main(["image", "--input", str(src), "--exhaustive-limit", "30"]) == 2
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert captured.out == "" and "25 variables" in captured.err


def test_funcref_past_the_guard_exits_2_at_once(capsys):
    # mnc at n = 4 multiplies two 82,854-term polynomials: the guard must
    # refuse the product before forming any of it.
    started = time.perf_counter()
    assert main(["funcref", "--family", "mnc", "--n", "4"]) == 2
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert captured.out == "" and "over the dense-size guard" in captured.err


@pytest.mark.parametrize("argv", [
    ["instance", "--family", "subset-sum", "--n", "25"],
    ["funcref", "--family", "lifted-subset-sum", "--n", "8"],
])
def test_subset_sum_refutation_past_the_guard_exits_2_at_once(tmp_path, capsys, argv):
    # 25 terms, and 28 lifted pair terms at n = 8: the refutation has 2^25
    # and 2^28 terms, refused before any is formed.
    if argv[0] == "instance":
        argv = argv + ["--out", str(tmp_path / "ss")]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 5
    captured = capsys.readouterr()
    assert captured.out == "" and "over the dense-size guard" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_one_parser_serves_every_call_of_main(monkeypatch):
    argv_list = [["rank", "--n"],
                 ["--help"],
                 ["funcref", "--family", "mnc", "--n", "1"],
                 ["rank", "--n", "2", "--partition", "u1,u3|u2,u4"]]

    def run_all():
        outs = []
        for argv in argv_list:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            outs.append((rc, out.getvalue(), err.getvalue()))
        return outs

    shared = run_all()
    assert cli._parser() is cli._parser()
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0]
    assert "expected one argument" in shared[0][2] and "usage: ipscert" in shared[1][1]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == shared


def test_instance_and_funcref_commands(tmp_path, capsys):
    prefix = tmp_path / "mnc1"
    assert main(["instance", "--family", "mnc", "--n", "1", "--out", str(prefix)]) == 0
    assert (tmp_path / "mnc1.instance.circ").exists()
    assert (tmp_path / "mnc1.refutation.circ").exists()
    sidecar = json.loads((tmp_path / "mnc1.json").read_text())
    assert sidecar["generator"] == "mnc"
    assert main(["funcref", "--family", "mnc", "--n", "1"]) == 0
    assert main(["funcref", "--family", "subset-sum", "--n", "5"]) == 0
    assert main(["funcref", "--family", "subset-sum", "--n", "5", "--beta", "26"]) == 0
    assert main(["funcref", "--family", "lifted-subset-sum", "--n", "3"]) == 0
    prefix2 = tmp_path / "ss"
    assert main(["instance", "--family", "subset-sum", "--n", "4", "--out", str(prefix2)]) == 0
    sidecar = json.loads((tmp_path / "ss.json").read_text())
    assert "alphas" in sidecar["provenance"]


def test_instance_gadgeted_ry_sidecar(tmp_path):
    prefix = tmp_path / "gry"
    assert main(["instance", "--family", "gadgeted-ry", "--n", "2", "--out", str(prefix)]) == 0
    sidecar = json.loads((tmp_path / "gry.json").read_text())
    intervals = {(e["i"], e["j"]): e for e in sidecar["intervals"]}
    assert intervals[(1, 4)]["address_vars"] == ["w_1_4_0"]
    c = parse_circuit((tmp_path / "gry.circ").read_text())
    assert len(c.variables()) == 13


def test_instance_ry_emission(tmp_path):
    prefix = tmp_path / "ry2"
    assert main(["instance", "--family", "ry", "--n", "2", "--out", str(prefix)]) == 0
    from ipscert.circuit import expand
    from ipscert.instances import ry_circuit

    c = parse_circuit((tmp_path / "ry2.circ").read_text())
    assert expand(c) == expand(ry_circuit(2))


def test_rank_command_csv(tmp_path, capsys):
    import csv as csvmod

    assert main(["rank", "--n", "1", "--partition", "u1|u2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "partition,rank,witness"
    assert lines[1].startswith("u1|u2,2,")
    assert "w_1_2_leaf=1/2" in lines[1]
    report = tmp_path / "rank.csv"
    assert main(["rank", "--n", "2", "--partition", "all", "--out", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert len(rows) == 4  # header + 3 balanced partitions
    assert all(row[1] == "4" for row in rows[1:])


@pytest.mark.parametrize("n", ["0", "-1"])
def test_rank_rejects_n_below_1(capsys, n):
    for partition in ("all", "u1|u2"):
        assert main(["rank", "--n", n, "--partition", partition]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: n must be at least 1" in captured.err


def test_jobs_flag_validation(capsys):
    # --jobs is gone: like any unknown option it is a usage error.
    assert main(["--jobs", "4", "funcref", "--family", "mnc", "--n", "1"]) == 2
    assert "ipscert: error:" in capsys.readouterr().err
    assert main(["funcref", "--family", "mnc", "--n", "1"]) == 0


def test_removed_rank_witness_option_is_a_usage_error():
    assert main(["rank", "--n", "1", "--partition", "u1|u2", "--witness", "auto"]) == 2


@pytest.mark.parametrize("field", ["axioms", "cofactors", "metrics", "instance_sha256", "shift"])
def test_verify_incomplete_certificate_exits_2(tmp_path, capsys, field):
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp)))
    del doc[field]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_verify_wrongly_typed_field_exits_2(tmp_path, capsys):
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp)))
    doc["cofactors"] = [5]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path)]) == 2
    assert "cofactors[0]" in capsys.readouterr().err


def test_verify_unparsable_cofactor_exits_2_naming_it(tmp_path, capsys):
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json_v1(assemble_refutation(cp)))
    doc["cofactors"][1] = ["g0 = ADD", "OUTPUT g0"]
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path), "--mode", "pit"]) == 2
    assert "field cofactors[1]: line 1: ADD gate g0 has no children" in capsys.readouterr().err


def test_refute_and_verify_a_3000_deep_chain(tmp_path, capsys):
    # g = MUL(g, CONST 1), 3,000 times over x1: deeper than Python's recursion limit.
    lines = ["g0 = VAR x1"]
    g = 0
    for _ in range(3000):
        lines += [f"g{g + 1} = CONST 1", f"g{g + 2} = MUL g{g} g{g + 1}"]
        g += 2
    src, cert = tmp_path / "chain.circ", tmp_path / "cert.json"
    write(src, "\n".join(lines) + f"\nOUTPUT g{g}\n")
    assert main(["refute", "--input", str(src), "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--mode", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified-exact"


def test_normalize_and_transform_a_3000_level_alternating_chain(tmp_path):
    # MUL and ADD alternate 3,000 times, each with a fresh leaf: no flattening,
    # and deeper than Python's recursion limit.  refute is not run: the
    # certificate of such a chain grows with its depth.
    lines = ["g0 = VAR x1"]
    for k in range(1, 3001):
        op = "MUL" if k % 2 else "ADD"
        lines += [f"g{2 * k - 1} = VAR x{k % 3 + 1}", f"g{2 * k} = {op} g{2 * k - 2} g{2 * k - 1}"]
    src, layered, cp, ledger = (tmp_path / n for n in ("c.circ", "n.circ", "cp.circ", "l.json"))
    write(src, "\n".join(lines) + "\nOUTPUT g6000\n")
    assert main(["normalize", "--input", str(src), "--out", str(layered)]) == 0
    assert main(["transform", "--input", str(layered), "--out", str(cp),
                 "--ledger", str(ledger)]) == 0
    assert measure(parse_circuit(layered.read_text())).depth == 3000
    assert len(GadgetLedger.from_json(ledger.read_text())) == 1500
    parse_circuit(cp.read_text())


@pytest.mark.parametrize("text, message", [
    (None, "entries[0].gate"),   # the transform's ledger with an entry emptied
    ("{", "Expecting property name"),
    ("[]", "not a gadget ledger document"),
    ('{"format": "gadget-ledger/1"}', "missing field entries"),
])
def test_refute_with_a_malformed_ledger_exits_2(tmp_path, capsys, text, message):
    # refute reads the gadget sums off the circuit, but a --ledger file given
    # must still parse as a ledger: else it exits 2 and writes nothing.
    src, ledger, cert = tmp_path / "cp.circ", tmp_path / "l.json", tmp_path / "cert.json"
    cp, good = gadgetize(cadd(cvar(X1), cvar(X2)))
    write(src, format_circuit(cp))
    if text is None:
        doc = json.loads(good.to_json())
        doc["entries"][0] = {}
        text = json.dumps(doc)
    write(ledger, text)
    assert main(["refute", "--input", str(src), "--ledger", str(ledger), "--out", str(cert)]) == 2
    assert message in capsys.readouterr().err
    assert not cert.exists()


def test_refute_writes_one_certificate_with_any_ledger_or_none(tmp_path):
    # A ledger that parses is not used: its own formula's, another
    # formula's and none at all give the same document.
    src = tmp_path / "cp.circ"
    cp, own = gadgetize(normalize_layered(cadd(cmul(cvar(X1), cvar(X2)), cvar(X3))))
    write(src, format_circuit(cp))
    docs = []
    for k, ledger in enumerate((own, gadgetize(cadd(cvar(X1), cvar(X2), cvar(X3)))[1], None)):
        cert, argv = tmp_path / f"cert{k}.json", ["refute", "--input", str(src)]
        if ledger is not None:
            write(tmp_path / f"l{k}.json", ledger.to_json())
            argv += ["--ledger", str(tmp_path / f"l{k}.json")]
        assert main(argv + ["--out", str(cert)]) == 0
        docs.append(cert.read_bytes())
    assert docs[0] == docs[1] == docs[2] == certificate_to_json(assemble_refutation(cp)).encode()


@pytest.mark.parametrize("command, family", [
    ("instance", "mnc"), ("funcref", "mnc"), ("instance", "ry"), ("instance", "gadgeted-ry"),
], ids=["instance", "funcref", "instance-ry", "instance-gadgeted-ry"])
def test_mnc_rejects_beta(tmp_path, capsys, command, family):
    # Only the subset-sum families have a target; every other family refuses
    # --beta before it writes anything.
    argv = [command, "--family", family, "--n", "2", "--beta", "3"]
    if command == "instance":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"error: family {family} takes no --beta" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family, n", [("subset-sum", "0"), ("lifted-subset-sum", "1")])
def test_subset_sum_families_name_n_when_it_is_too_small(tmp_path, capsys, family, n):
    for command in ("funcref", "instance"):
        argv = [command, "--family", family, "--n", n]
        if command == "instance":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: n must be at least" in captured.err
    assert not list(tmp_path.iterdir())


# The certify chain in one process; prints the SHA-256 of every output.
CHAIN = """
import hashlib, io, os, sys, contextlib
from ipscert.cli import main
d = sys.argv[1]
p = lambda name: os.path.join(d, name)
h = hashlib.sha256()
for argv in (["parse", "--input", p("c.circ"), "--out", p("canon.circ")],
             ["normalize", "--input", p("canon.circ"), "--out", p("l.circ")],
             ["transform", "--input", p("l.circ"), "--out", p("t.circ"), "--ledger", p("l.json")],
             ["refute", "--input", p("t.circ"), "--ledger", p("l.json"), "--out", p("cert.json")],
             ["verify", "--cert", p("cert.json"), "--instance", p("t.circ")],
             ["verify", "--cert", p("cert.json"), "--mode", "pit"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    h.update(out.getvalue().encode())
for name in ("canon.circ", "l.circ", "t.circ", "l.json", "cert.json"):
    with open(p(name), "rb") as fh:
        h.update(fh.read())
print(h.hexdigest())
"""


def test_certify_chain_output_does_not_depend_on_the_hash_seed(tmp_path):
    c = build_corpus(7, 10)[-1]
    digests = []
    for seed in ("1", "2"):
        d = tmp_path / seed
        d.mkdir()
        write(d / "c.circ", format_circuit(c))
        proc = subprocess.run([sys.executable, "-c", CHAIN, str(d)], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "ipscert.cli", "funcref",
                           "--family", "subset-sum", "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verified-exact" in proc.stdout


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["cofactors"][1].__setitem__(0, "g² = VAR x1"),
     "field cofactors[1]: line 1: bad gate id 'g²'"),
    (lambda doc: doc["axioms"][0]["circuit"].__setitem__(0, "g١ = VAR x1"),
     "field axioms[0].circuit: line 1: bad gate id 'g١'"),
    (lambda doc: doc.__setitem__("builder", 5), "field builder is not a string"),
    (lambda doc: doc["metrics"].pop(), "field metrics has 4 entries for 5 cofactors"),
    (lambda doc: doc["axioms"][1].__setitem__("poly", "1/1 * x1^99999 + -1/1 * x1"),
     "field axioms[1].poly: bad exponent in 'x1^99999'"),
    (lambda doc: doc["axioms"][1].__setitem__("poly", "1/1 * x1^2^3"),
     "field axioms[1].poly: bad exponent in 'x1^2^3'"),
    (lambda doc: doc["axioms"][1].__setitem__("poly", "1e10000000 * x1"),
     "field axioms[1].poly: exponent notation in '1e10000000'"),
    (lambda doc: doc["axioms"][1].__setitem__("poly", "\u0661/\u0662 * x1"),
     "field axioms[1].poly: non-ASCII character or '_' in '\u0661/\u0662'"),
    (lambda doc: doc["cofactors"][1].__setitem__(0, "g0 = CONST 1_0"),
     "field cofactors[1]: line 1: non-ASCII character or '_' in '1_0'"),
    (lambda doc: doc["cofactors"][1].__setitem__(0, "g0 VAR x1"),
     "field cofactors[1]: line 1: no '=' in a gate line"),
])
def test_verify_rejects_what_the_reader_must_not_accept(tmp_path, capsys, edit, message):
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json_v1(assemble_refutation(cp)))
    assert len(doc["cofactors"]) == 5
    edit(doc)
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    for mode in ("exact", "pit"):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
        assert message in capsys.readouterr().err


def test_parse_rejects_a_gate_id_with_non_ascii_digits(tmp_path, capsys):
    src = tmp_path / "c.circ"
    write(src, "g² = VAR x1\nOUTPUT g²\n")
    assert main(["parse", "--input", str(src)]) == 2
    assert "line 1: bad gate id 'g²'" in capsys.readouterr().err


def test_parse_rejects_exponent_notation_at_once(tmp_path, capsys):
    # Fraction would first expand 10**10000000, for seconds.
    src = tmp_path / "c.circ"
    write(src, "g0 = CONST 1e10000000\nOUTPUT g0\n")
    started = time.perf_counter()
    assert main(["parse", "--input", str(src)]) == 2
    assert time.perf_counter() - started < 1
    assert "line 1: exponent notation in '1e10000000'" in capsys.readouterr().err


def test_parse_rejects_non_ascii_digits_and_separators_in_a_constant(tmp_path, capsys):
    # Fraction reads both, so the parent wrote them back as CONST 1/2 and CONST 10/1.
    src = tmp_path / "c.circ"
    write(src, "g0 = CONST \u0661/\u0662\ng1 = CONST 1_0\ng2 = MUL g0 g1\nOUTPUT g2\n")
    assert main(["parse", "--input", str(src)]) == 2
    assert "line 1: non-ASCII character or '_' in '\u0661/\u0662'" in capsys.readouterr().err
    write(src, "g0 = VAR x1\ng1 = CONST 1_0\ng2 = MUL g0 g1\nOUTPUT g2\n")
    assert main(["parse", "--input", str(src)]) == 2
    assert "line 2: non-ASCII character or '_' in '1_0'" in capsys.readouterr().err


# A satisfiable instance x1 - 1 "refuted" through a forged axiom: the poly of
# the axiom labelled x1^2-x1 is 1, so 0 * (x1 - 1) + 1 * 1 = 1 holds.
FORGED_AXIOM_CERT = {
    "format": "nullstellensatz-cert/1",
    "builder": "ipscert-refute/1",
    "shift": "-1/1",
    "instance_sha256": "deadbeef",
    "axioms": [
        {"label": "f", "circuit": ["g0 = VAR x1", "g1 = CONST -1/1", "g2 = ADD g0 g1",
                                   "OUTPUT g2"]},
        {"label": "x1^2-x1", "poly": "1/1"},
    ],
    "cofactors": [["g0 = CONST 0/1", "OUTPUT g0"], ["g0 = CONST 1/1", "OUTPUT g0"]],
    "metrics": [{"size": 999, "depth": 0}, {"size": 999, "depth": 0}],
}


WRITERS = pytest.mark.parametrize("writer", [certificate_to_json, certificate_to_json_v1],
                                  ids=["v2", "v1"])


def _zero_root(doc) -> list:
    """A new root of the circuit 0 in doc, a /1 or a /2 document."""
    if "table" not in doc:
        return ["g0 = CONST 0/1", "OUTPUT g0"]
    doc["table"].append(f"g{len(doc['table'])} = CONST 0/1")
    return [f"OUTPUT g{len(doc['table']) - 1}"]


def _duplicate_axiom(doc):
    doc["axioms"].append(dict(doc["axioms"][1]))
    doc["cofactors"].append(_zero_root(doc))
    doc["metrics"].append({"size": 0, "depth": 0})


@pytest.mark.parametrize("edit, field", [
    (None, "axioms[1].poly"),
    (lambda doc: doc["axioms"][1].__setitem__("label", "x1^2-x2"), "axioms[1].label"),
    (lambda doc: doc["axioms"][1].__setitem__("label", "x1"), "axioms[1].label"),
    (lambda doc: doc["axioms"][2].__setitem__("poly", "-1/1 * x1 + 1/1 * x1^2"),
     "axioms[2].poly"),
    (_duplicate_axiom, "axioms[5].label"),
    (lambda doc: doc["axioms"][0].__setitem__("label", "not-an-instance"), "axioms[0].label"),
    (lambda doc: boolean_axiom_as_circuit(doc, 1, X1), "axioms[1].poly"),
])
@pytest.mark.parametrize("mode", ["exact", "pit"])
@WRITERS
def test_verify_rejects_a_forged_boolean_axiom(tmp_path, capsys, edit, field, mode, writer):
    # Every variant but the swapped poly still satisfies the identity; the
    # axiom check must reject each before the identity check runs.  An axiom
    # written as a circuit is refused even when its gates are exactly those
    # its poly text lays in.
    if edit is None:
        doc = json.loads(json.dumps(FORGED_AXIOM_CERT))
    else:
        cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
        doc = json.loads(writer(assemble_refutation(cp)))
        edit(doc)
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "error"
    assert report["detail"].startswith(field + ":")


def test_verify_refuses_a_poly_text_of_huge_exponents_at_once(tmp_path, capsys):
    # 200 variables to the power 32767 in 2.4 kB of text, which
    # CircuitBuilder.poly would lay in as 6.5 million VAR gates.
    doc = json.loads(json.dumps(FORGED_AXIOM_CERT))
    doc["axioms"][1]["poly"] = "1/1 * " + " * ".join(f"x{i}^32767" for i in range(1, 201))
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    started = time.perf_counter()
    assert main(["verify", "--cert", str(path)]) == 2
    assert time.perf_counter() - started < 1
    assert ("field axioms[1].poly: its exponents sum to over 32 per character of the text"
            in capsys.readouterr().err)


# A document that refutes no instance: its one axiom is the circuit 1, its
# cofactor is 1, and 1 * 1 = 1 holds; its hash and metrics are made up.
ONE_AXIOM_CERT = {
    "format": "nullstellensatz-cert/1",
    "builder": "ipscert-refute/1",
    "shift": "-2/1",
    "instance_sha256": "deadbeef",
    "axioms": [{"label": "f", "circuit": ["g0 = CONST 1/1", "OUTPUT g0"]}],
    "cofactors": [["g0 = CONST 1/1", "OUTPUT g0"]],
    "metrics": [{"size": 0, "depth": 0}],
}


def _text_sha256(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def _zero_shift(doc):
    """The shift and the constant that axiom 0 adds both set to 0, with the
    hash of the edited text: the instance f' + 0 is satisfiable."""
    doc["shift"] = "0/1"
    lines = doc["axioms"][0]["circuit"]
    if "table" in doc:
        # The root is ADD(f', CONST shift); the table writes CONST shift once.
        table = doc["table"]
        const = table[int(lines[0].split()[1][1:])].split()[-1]
        table[int(const[1:])] = f"{const} = CONST 0/1"
        cert = certificate_from_json(json.dumps(doc))
        lines = cert.table.lines(cert.axioms[0][1])
        assert lines[-3].endswith(" = CONST 0/1")
    else:
        const = lines[-2].split()[-1]          # the root is ADD(f', CONST shift)
        k = next(k for k, line in enumerate(lines) if line.startswith(const + " = CONST "))
        lines[k] = f"{const} = CONST 0/1"
    doc["instance_sha256"] = _text_sha256(lines)


def _instance_as_poly(doc):
    cert = certificate_from_json(json.dumps(doc))
    doc["axioms"][0] = {"label": "f", "poly": format_poly(cert.table.expand(cert.axioms[0][1]))}


@pytest.mark.parametrize("edit, field", [
    (None, "axioms[0].circuit"),
    (lambda doc: doc.__setitem__("instance_sha256", "0" * 64), "instance_sha256"),
    (lambda doc: doc.__setitem__("shift", "-3/1"), "shift"),
    (_zero_shift, "shift"),
    (lambda doc: doc["metrics"][1].__setitem__("size", doc["metrics"][1]["size"] + 1),
     "metrics[1].size"),
    (lambda doc: doc["metrics"][2].__setitem__("depth", doc["metrics"][2]["depth"] - 1),
     "metrics[2].depth"),
    (_instance_as_poly, "axioms[0].circuit"),
])
@pytest.mark.parametrize("mode", ["exact", "pit"])
@WRITERS
def test_verify_rejects_a_forged_claim(tmp_path, capsys, edit, field, mode, writer):
    # Each document but the zero shift still satisfies the identity; the
    # claims check must reject each before the identity check runs.
    if edit is None:
        doc = json.loads(json.dumps(ONE_AXIOM_CERT))
    else:
        cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
        doc = json.loads(writer(assemble_refutation(cp)))
        edit(doc)
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "error"
    assert report["detail"].startswith(field + ":")


@pytest.mark.parametrize("option, value, name", [
    ("--samples", "-5", "samples"),
    ("--samples", "0", "samples"),
    ("--exhaustive-limit", "-1", "exhaustive_limit"),
])
def test_image_rejects_a_bad_sample_count(tmp_path, capsys, option, value, name):
    src = tmp_path / "c.circ"
    write(src, format_circuit(cadd(cvar(X1), cvar(X2))))
    assert main(["image", "--input", str(src), option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


@pytest.mark.parametrize("mode", ["exact", "pit"])
def test_verify_ties_axiom_0_to_the_instance_file(tmp_path, capsys, mode):
    f = cadd(cvar(X1), cvar(X2))
    cp, _ = gadgetize(f)
    other, _ = gadgetize(cadd(cvar(X1), cvar(X3)))
    cert, instance = tmp_path / "cert.json", tmp_path / "f.circ"
    write(cert, certificate_to_json(assemble_refutation(cp)))
    for c, code in ((cp, 0), (other, 2), (f, 2)):
        write(instance, format_circuit(c))
        assert main(["verify", "--cert", str(cert), "--instance", str(instance),
                     "--mode", mode]) == code
        report = json.loads(capsys.readouterr().out)
        assert code == 0 or report["detail"].startswith("axioms[0].circuit:")


@pytest.mark.parametrize("command, flag", [
    ("refute", "--shift"),
    ("funcref", "--beta"),
    ("instance", "--beta"),
    ("image", "--target"),
])
@pytest.mark.parametrize("value, message", [
    ("1/0", "zero denominator in '1/0'"),
    ("abc", "'abc'"),
    ("1e10000000", "exponent notation in '1e10000000'"),
    ("\u0661/\u0662", "non-ASCII character or '_' in '\u0661/\u0662'"),
    ("1_0", "non-ASCII character or '_' in '1_0'"),
])
def test_a_number_flag_that_does_not_parse_is_named(tmp_path, capsys, command, flag,
                                                     value, message):
    src, out = tmp_path / "c.circ", tmp_path / "out"
    write(src, format_circuit(cvar(X1)))
    argv = {
        "refute": ["refute", "--input", str(src), "--out", str(out), "--shift", value],
        "funcref": ["funcref", "--family", "subset-sum", "--n", "2", "--beta", value],
        "instance": ["instance", "--family", "subset-sum", "--n", "2", "--out", str(out),
                     "--beta", value],
        "image": ["image", "--input", str(src), "--target", "0," + value],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err
    assert message in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.circ"]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["cofactors"].__setitem__(1, ["g0 = ADD", "OUTPUT g0"]),
     "field cofactors[1]: not one line OUTPUT g<k>"),
    (lambda doc: doc["cofactors"].__setitem__(2, ["OUTPUT g9999"]),
     "field cofactors[2]: 'g9999' is not a gate of the table"),
    (lambda doc: doc.__setitem__("starting", -1), "field starting: -1 is not between 0"),
    (lambda doc: doc.__setitem__("starting", "0"), "field starting is not an integer"),
    (lambda doc: doc["table"].__setitem__(0, "g0 = MUL g1 g1"),
     "field table: line 1: reference to undefined gate 'g1'"),
    (lambda doc: doc["table"].append("OUTPUT g0"), "OUTPUT line in a gate table"),
    (lambda doc: doc.pop("table"), "missing field table"),
])
def test_verify_rejects_a_hostile_v2_document(tmp_path, capsys, edit, message):
    cp, _ = gadgetize(cadd(cvar(X1), cvar(X2)))
    doc = json.loads(certificate_to_json(assemble_refutation(cp)))
    edit(doc)
    path = tmp_path / "cert.json"
    write(path, json.dumps(doc))
    for mode in ("exact", "pit"):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: certificate document: " in captured.err and message in captured.err


def deep_chain_document(over: str, root: str) -> dict:
    """The /2 document of x1's certificate with a 40-deep chain of composed
    gates g = ADD g' g' over the table line `over` appended to its table,
    and the chain's top named by the circuit `root` ("axiom" or
    "cofactor"): the top of a chain lays out to 2^41 - 1 lines."""
    doc = json.loads(certificate_to_json(assemble_refutation(cvar(X1))))
    n = len(doc["table"])
    doc["table"].append(f"g{n} = {over}")
    doc["table"] += [f"g{n + k} = ADD g{n + k - 1} g{n + k - 1}" for k in range(1, 41)]
    if root == "axiom":      # f' is the chain over x1: ADD(f', CONST -2)
        doc["table"].append(f"g{n + 41} = ADD g{n + 40} g2")
        doc["axioms"][0]["circuit"] = [f"OUTPUT g{n + 41}"]
    else:                    # cofactor 1 is the chain, its metrics the DP's own
        doc["cofactors"][1] = [f"OUTPUT g{n + 40}"]
        doc["metrics"][1] = {"size": 2 ** 41 - 2, "depth": 40}
    return doc


def test_verify_pit_names_a_constant_under_a_deep_chain_at_once(tmp_path, capsys):
    # The chain passes check_claims; its constant's denominator vanishes
    # mod the default prime, found by visiting each gate once.
    path = tmp_path / "cert.json"
    write(path, json.dumps(deep_chain_document("CONST 1/4611686018427387847", "cofactor")))
    started = time.perf_counter()
    assert main(["verify", "--cert", str(path), "--mode", "pit"]) == 2
    assert time.perf_counter() - started < 1
    assert json.loads(capsys.readouterr().out)["detail"] == (
        "denominator 4611686018427387847 of constant 1/4611686018427387847 is divisible by "
        "prime 4611686018427387847")
    assert main(["verify", "--cert", str(path), "--mode", "exact"]) == 1


def test_verify_refuses_an_instance_that_lays_out_past_the_document_at_once(tmp_path, capsys):
    # Axiom 0's f' is a deep DAG of composed gates: its layout is counted
    # before any line of it is written or hashed.
    path, src = tmp_path / "cert.json", tmp_path / "x1.circ"
    write(path, json.dumps(deep_chain_document("ADD g0 g0", "axiom")))
    write(src, "g0 = VAR x1\nOUTPUT g0\n")
    for mode in ("exact", "pit"):
        for instance in ([], ["--instance", str(src)]):
            started = time.perf_counter()
            assert main(["verify", "--cert", str(path), "--mode", mode, *instance]) == 2
            assert time.perf_counter() - started < 1
            assert json.loads(capsys.readouterr().out)["detail"] == (
                "axioms[0].circuit: lays out to more lines than the document holds")


def x1_refutation(starting: CircuitBuilder, zeros, measured: bool = True) -> str:
    """The /2 document of a refutation of x1 + 1 over the starting gates of
    `starting`, whose first gate is x1: cofactor 0 is 1 - x1/2 and cofactor
    1 is 1/2 plus the composed gates zeros(b) makes in the table b, each 0,
    so that cofactor 1 names every starting gate they read.  Unless
    measured, the claimed metrics are left at 0."""
    b = CircuitBuilder(starting._gates)
    instance = b.add([0, b.const(1)])
    c0 = b.add([b.const(1), b.mul([b.const(Fraction(-1, 2)), 0])])
    c1 = b.add([b.const(Fraction(1, 2))] + zeros(b))
    cofactors = (c0, c1)
    return certificate_to_json(NullstellensatzCertificate(
        table=b,
        axioms=(("f", instance), ("x1^2-x1", b.boolean_axiom(X1))),
        cofactors=cofactors,
        claimed_metrics=tuple(b.metrics(cofactors)) if measured else (Metrics(0, 0),) * 2,
        instance_sha256=b.sha256(instance),
        shift=Fraction(1),
        written_as_poly=frozenset({1}),
    ))


def chain_document(length: int, measured: bool = True) -> str:
    """x1_refutation over x1 and a chain g_k = ADD g_{k-1} g_{k-1} of the
    given length, so that every starting gate above g_1 lies above a shared
    gate; the zeros are every g_k - 2 g_{k-1}, so that cofactor 1 names
    every gate of the chain."""
    chain = CircuitBuilder()
    gs = [chain.var(X1)]
    for _ in range(length):
        gs.append(chain.add([gs[-1], gs[-1]]))
    return x1_refutation(chain, lambda b: [b.add([g, b.mul([b.const(-2), h])])
                                           for h, g in zip(gs, gs[1:])], measured)


def test_verify_measures_a_chain_of_shared_starting_gates_in_one_sweep(tmp_path, capsys,
                                                                        monkeypatch):
    # Each of the 4,000 starting gates of the chain lays out as the gates
    # it reaches, and a composed gate names every one of them: the claims
    # are measured over one sweep of the table, not one sweep per gate.
    path = tmp_path / "chain.json"
    write(path, chain_document(4000))
    sweeps = []
    real = circuit_module._sweep
    monkeypatch.setattr(circuit_module, "_sweep",
                        lambda gates, roots: sweeps.append(1) or real(gates, roots))
    for mode, verdict in (("pit", "verified-probabilistic"), ("exact", "verified-exact")):
        sweeps.clear()
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
        assert len(sweeps) <= 5


def test_verify_refuses_a_table_whose_wire_sets_pass_the_cap(tmp_path, capsys):
    # The wire set of g_k holds the 2k wires it reaches, so the sets of a
    # 9,000-gate chain make about 81 M bits: g_8192 takes them past the
    # cap's 2^26.
    path = tmp_path / "long.json"
    write(path, chain_document(9000, measured=False))
    for mode in ("exact", "pit"):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: measuring the layouts up to g8192 would make over "
                                "67108864 bits of wire sets\n")


def test_verify_measures_wide_and_deep_starting_trees_with_no_wire_set(tmp_path, capsys):
    # A sum of 9,000 products x1 x_k and a 9,000-deep chain of products
    # p_k = MUL p_{k-1} x1 lay out as trees and hold no wire set: had each
    # gate a set numbered after the wires before it, either tree would make
    # about 81 M bits and pass the cap.
    trees = CircuitBuilder()
    x1 = trees.var(X1)
    wide = trees.add([trees.mul([x1, trees.var(Var("x", k))]) for k in range(2, 9002)])
    deep = x1
    for _ in range(9000):
        deep = trees.mul([deep, x1])
    path = tmp_path / "trees.json"
    write(path, x1_refutation(trees, lambda b: [b.add([g, b.mul([b.const(-1), g])])
                                                for g in (wide, deep)]))
    for mode, verdict in (("pit", "verified-probabilistic"), ("exact", "verified-exact")):
        assert main(["verify", "--cert", str(path), "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict


# The certificate of the CI chain at shift 1/3, as the /1 writer wrote it
# before refute wrote /2: an old document must still verify.
V1_DOCUMENT = os.path.join(os.path.dirname(__file__), "cert-v1-third.json")
V1_DOCUMENT_SHA256 = "d88b01b0d163f9a0404ba89d2ef5c5055cdddf972cee7fc62ccfae59f8654b24"


def test_an_old_v1_document_verifies_against_its_instance(tmp_path, capsys):
    with open(V1_DOCUMENT, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == V1_DOCUMENT_SHA256
    src = tmp_path / "c.circ"
    write(src, "\n".join(["g0 = VAR x1", "g1 = VAR x2", "g2 = VAR x3", "g3 = VAR x4",
                          "g4 = ADD g1 g2", "g5 = MUL g0 g4", "g6 = ADD g5 g3",
                          "OUTPUT g6"]) + "\n")
    steps = [("parse", "--input", "c.circ", "--out", "p.circ"),
             ("normalize", "--input", "p.circ", "--out", "n.circ"),
             ("transform", "--input", "n.circ", "--out", "t.circ", "--ledger", "l.json"),
             ("refute", "--input", "t.circ", "--ledger", "l.json", "--shift", "1/3",
              "--out", "third.json")]
    for argv in steps:
        assert main([a if "." not in a else str(tmp_path / a) for a in argv]) == 0
    capsys.readouterr()
    reports = []
    for cert in (V1_DOCUMENT, str(tmp_path / "third.json")):
        for mode in ("exact", "pit"):
            assert main(["verify", "--cert", cert, "--instance", str(tmp_path / "t.circ"),
                         "--mode", mode]) == 0
            reports.append(capsys.readouterr().out)
    assert reports[:2] == reports[2:]
    assert json.loads((tmp_path / "third.json").read_text())["format"] == "nullstellensatz-cert/2"

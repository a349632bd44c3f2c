import pytest

from helpers import CORPUS_SEED, build_corpus

from ipscert.circuit import normalize_layered
from ipscert.gadget import gadgetize
from ipscert.poly import fresh_slots


@pytest.fixture(autouse=True)
def _fresh_slot_table():
    """Each test packs its polynomials in its own slot table, so tests share
    no kernel state; polynomials built at import are re-packed into it."""
    with fresh_slots():
        yield


@pytest.fixture(scope="session")
def corpus01():
    """200 random layered constant-free formulas with {0,1} leaves."""
    return build_corpus(CORPUS_SEED, 200, const_pool=(0, 1))


@pytest.fixture(scope="session")
def corpus_pm1():
    """100 random layered constant-free formulas with {-1,0,1} leaves."""
    return build_corpus(CORPUS_SEED + 1, 100, const_pool=(-1, 0, 1))


@pytest.fixture(scope="session")
def transformed01(corpus01):
    """(formula, transformed formula, ledger) triples for the {0,1} corpus."""
    out = []
    for c in corpus01:
        cn = normalize_layered(c)
        cprime, ledger = gadgetize(cn)
        out.append((cn, cprime, ledger))
    return out


@pytest.fixture(scope="session")
def transformed_pm1(corpus_pm1):
    out = []
    for c in corpus_pm1:
        cn = normalize_layered(c)
        cprime, ledger = gadgetize(cn)
        out.append((cn, cprime, ledger))
    return out

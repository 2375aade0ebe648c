import hashlib

import pytest
from tests.conftest import single_row_block

from skewrank import catalog
from skewrank.catalog import CatalogEntry, Expected


def test_names_and_get():
    assert "M8" in catalog.names()
    entry = catalog.get("M8")
    assert entry.matrix.order == 8
    assert entry.expected.partition == (2, 1)
    assert entry.expected.orbit_dim == 47
    w = catalog.get("westwick")
    assert (w.matrix.order, w.matrix.nvars) == (10, 4)
    assert w.expected.generic_rank == 8
    p5 = catalog.get("pi5")
    assert p5.expected.c2 == 4 and p5.expected.orbit_dim == 59
    with pytest.raises(KeyError):
        catalog.get("nonsense")


def test_every_entry_is_well_formed():
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        assert all(f.is_homogeneous(1) for _, f in A.upper_entries())
        assert entry.section in (2, 3, 4, 5)


def test_transcriptions_are_frozen():
    assert set(catalog.DIGESTS) == set(catalog.names())
    assert catalog.verify_digests() == {}


def test_dk_constructor_contract():
    M = catalog.dk_steiner((1, 1, 1), (1, 2, 3), (1, 4, 9))
    assert M == catalog.get("dk_steiner").matrix
    with pytest.raises(ValueError):
        catalog.dk_steiner((1, 2, 3), (1, 2, 3), (1, 4, 9))   # repeated line
    with pytest.raises(ValueError):
        catalog.dk_steiner((1, 1), (1, 2, 3), (1, 4, 9))


def test_reproduce_quick_subset():
    rows = catalog.reproduce_all(names_filter={"M7", "M8", "rank4_5x5"})
    assert rows and all(r.ok for r in rows)
    names = {r.name for r in rows}
    assert names == {"M7", "M8", "rank4_5x5"}


def test_reproduce_section_filter():
    rows = catalog.reproduce_all(sections={2})
    assert rows and {r.name for r in rows} <= {
        "M7", "M8", "M9", "M7p", "M7pp", "M8p",
        "rank2_3x3", "rank4_5x5", "rank4_6x6"}
    assert all(r.ok for r in rows)


def test_reproduce_flags_corrupted_entry():
    good = catalog.get("M8")
    bad = CatalogEntry("M8bad", 2, "deliberately wrong expectations",
                       good.matrix,
                       Expected(generic_rank=6, constant=True,
                                partition=(3,), padding=0))
    rows = catalog.reproduce_all(table={"M8bad": bad})
    fails = [r for r in rows if not r.ok]
    assert len(fails) == 1
    assert fails[0].check == "partition"
    assert fails[0].expected == (3,) and fails[0].observed == (2, 1)


def test_report_formatting():
    rows = catalog.reproduce_all(names_filter={"rank2_3x3"})
    table = catalog.format_report(rows, as_table=True, seed=0)
    assert "rank2_3x3" in table and "failures" in table and "seed 0" in table
    js = catalog.format_report(rows, seed=0)
    assert '"ok": true' in js and '"seed": 0' in js


# sha256 of `reproduce --table` at seed 0; a change to what the catalog
# checks, such as a new invariant, changes it on purpose
REPRODUCE_TABLE_SHA256 = \
    "fb582fd451cdae3b2ef4091117d08ade381e1a80a001adf4cbec0e6f221f6801"


def test_reproduce_full_run_has_no_failures():
    rows = catalog.reproduce_all()
    fails = [r for r in rows if not r.ok]
    assert fails == [], catalog.format_report(fails, as_table=True)
    checked = {r.name for r in rows}
    assert checked == set(catalog.names())
    table = catalog.format_report(rows, as_table=True, seed=0)
    assert hashlib.sha256(table.encode()).hexdigest() == REPRODUCE_TABLE_SHA256


def test_extension_attempts_all_fail():
    results = catalog.random_extension_attempts(attempts=6, seed=0)
    assert results
    for name, cert in results:
        assert cert.constant is False


def test_single_row_block():
    B = single_row_block(5)
    assert B.order == 5 and B.nvars == 4
    from skewrank.certify import certify_constant_rank

    cert = certify_constant_rank(B)
    assert cert.generic_rank == 2 and cert.constant is True
    with pytest.raises(ValueError):
        single_row_block(1)

"""Identity registry engine: verification, reports, mutation flagging."""

import json

import pytest

from falsetheta.rat import Rat
from falsetheta.identities import (
    registered_ids,
    identity_grid,
    identity_default_order,
    verify_identity,
    run_suite,
    report_to_json,
)

EXPECTED_IDS = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E6b", "E7", "E8", "E9", "E10",
    "E11", "E12", "E12b", "E13", "E14", "E15", "E15b", "E16", "E17",
    "E18", "E19", "E20",
]


def test_registry_contents():
    assert sorted(EXPECTED_IDS) == registered_ids()
    for i in EXPECTED_IDS:
        assert identity_grid(i), i
        assert identity_default_order(i) > 0


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        verify_identity("E99")


@pytest.mark.parametrize("order", [0, -2, Rat(-1, 2)])
def test_non_positive_order_rejected(order):
    with pytest.raises(ValueError):
        verify_identity("E7", order=order)


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_each_identity_at_reduced_order(ident):
    rep = verify_identity(ident, order=8)
    assert rep.verdict == "equal", rep.discrepancy


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_mutation_is_flagged_with_location(ident):
    rep = verify_identity(ident, order=8, corrupt=True)
    assert rep.verdict == "unequal"
    assert rep.discrepancy is not None


def test_single_grid_point():
    rep = verify_identity("E7", params={"p": 2, "r": (1, -1)}, order=10)
    assert rep.verdict == "equal"
    assert rep.params == {"p": 2, "r": (1, -1)}


def test_report_json_schema():
    rep = verify_identity("E20", order=10)
    d = report_to_json(rep)
    assert set(d) == {"id", "params", "order", "verdict", "discrepancy", "ms"}
    assert d["order"] == "10/1"
    assert d["verdict"] == "equal" and d["discrepancy"] is None
    json.dumps(d)  # serializable


def test_report_json_discrepancy_fields():
    rep = verify_identity("E20", order=10, corrupt=True)
    d = report_to_json(rep)
    assert d["verdict"] == "unequal"
    assert set(d["discrepancy"]) == {"key", "lhs", "rhs"}
    json.dumps(d)


def test_suite_pattern_and_sorting():
    reports = run_suite(pattern="E1|E2*", order_overrides={"E1": Rat(6)})
    ids = [r.id for r in reports]
    assert ids == sorted(ids)
    assert "E1" in ids and "E2" in ids and "E20" in ids and "E3" not in ids


@pytest.mark.parametrize("jobs", [0, -1])
def test_suite_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_suite(pattern="E19", jobs=jobs)


@pytest.mark.parametrize("pattern", ["NOPE", "", "|", "E99|X*"])
def test_suite_rejects_a_pattern_that_matches_nothing(pattern):
    with pytest.raises(ValueError, match="no identity matches"):
        run_suite(pattern=pattern)


def test_suite_is_deterministic_under_jobs():
    seq = run_suite(pattern="E19|E20", jobs=1)
    par = run_suite(pattern="E19|E20", jobs=4)
    assert [r.id for r in seq] == [r.id for r in par]
    assert [r.verdict for r in seq] == [r.verdict for r in par]

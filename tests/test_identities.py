"""Identity registry engine: verification, reports, mutation flagging."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import families, identities, thetas
from falsetheta.bilaurent import BiLaurentSeries, bl_add, bl_monomial
from falsetheta.rat import Rat, rat_ceil
from falsetheta.series import PuiseuxSeries
from falsetheta.thetas import _unit_product
from falsetheta.identities import (
    _REGISTRY,
    _compares,
    _divide_one_minus,
    _int_poly,
    _series_diff,
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


@pytest.mark.parametrize("jobs", [0, -1, 1.5, "2"])
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


def test_series_diff_is_the_least_differing_exponent_below_every_order():
    a = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 5, 3: 1}, 4)
    b = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 4, Rat(9, 8): 1}, Rat(7, 2))
    assert _series_diff(a, b, 10) == (Rat(7, 8), 5, 4)
    assert _series_diff(a, b, Rat(7, 8)) is None
    c = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 5, Rat(9, 8): 1}, 3)
    assert _series_diff(a, c, 10) == (Rat(9, 8), 0, 1)
    # a's q^3 lies at c's order, so only q^(9/8) can differ
    assert _series_diff(c, a, 10) == (Rat(9, 8), 1, 0)
    assert _series_diff(a, a.truncate(3), 10) is None


def test_a_grid_that_compares_nothing_is_refused():
    with pytest.raises(ValueError, match="compares no coefficient"):
        verify_identity("E1", order=Rat(1, 16))


@pytest.mark.parametrize("ident, order", [("E18", Rat(25)), ("E20", Rat(40))])
def test_vanishing_sums_compare_at_every_grid_point(ident, order):
    # each side is one half of a sum that cancels, so neither is zero
    for point in identity_grid(ident):
        lhs, rhs = _REGISTRY[ident].build(point, order)
        assert _compares(lhs, rhs, order), point
    assert verify_identity(ident, order=order).verdict == "equal"


def _six_monomials(n1, n2):
    """The six signed unit monomials of E19's numerator, one bl_monomial each."""
    return bl_add(*(bl_monomial(s, e1, e2, 1)
                    for s, e1, e2 in families._orbit_offsets(n1, n2, 0, 0)))


def test_E19_compares_over_its_whole_grid():
    # the points whose six-monomial numerator cancels compare nothing alone
    empty = [p for p in identity_grid("E19")
             if not _compares(*_REGISTRY["E19"].build(p, Rat(1)), Rat(1))]
    assert len(empty) == 11
    assert all(not _six_monomials(p["n1"], p["n2"]).terms for p in empty)
    assert verify_identity("E19", order=1).verdict == "equal"


def test_E19_right_side_is_the_sum_of_six_monomials():
    for p in identity_grid("E19"):
        assert _REGISTRY["E19"].build(p, Rat(1))[1] == _six_monomials(p["n1"], p["n2"]), p


@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.integers(-2, 2), max_size=12))
@settings(max_examples=100, deadline=None)
def test_int_poly_is_the_sum_of_its_monomials(terms):
    got = _int_poly(terms)
    want = bl_add(BiLaurentSeries({}, 1), *(bl_monomial(c, *k, 1) for k, c in terms.items()))
    assert got == want and (got.qorder, got.window) == (1, None)
    kept = {k: c for k, c in terms.items() if c}
    assert set(got.rows) == set(kept)
    for k, c in kept.items():
        for l, d in kept.items():
            assert (got.rows[k] is got.rows[l]) == (c == d), (k, l)


# the steps d = -alpha of E19's factors (1 - z^d), alpha the positive roots of A2
_ROOT_STEPS = [(-1, 0), (0, -1), (-1, -1)]


def _times_one_minus(terms, d):
    """{key: int} times (1 - z^d), zeros dropped."""
    out = dict(terms)
    for (k1, k2), c in terms.items():
        key = (k1 + d[0], k2 + d[1])
        out[key] = out.get(key, 0) - c
    return {k: c for k, c in out.items() if c}


@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.integers(-5, 5), max_size=12))
@settings(max_examples=100, deadline=None)
def test_dividing_by_one_minus_undoes_the_product(q):
    want = {k: c for k, c in q.items() if c}
    for d in _ROOT_STEPS:
        assert _divide_one_minus(_times_one_minus(q, d), d) == want, d


@pytest.mark.parametrize("d", _ROOT_STEPS)
def test_a_line_that_does_not_sum_to_zero_leaves_a_remainder(d):
    numer = {(0, 0): 1, (1, 0): 1}  # 1 + z1: along each d, a line sums to 1 or 2
    assert _times_one_minus(_divide_one_minus(numer, d), d) != numer


def test_E19_finds_a_numerator_that_the_denominator_does_not_divide(monkeypatch):
    # 1 + z1 in place of the six monomials, on both sides
    monkeypatch.setattr(identities, "_orbit_offsets",
                        lambda n1, n2, r1, r2: ((1, 0, 0), (1, 1, 0)))
    assert verify_identity("E19", {"n1": 0, "n2": 0}, 1).verdict == "unequal"


_T2T_POINTS = [(i, p) for i in ("E6", "E6b") for p in identity_grid(i)]


@pytest.mark.parametrize("ident, point", _T2T_POINTS,
                         ids=[f"{i}-{p['variant']}-{p['unit']}" for i, p in _T2T_POINTS])
def test_each_theta_ratio_point_compares_and_is_equal(ident, point):
    lhs, rhs = _REGISTRY[ident].build(point, Rat(8))
    assert _compares(lhs, rhs, Rat(8))
    assert verify_identity(ident, point, 8).verdict == "equal"


@pytest.mark.parametrize("ident, variants", [("E6", {"closed", "poch"}), ("E6b", {"quad"})])
def test_theta_ratio_grids_check_every_variant_on_every_unit(ident, variants):
    points = {(p["variant"], p["unit"]) for p in identity_grid(ident)}
    assert points == {(v, u) for v in variants for u in ("z1", "z2", "z12")}


def test_compares_looks_below_every_order():
    a = PuiseuxSeries({Rat(7, 8): 5, 3: 1}, 4)
    zero = PuiseuxSeries({}, 2)
    assert _compares(a, zero, 10) and _compares(zero, a, 10)
    assert not _compares(a, zero, Rat(7, 8))  # the order asked
    assert not _compares(a.shift(2), zero, 10)  # q^(23/8) lies past zero's order


def _E16_left_by_terms(order):
    """E16's left side term by term: each w^n q^n (q; q^2)_n (w q; q^2)_n /
    (-w q; q)_(2n+1) one _unit_product of its 4n + 1 factors, built from 1."""
    terms = []
    for n in range(rat_ceil(order)):
        factors = [(1, a, 2 * j + 1, 1) for j in range(n) for a in (0, 1)]
        factors += [(-1, 1, j + 1, -1) for j in range(2 * n + 1)]
        terms.append(_unit_product("z1", factors, order, (n, n)))
    return bl_add(*terms)


@pytest.mark.parametrize("order", [Rat(1), Rat(7, 2), Rat(25), Rat(40), Rat(81, 2)])
def test_E16_left_side_is_its_term_by_term_sum(order):
    # the default order is 25; the term ratio must hold past it too
    (point,) = identity_grid("E16")
    got, _ = _REGISTRY["E16"].build(point, order)
    want = _E16_left_by_terms(order)
    fields = ("kd", "rows", "qorder", "window")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


@pytest.mark.parametrize("order", [Rat(8), Rat(17, 2), Rat(20)])
def test_E2_left_side_claims_the_order_asked(order):
    # the theta is built just deep enough for the keys the shift brings
    # below the order, and the shift lowers its order by m times its window
    for point in identity_grid("E2"):
        lhs, _ = _REGISTRY["E2"].build(point, order)
        assert lhs.qorder == order, point


# the public builders that no registered identity reaches, and what needs each
_UNREACHED = {
    "theta01": "the bench expand workload",
    "kw_character_N3": "the bench expand workload",
    "J_series": "the bench expand workload",
    "F_constant_term": "registering it as E7b needs a SUITE_ORDERS entry",
    "f_series": "acceptance criterion 6",
    "rank_one_coeff": "acceptance criterion 7",
    "rogers_false_theta": "acceptance criterion 7",
}


def test_every_public_builder_is_reached_by_an_identity_or_allowed():
    """Every callable in thetas.__all__ and families.__all__ runs while the
    registered identities build their grids, unless _UNREACHED names what
    needs it; an allowed name that is reached should leave the list."""
    builders = {name: getattr(m, name) for m in (thetas, families) for name in m.__all__}
    codes = {getattr(f, "__wrapped__", f).__code__: name for name, f in builders.items()}
    thetas.t2t_factor.cache_clear()  # a cache hit does not enter its body
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for ident in registered_ids():
            order = min(identity_default_order(ident), Rat(4))
            for point in identity_grid(ident):
                _REGISTRY[ident].build(point, order)
    finally:
        sys.setprofile(None)
    reached = {name for code, name in codes.items() if code in seen}
    assert set(builders) - reached - set(_UNREACHED) == set()
    assert reached & set(_UNREACHED) == set()

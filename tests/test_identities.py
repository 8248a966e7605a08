"""Identity registry engine: verification, reports, mutation flagging."""

import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import families, identities, thetas
from falsetheta.bilaurent import BiLaurentSeries, bl_add, bl_monomial, _common_rows
from falsetheta.rat import Rat, rat_ceil
from falsetheta.series import PuiseuxSeries, zero as q_zero
from falsetheta.thetas import _unit_product
from falsetheta.identities import (
    _REGISTRY,
    _corrupt,
    _diff,
    _divide_one_minus,
    _int_poly,
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


@pytest.mark.parametrize("pattern, overrides, stray", [
    ("E19", {"E19": 1, "E6B": 3}, "'E6B'"),
    ("E19|E20", {"E6": 3, "E19": 1, "E2": 3}, "'E2', 'E6'"),
], ids=["one", "two"])
def test_suite_refuses_an_override_its_pattern_does_not_select(pattern, overrides, stray):
    with pytest.raises(ValueError, match=f"overridden ids \\[{stray}\\]"):
        run_suite(pattern=pattern, order_overrides=overrides)


def test_suite_is_deterministic_under_jobs():
    seq = run_suite(pattern="E19|E20", jobs=1)
    par = run_suite(pattern="E19|E20", jobs=4)
    assert [r.id for r in seq] == [r.id for r in par]
    assert [r.verdict for r in seq] == [r.verdict for r in par]


def test_diff_is_the_least_differing_exponent_below_every_order():
    a = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 5, 3: 1}, 4)
    b = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 4, Rat(9, 8): 1}, Rat(7, 2))
    # compared: q^0, q^(1/3), q^(7/8), q^(9/8) and a's q^3
    assert _diff(a, b, 10) == ((Rat(7, 8), 5, 4), 5)
    assert _diff(a, b, Rat(7, 8)) == (None, 2)
    c = PuiseuxSeries({0: 1, Rat(1, 3): 2, Rat(7, 8): 5, Rat(9, 8): 1}, 3)
    assert _diff(a, c, 10) == ((Rat(9, 8), 0, 1), 4)
    # a's q^3 lies at c's order, so only q^(9/8) can differ
    assert _diff(c, a, 10) == ((Rat(9, 8), 1, 0), 4)
    assert _diff(a, a.truncate(3), 10) == (None, 3)


def test_a_grid_that_compares_nothing_is_refused():
    with pytest.raises(ValueError, match="compares no coefficient"):
        verify_identity("E1", order=Rat(1, 16))


@pytest.mark.parametrize("ident, order", [("E18", Rat(25)), ("E20", Rat(40))])
def test_vanishing_sums_compare_at_every_grid_point(ident, order):
    # each side is one half of a sum that cancels, so neither is zero
    for point in identity_grid(ident):
        lhs, rhs = next(_REGISTRY[ident].build([point], order))
        assert _diff(lhs, rhs, order)[1], point
    assert verify_identity(ident, order=order).verdict == "equal"


def _six_monomials(n1, n2):
    """The six signed unit monomials of E19's numerator, one bl_monomial each."""
    return bl_add(*(bl_monomial(s, e1, e2, 1)
                    for s, e1, e2 in families._orbit_offsets(n1, n2, 0, 0)))


def test_E19_compares_over_its_whole_grid():
    # the points whose six-monomial numerator cancels compare nothing alone
    empty = [p for p in identity_grid("E19")
             if not _diff(*next(_REGISTRY["E19"].build([p], Rat(1))), Rat(1))[1]]
    assert len(empty) == 11
    assert all(not _six_monomials(p["n1"], p["n2"]).terms for p in empty)
    assert verify_identity("E19", order=1).verdict == "equal"


def test_E19_right_side_is_the_sum_of_six_monomials():
    for p in identity_grid("E19"):
        assert next(_REGISTRY["E19"].build([p], Rat(1)))[1] == _six_monomials(p["n1"], p["n2"]), p


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
    lhs, rhs = next(_REGISTRY[ident].build([point], Rat(8)))
    assert _diff(lhs, rhs, Rat(8))[1]
    assert verify_identity(ident, point, 8).verdict == "equal"


@pytest.mark.parametrize("ident, variants", [("E6", {"closed", "poch"}), ("E6b", {"quad"})])
def test_theta_ratio_grids_check_every_variant_on_every_unit(ident, variants):
    points = {(p["variant"], p["unit"]) for p in identity_grid(ident)}
    assert points == {(v, u) for v in variants for u in ("z1", "z2", "z12")}


def test_diff_counts_below_every_order():
    a = PuiseuxSeries({Rat(7, 8): 5, 3: 1}, 4)
    zero = PuiseuxSeries({}, 2)
    # q^3 lies past zero's order
    assert _diff(a, zero, 10)[1] == _diff(zero, a, 10)[1] == 1
    assert _diff(a, zero, Rat(7, 8))[1] == 0  # the order asked
    assert _diff(a.shift(2), zero, 10)[1] == 0  # q^(23/8) lies past zero's order


# the comparison as three helpers, one per variable count and one for
# whether anything is compared, kept as the oracle of _diff


def _series_diff(a, b, order):
    """(e, a_e, b_e) at the least e below every order where a, b differ."""
    o = min(a.order, b.order, order)
    a, b = a.truncate(o), b.truncate(o)
    if a == b:
        return None
    e = (a - b).valuation()
    return (e, a.coeff(e), b.coeff(e))


def _compares(a, b, order):
    """Whether a or b has a nonzero coefficient below order and below both
    sides' orders."""
    if isinstance(a, PuiseuxSeries):
        o, coeffs = min(a.order, b.order, order), (a, b)
    else:
        o, coeffs = min(a.qorder, b.qorder, order), (*a.rows.values(), *b.rows.values())
    return any(not c.truncate(o).is_zero() for c in coeffs)


def _bl_diff(a, b, order):
    """((e1, e2, e), a_e, b_e) at the least e, then key, where a and b differ."""
    kd, (ra, rb) = _common_rows((a, b))
    za, zb = q_zero(a.qorder), q_zero(b.qorder)
    best = None
    for key in sorted(ra.keys() | rb.keys()):
        d = _series_diff(ra.get(key, za), rb.get(key, zb), order)
        if d is not None and (best is None or d[0] < best[0][2]):
            best = ((Rat(key[0], kd), Rat(key[1], kd), d[0]), d[1], d[2])
    return best


def _places(a, b, order):
    """The places (key, e) below every order where a or b is nonzero."""
    if isinstance(a, PuiseuxSeries):
        a, b = bl_monomial(a, 0, 0, a.order), bl_monomial(b, 0, 0, b.order)
    o = min(a.qorder, b.qorder, order)
    return {(k, e) for s in (a, b) for k, c in s.terms.items() for e in c.truncate(o).terms}


_EXPS = st.sampled_from(sorted({Rat(n, d) for d in (1, 2, 3) for n in range(-2, 9)}))
_CHANGES = st.dictionaries(_EXPS, st.integers(-2, 2), max_size=3)
_ORDERS = st.sampled_from([Rat(n, 2) for n in range(-1, 9) if n])
_KEYS = st.sampled_from([(Rat(a, 2), Rat(b, 2)) for a in (-2, -1, 0, 1) for b in (-1, 0, 2)])


@st.composite
def _side_pairs(draw):
    """Two sides that share most terms, of unequal orders; two-variable sides
    may miss keys of the other, and one change at several keys gives equal
    least exponents at two keys."""
    qa, qb = draw(_ORDERS), draw(_ORDERS)
    if draw(st.booleans()):
        a = draw(st.dictionaries(_EXPS, st.integers(-2, 2), max_size=6))
        b = {**a, **draw(_CHANGES)}
        return PuiseuxSeries(a, qa), PuiseuxSeries(b, qb)
    a = draw(st.dictionaries(_KEYS, st.dictionaries(_EXPS, st.integers(-2, 2), max_size=4),
                             max_size=5))
    b = dict(a)
    changes = draw(_CHANGES)
    for key in draw(st.lists(_KEYS, max_size=3)):
        b[key] = {**b.get(key, {}), **changes}
    for key in draw(st.lists(_KEYS, max_size=2)):
        b.pop(key, None)
    return tuple(BiLaurentSeries({k: PuiseuxSeries(t, q) for k, t in terms.items()}, q)
                 for terms, q in ((a, qa), (b, qb)))


@given(_side_pairs(), _ORDERS)
@settings(max_examples=300, deadline=None)
def test_diff_matches_the_three_helpers(sides, order):
    a, b = sides
    disc, compared = _diff(a, b, order)
    diff = _series_diff if isinstance(a, PuiseuxSeries) else _bl_diff
    assert disc == diff(a, b, order)
    assert compared == len(_places(a, b, order))
    assert bool(compared) == _compares(a, b, order)


def _E16_left_by_terms(order):
    """E16's left side term by term: each w^n q^n (q; q^2)_n (w q; q^2)_n /
    (-w q; q)_(2n+1) one _unit_product of its 4n + 1 factors, built from 1."""
    terms = []
    for n in range(rat_ceil(order)):
        factors = [(1, a, 2 * j + 1, 1) for j in range(n) for a in (0, 1)]
        factors += [(-1, 1, j + 1, -1) for j in range(2 * n + 1)]
        terms.append(_unit_product(factors, order, (n, n)))
    return bl_add(*terms)


@pytest.mark.parametrize("order", [Rat(1), Rat(7, 2), Rat(25), Rat(40), Rat(81, 2)])
def test_E16_left_side_is_its_term_by_term_sum(order):
    # the default order is 25; the term ratio must hold past it too
    (point,) = identity_grid("E16")
    got, _ = next(_REGISTRY["E16"].build([point], order))
    want = _E16_left_by_terms(order)
    fields = ("kd", "rows", "qorder", "window")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


@pytest.mark.parametrize("order", [Rat(8), Rat(17, 2), Rat(20)])
def test_E2_left_side_claims_the_order_asked(order):
    # the theta is built just deep enough for the keys the shift brings
    # below the order, and the shift lowers its order by m times its window
    for point in identity_grid("E2"):
        lhs, _ = next(_REGISTRY["E2"].build([point], order))
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
                next(_REGISTRY[ident].build([point], order))
    finally:
        sys.setprofile(None)
    reached = {name for code, name in codes.items() if code in seen}
    assert set(builders) - reached - set(_UNREACHED) == set()
    assert reached & set(_UNREACHED) == set()


# -- shared kernels ------------------------------------------------------------


def _report_of_bare_builds(ident, order, corrupt):
    """(verdict, discrepancy, params) folded from each grid point built
    alone, as verify_identity folds them: the first discrepancy wins."""
    for point in identity_grid(ident):
        lhs, rhs = next(_REGISTRY[ident].build([point], order))
        if corrupt:
            lhs, _ = _corrupt(lhs)
        disc, _ = _diff(lhs, rhs, order)
        if disc is not None:
            return "unequal", disc, point
    return "equal", None, {}


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("ident", registered_ids())
def test_a_grid_built_from_shared_kernels_reports_as_its_bare_points(ident, corrupt):
    order = identity_default_order(ident)
    rep = verify_identity(ident, order=order, corrupt=corrupt)
    want = _report_of_bare_builds(ident, order, corrupt)
    assert (rep.verdict, rep.discrepancy, rep.params) == want


def _count_calls(monkeypatch, name, counted=lambda *args, **kwargs: True):
    """Count the calls of a falsetheta function, patched in every module
    that binds it, for which counted(*args, **kwargs) holds."""
    calls = []
    fn = getattr(identities, name)

    def spy(*args, **kwargs):
        if counted(*args, **kwargs):
            calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("falsetheta") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, spy)
    return calls


def _inverse(*args, inverse=False):
    return inverse


@pytest.mark.parametrize("ident, name, calls", [
    ("E15b", "_hyper_factor", 1),
    ("E15", "_hyper_factor", 1),
    ("E14", "_hyper_factor", 1),
    ("E1", "theta_hat", 2),
    ("E6", "t2t_factor", 1),
    ("E6b", "t2t_factor", 1),
    ("E12b", "t2t_factor", 1),
    ("E12b", "s01_factor", 1),
])
def test_a_grid_builds_each_shared_kernel_once(monkeypatch, ident, name, calls):
    made = _count_calls(monkeypatch, name)
    assert verify_identity(ident, order=Rat(6)).verdict == "equal"
    assert len(made) == calls, made


@pytest.mark.parametrize("unit", ["z1", "z2", "z12"])
def test_E12b_holds_on_every_unit(unit):
    # both sides are built in z1 and moved, so the half-shift is u -> u q^-1
    # on every unit, z1 z2 included
    assert verify_identity("E12b", {"unit": unit}, 6).verdict == "equal"


def test_E14_builds_its_inverse_pair_once_and_a_lattice_point_none(monkeypatch):
    pairs = _count_calls(monkeypatch, "unit_pochhammer", _inverse)
    assert verify_identity("E14", order=Rat(6)).verdict == "equal"
    assert len(pairs) == 1
    pairs.clear()
    assert verify_identity("E14", {"part": "lattice", "r": (1, -1)}, 7).verdict == "equal"
    assert pairs == []


def test_a_grid_stops_building_at_its_first_discrepancy(monkeypatch):
    # each of E7's points builds its left side with coeff_F
    made = _count_calls(monkeypatch, "coeff_F")
    assert len(identity_grid("E7")) == 28
    assert verify_identity("E7", corrupt=True).verdict == "unequal"
    assert len(made) == 1


def _one_pair_short(build):
    return lambda points, order: build(points[1:], order)


def _one_pair_over(build):
    def over(points, order):
        yield from build(points, order)
        yield next(build(points[:1], order))
    return over


@pytest.mark.parametrize("stub, error", [(_one_pair_short, "shorter"), (_one_pair_over, "longer")])
def test_a_builder_yields_one_pair_per_point(monkeypatch, stub, error):
    # every pair E20 yields is equal, so only the count of pairs can fail
    entry = _REGISTRY["E20"]
    monkeypatch.setitem(_REGISTRY, "E20", dataclasses.replace(entry, build=stub(entry.build)))
    with pytest.raises(ValueError, match=f"is {error} than"):
        verify_identity("E20")

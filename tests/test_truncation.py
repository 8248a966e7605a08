"""Truncation honesty: every claimed order is correct.

Each builder is run at an order N and again deeper, at N + delta; on the
keys inside both windows the two must agree below the smaller of their
claimed orders.  A builder that overclaims its order, or keeps a key it
has not finished, disagrees with its deeper build.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import families, series, thetas
from falsetheta.bilaurent import bl_on_unit
from falsetheta.identities import _REGISTRY, registered_ids, _t2t_sum
from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries

DELTAS = (Rat(1, 2), Rat(1), Rat(3))


def _inside(key, window):
    return window is None or max(abs(key[0]), abs(key[1])) <= window


def _disagreement(a, b):
    """The least exponent below both orders, with its key when a and b are
    two-variable, where a and b differ on a key inside both windows; None
    if they agree."""
    if isinstance(a, PuiseuxSeries):
        d = a - b  # of the smaller order
        return None if d.is_zero() else d.valuation()
    za, zb = series.zero(a.qorder), series.zero(b.qorder)
    ta, tb = a.terms, b.terms  # each read of terms builds a new map
    for k in sorted(ta.keys() | tb.keys()):
        if _inside(k, a.window) and _inside(k, b.window):
            d = _disagreement(ta.get(k, za), tb.get(k, zb))
            if d is not None:
                return k, d
    return None


@pytest.mark.parametrize("ident", registered_ids())
def test_identity_sides_agree_with_a_deeper_build(ident):
    entry = _REGISTRY[ident]
    n = min(entry.default_order, Rat(8))
    bad = []
    for point in entry.grid:
        sides = entry.build(point, n)
        for delta in DELTAS:
            for side, shallow, deep in zip("LR", sides, entry.build(point, n + delta)):
                d = _disagreement(shallow, deep)
                if d is not None:
                    bad.append((point, delta, side, d))
    assert not bad


_UNITS = ("z1", "z2", "z12")
_BUILDERS = {
    "unit_pochhammer": lambda n: thetas.unit_pochhammer(Rat(1, 3), 1, n),
    "unit_pochhammer_inverse": lambda n: thetas.unit_pochhammer(
        Rat(1, 2), 1, n, inverse=True),
    **{f"theta_hat_{u}_{k}": (lambda n, u=u, k=k: bl_on_unit(thetas.theta_hat(k, n), u))
       for u in _UNITS for k in (1, 2)},
    "theta_hat_sum": lambda n: thetas.theta_hat_sum(2, n),
    "theta01": lambda n: thetas.theta01(2, n),
    "calT": thetas.calT,
    "t2t_factor": thetas.t2t_factor,
    "t2t_sum_closed": lambda n: _t2t_sum("z1", n, "closed"),
    "f_series": thetas.f_series,
    "f_coeff": lambda n: thetas.f_coeff(1, -1, n),
    "J_series": thetas.J_series,
    "J_constant_term": thetas.J_constant_term,
    "kw_character_N3": thetas.kw_character_N3,
    "eta5_over_eta2": lambda n: series.eta_quotient({1: 5, 2: -1}, n),
    "eta1_over_eta2": lambda n: series.eta_quotient({1: 1, 2: -1}, n),
    "G_frak": lambda n: families.G_frak((Rat(1, 3), Rat(2, 3)), 3, n),
    "G_frak_rewrite_p2": lambda n: families.G_frak_rewrite_p2((Rat(-1, 2), 0), n),
    "G_frak_closed_p2": lambda n: families.G_frak_closed_p2((1, -1), n),
    "coeff_F": lambda n: families.coeff_F((1, 0), 2, n),
    "F_constant_term": lambda n: families.F_constant_term(2, n),
    "G_hyper": lambda n: families.G_hyper((1, -1), n),
    "H_frak": lambda n: families.H_frak(Rat(-3, 2), 1, n),
    "F0_general": lambda n: families.F0_series(3, n),
    "rank_one_coeff": lambda n: families.rank_one_coeff(3, -1, n),
    "rogers_false_theta": families.rogers_false_theta,
    "zero": series.zero,
    "one": series.one,
    "monomial": lambda n: series.monomial(Rat(-2, 3), Rat(5, 2), n),
    "pochhammer": lambda n: series.pochhammer(-1, Rat(1, 2), 2, None, n),
    "pochhammer_finite": lambda n: series.pochhammer(1, 0, 1, 4, n),
    "eta_series": lambda n: series.eta_quotient({2: 1}, n),
    "eta_product": lambda n: series.eta_product({1: -2, 3: 1}, n),
    "lattice_sum": lambda n: series.lattice_sum(
        (1, -1, 1), (0, Rat(1, 2)), Rat(1, 3), n, lambda n1, n2: n1 - 2 * n2),
}


@pytest.mark.parametrize("order", [Rat(3), Rat(13, 2), Rat(9)])
@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_public_builder_agrees_with_a_deeper_build(name, order):
    build = _BUILDERS[name]
    shallow = build(order)
    for delta in DELTAS:
        assert _disagreement(shallow, build(order + delta)) is None, delta


@pytest.mark.parametrize("order", [Rat(3), Rat(13, 2), Rat(9)])
@pytest.mark.parametrize("unit", _UNITS)
def test_s01_agrees_with_a_deeper_and_wider_build(unit, order):
    W = 3
    def build(n, w):
        return bl_on_unit(thetas.s01_factor(n, w), unit)

    shallow = build(order, W)
    for delta in DELTAS:
        assert _disagreement(shallow, build(order + delta, W + 1)) is None
    wide = build(order, W + order + 4)
    assert _disagreement(shallow, wide) is None
    assert shallow == wide.clip(W)


_INTS = st.integers(-3, 3)
# each strategy draws one builder's parameters and returns the builder of
# the order alone
_DRAWN = {
    "theta_hat": st.builds(partial, st.just(thetas.theta_hat), st.sampled_from([1, 2])),
    "t2t_factor": st.just(thetas.t2t_factor),
    "s01_factor": st.builds(lambda w: partial(thetas.s01_factor, zwindow=w),
                            st.integers(0, 6)),
    "G_hyper": st.builds(lambda r1, r2: partial(families.G_hyper, (r1, r2)), _INTS, _INTS),
    "H_frak": st.builds(lambda j, r2: partial(families.H_frak, Rat(2 * j + 1, 2), r2),
                        _INTS, _INTS),
    "A_table": st.builds(lambda m, quad: partial(families._A_table, m, quad=quad),
                         st.integers(0, 12), st.sampled_from([0, 1])),
}


@pytest.mark.parametrize("name", sorted(_DRAWN))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_drawn_builder_agrees_with_a_deeper_build(name, data):
    build = data.draw(_DRAWN[name], label=name)
    order = Rat(data.draw(st.integers(1, 20), label="2 order"), 2)
    shallow = build(order)
    for delta in DELTAS:
        assert _disagreement(shallow, build(order + delta)) is None, delta

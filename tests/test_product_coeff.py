"""On-demand Fourier coefficients equal those of the full product build.

bl_mul and product_coeff share one integer-row layout, whose rows they
convolve with the kernel PuiseuxSeries products run on too.  product_coeff
reads a(z1) b(z2) c(z1 z2) from three series in z1; every kernel whose
coefficients the identities read through it is also built in full with
bl_mul here, its factors placed on their units by a test-local key map,
and the two are compared key by key: each coefficient's q-expansion and
its truncation order must agree exactly.  Random factors, and E17's
four-factor constant term, are checked against the sum over key tuples
of products of PuiseuxSeries.  The readers build each distinct factor
once, which the build counts at the end check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import bilaurent, families, thetas
from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, eta_quotient, zero as q_zero
from falsetheta.bilaurent import BiLaurentSeries, bl_mul, product_coeff
from falsetheta.identities import _build_E14
from falsetheta.thetas import (
    unit_pochhammer,
    calT,
    theta_hat,
    t2t_factor,
    s01_factor,
    f_series,
    f_coeff,
    J_series,
    J_constant_term,
)
from falsetheta.families import H_frak

UNITS = ("z1", "z2", "z12")
DIRECTIONS = ((1, 0), (0, 1), (1, 1))


def _placed(factors):
    """Three series in z1 moved onto z1, z2 and z1 z2: the key (e, 0) of
    the i-th becomes e times the i-th direction."""
    return [BiLaurentSeries({(e * d1, e * d2): c for (e, _), c in f.terms.items()}, f.qorder)
            for f, (d1, d2) in zip(factors, DIRECTIONS)]


def _full(factors):
    """The product of three series in z1 on the three units, by bl_mul."""
    out, *rest = _placed(factors)
    for f in rest:
        out = bl_mul(out, f)
    return out


def _assert_same_coeff(got, want):
    assert got.order == want.order
    assert got.items() == want.items()


@pytest.mark.parametrize("qorder", [Rat(7), Rat(10)])
def test_f_kernel_coefficients(qorder):
    factors = [t2t_factor(qorder)] * 3
    full = f_series(qorder)
    for r1 in range(-3, 4):
        for r2 in range(-3, 4):
            want = full.coeff(r1, r2)
            _assert_same_coeff(product_coeff(*factors, r1, r2), want)
            _assert_same_coeff(f_coeff(r1, r2, qorder), want)


def test_h_frak_kernel_at_half_integer_r1():
    order = Rat(6)
    build = order + Rat(1, 2)
    W = 7  # H_frak's window at this order for max(|r1|, |r2|) < 2
    s = s01_factor(build, W)
    factors = [t2t_factor(build), s, s]
    full = _full(factors)
    for r1 in (Rat(1, 2), Rat(-1, 2), Rat(3, 2), Rat(-3, 2)):
        for r2 in range(-1, 2):
            want = full.coeff(r1, r2)
            _assert_same_coeff(product_coeff(*factors, r1, r2), want)
            scaled = (eta_quotient({1: 5, 2: -1}, build) * want).truncate(order)
            assert H_frak(r1, r2, order) == scaled


def test_sixfold_inverse_pochhammer_kernel():
    order = Rat(13, 2)
    # E14's 1/(u q^(1/2), u^-1 q^(1/2); q)_oo on each unit
    factors = [unit_pochhammer(Rat(1, 2), 1, order, inverse=True)] * 3
    full = _full(factors)
    for r1 in range(-2, 3):
        for r2 in range(-2, 3):
            _assert_same_coeff(product_coeff(*factors, r1, r2), full.coeff(r1, r2))


@pytest.mark.parametrize("qorder", [Rat(6), Rat(8)])
def test_J_constant_term(qorder):
    _assert_same_coeff(J_constant_term(qorder), J_series(qorder).coeff(0, 0))


def test_J_constant_term_by_orbits_against_the_four_factor_sum():
    # past E17's default order; the oracle sums calT_k f_(-k) over every
    # key tuple of calT and the three f factors
    qorder = Rat(30)
    factors = [calT(qorder), *_placed([t2t_factor(qorder)] * 3)]
    want = eta_quotient({1: 5, 2: -1}, qorder) * _tuplewise_coeff(factors, 0, 0)
    _assert_same_coeff(J_constant_term(qorder), want.truncate(qorder))


def test_a_key_off_the_key_lattice_reads_zero():
    # the keys of the f factors are integers, so no tuple sums to (1/2, 0)
    factors = [t2t_factor(3)] * 3
    got = product_coeff(*factors, Rat(1, 2), 0)
    assert got.is_zero() and got.order == Rat(13, 4)
    assert not product_coeff(*factors, 0, 0).is_zero()
    # with a theta_hat along z1 the keys go over the key denominator 2, and
    # a key on that lattice but off the product's support reads zero too
    factors[0] = theta_hat(1, 3)
    full = _full(factors)
    for r1, r2 in ((0, 0), (Rat(1, 2), 0), (Rat(1, 4), 0), (Rat(-3, 2), 1)):
        _assert_same_coeff(product_coeff(*factors, r1, r2), full.coeff(r1, r2))
    assert product_coeff(*factors, 0, 0).is_zero()
    assert not product_coeff(*factors, Rat(1, 2), 0).is_zero()


@pytest.mark.parametrize("unit", UNITS)
def test_a_factor_off_its_unit_is_refused(unit):
    # the factor read on the unit has one key off z1
    factors = [t2t_factor(3)] * 3
    i = UNITS.index(unit)
    stray = {**factors[i].terms, (Rat(1, 2), Rat(-1, 2)): PuiseuxSeries({0: 1}, 3)}
    factors[i] = BiLaurentSeries(stray, 3)
    with pytest.raises(ValueError, match=f"{unit} factor has the key \\(1/2, -1/2\\), off z1"):
        product_coeff(*factors, 0, 0)


def _tuplewise_coeff(factors, r1, r2):
    """The (r1, r2) coefficient key tuple by key tuple with
    PuiseuxSeries.__mul__, the oracle for product_coeff."""
    vals = [f.qvaluation() for f in factors]
    total = sum(vals)
    qorder = min(f.qorder + total - v for f, v in zip(factors, vals))
    triples = [[(k, c, c.valuation()) for k, c in f.terms.items()] for f in factors]
    first = {k: (c, v) for k, c, v in triples[0]}
    floors = [sum(vals[:i]) for i in range(len(factors))]

    def tuples(i, key, budget):
        # (coeff, valuation) of factors[:i+1] with keys summing to key and
        # valuations summing below budget
        if i == 0:
            hit = first.get(key)
            if hit is not None and hit[1] < budget:
                yield (hit,)
            return
        for k, c, v in triples[i]:
            if v + floors[i] >= budget:
                continue
            for head in tuples(i - 1, (key[0] - k[0], key[1] - k[1]), budget - v):
                yield head + ((c, v),)

    acc = q_zero(qorder)
    for pairs in tuples(len(factors) - 1, (Rat(r1), Rat(r2)), qorder):
        s = sum(v for _, v in pairs)
        term = None
        for c, v in pairs:
            c = c.truncate(min(c.order, qorder - s + v))
            term = c if term is None else term * c
        acc = acc + term
    return acc.truncate(qorder)


_exponents = st.builds(Rat, st.integers(-24, 48), st.sampled_from([1, 2, 3, 8, 24]))
_coeffs = st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 7]))
_halves = st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 2]))


@st.composite
def _factors_and_key(draw):
    """Three series in z1, with integer and half-integer keys, some perhaps
    empty, and a key that is a sum of their keys on z1, z2 and z1 z2, any
    small key, or one off the lattice."""
    factors = []
    for _ in DIRECTIONS:
        qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
        keys = draw(st.dictionaries(_halves, st.dictionaries(_exponents, _coeffs, max_size=5),
                                    max_size=4))
        factors.append(BiLaurentSeries(
            {(m, 0): PuiseuxSeries(c, qorder) for m, c in keys.items()}, qorder
        ))
    kind = draw(st.sampled_from(["support", "any", "off"]))
    if kind == "support" and all(f.terms for f in factors):
        ma, mb, mc = (draw(st.sampled_from(sorted(f.terms)))[0] for f in factors)
        return factors, (ma + mc, mb + mc)
    if kind == "off":
        off = st.builds(Rat, st.integers(-7, 7), st.sampled_from([3, 4, 5]))
        return factors, (draw(off), draw(st.one_of(off, _halves)))
    return factors, (draw(_halves), draw(_halves))


@given(_factors_and_key())
@settings(max_examples=300, deadline=None)
def test_random_factors_against_the_tuplewise_sum(case):
    factors, (r1, r2) = case
    want = _tuplewise_coeff(_placed(factors), r1, r2)
    _assert_same_coeff(product_coeff(*factors, r1, r2), want)


# -- each distinct factor is built once ------------------------------------------


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; the count list."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_an_E14_poch_point_builds_one_table(monkeypatch):
    # one inverse pair, read on all three units
    tables = _counting(monkeypatch, thetas, "_binomial_table")
    _build_E14({"part": "poch", "r": (1, -1)}, Rat(7))
    assert len(tables) == 1


def test_a_cold_f_coeff_builds_one_t2t_factor():
    t2t_factor.cache_clear()
    f_coeff(1, 0, Rat(7))
    assert t2t_factor.cache_info().misses == 1


def test_an_H_frak_builds_one_s01_table(monkeypatch):
    # one s01_factor, read on z2 and on z1 z2
    tables = _counting(monkeypatch, families, "s01_factor")
    H_frak(Rat(1, 2), 1, Rat(6))
    assert len(tables) == 1


def test_an_f_coeff_spreads_each_distinct_row_once(monkeypatch):
    # g passed three times is laid out once: one spread per distinct row of g
    spreads = _counting(monkeypatch, bilaurent, "_spread")
    f_coeff(1, 0, Rat(15))
    assert len(spreads) == len({id(c) for c in t2t_factor(Rat(15)).rows.values()}) == 29

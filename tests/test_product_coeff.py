"""On-demand Fourier coefficients equal those of the full product build.

bl_mul and product_coeff share one integer-row layout, whose rows they
convolve with the kernel PuiseuxSeries products run on too.  Every kernel
whose coefficients the identities read through product_coeff is also
built in full with bl_mul here, and the two are compared key by key:
each coefficient's q-expansion and its truncation order must agree
exactly.  Random factors along z1, z2 and z1 z2, and E17's four-factor
constant term, are checked against the sum over key tuples of products
of PuiseuxSeries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta.rat import Rat
from falsetheta.series import PuiseuxSeries, eta_quotient, zero as q_zero
from falsetheta.bilaurent import BiLaurentSeries, UNIT_KEYS, bl_mul, product_coeff
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


def _full(factors):
    out = factors[0]
    for f in factors[1:]:
        out = bl_mul(out, f)
    return out


def _assert_same_coeff(got, want):
    assert got.order == want.order
    assert got.items() == want.items()


@pytest.mark.parametrize("qorder", [Rat(7), Rat(10)])
def test_f_kernel_coefficients(qorder):
    factors = [t2t_factor(u, qorder) for u in UNITS]
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
    factors = [
        t2t_factor("z1", build),
        s01_factor("z2", build, W),
        s01_factor("z12", build, W),
    ]
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
    factors = [unit_pochhammer(u, Rat(1, 2), 1, order, inverse=True) for u in UNITS]
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
    factors = [calT(qorder), *(t2t_factor(u, qorder) for u in UNITS)]
    want = eta_quotient({1: 5, 2: -1}, qorder) * _tuplewise_coeff(factors, 0, 0)
    _assert_same_coeff(J_constant_term(qorder), want.truncate(qorder))


def test_a_key_off_the_key_lattice_reads_zero():
    # the keys of the f factors are integers, so no tuple sums to (1/2, 0)
    factors = [t2t_factor(u, 3) for u in UNITS]
    got = product_coeff(*factors, Rat(1, 2), 0)
    assert got.is_zero() and got.order == Rat(13, 4)
    assert not product_coeff(*factors, 0, 0).is_zero()
    # with a theta_hat along z1 the keys go over the key denominator 2, and
    # a key on that lattice but off the product's support reads zero too
    factors[0] = theta_hat("z1", 1, 3)
    full = _full(factors)
    for r1, r2 in ((0, 0), (Rat(1, 2), 0), (Rat(1, 4), 0), (Rat(-3, 2), 1)):
        _assert_same_coeff(product_coeff(*factors, r1, r2), full.coeff(r1, r2))
    assert product_coeff(*factors, 0, 0).is_zero()
    assert not product_coeff(*factors, Rat(1, 2), 0).is_zero()


@pytest.mark.parametrize("unit", UNITS)
def test_a_factor_off_its_unit_is_refused(unit):
    factors = [t2t_factor(u, 3) for u in UNITS]
    i = UNITS.index(unit)
    # one key of the factor moved off its unit direction
    stray = {**factors[i].terms, (Rat(1, 2), Rat(-1, 2)): PuiseuxSeries({0: 1}, 3)}
    factors[i] = BiLaurentSeries(stray, 3)
    with pytest.raises(ValueError, match=f"{unit} factor has the key \\(1/2, -1/2\\)"):
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
    """Three factors along z1, z2 and z1 z2, with integer and half-integer
    keys, some perhaps empty, and a key that is a sum of their keys, any
    small key, or one off the lattice."""
    factors = []
    for d1, d2 in UNIT_KEYS.values():
        qorder = draw(st.builds(Rat, st.integers(-8, 24), st.sampled_from([1, 2, 3, 4])))
        keys = draw(st.dictionaries(_halves, st.dictionaries(_exponents, _coeffs, max_size=5),
                                    max_size=4))
        factors.append(BiLaurentSeries(
            {(m * d1, m * d2): PuiseuxSeries(c, qorder) for m, c in keys.items()}, qorder
        ))
    kind = draw(st.sampled_from(["support", "any", "off"]))
    if kind == "support" and all(f.terms for f in factors):
        picked = [draw(st.sampled_from(sorted(f.terms))) for f in factors]
        return factors, (sum(k[0] for k in picked), sum(k[1] for k in picked))
    if kind == "off":
        off = st.builds(Rat, st.integers(-7, 7), st.sampled_from([3, 4, 5]))
        return factors, (draw(off), draw(st.one_of(off, _halves)))
    return factors, (draw(_halves), draw(_halves))


@given(_factors_and_key())
@settings(max_examples=300, deadline=None)
def test_random_factors_against_the_tuplewise_sum(case):
    factors, (r1, r2) = case
    _assert_same_coeff(product_coeff(*factors, r1, r2), _tuplewise_coeff(factors, r1, r2))

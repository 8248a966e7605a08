"""On-demand Fourier coefficients equal those of the full product build.

Every kernel whose coefficients the identities read through
product_coeff is also built in full with bl_mul here, and the two are
compared key by key: each coefficient's q-expansion and its truncation
order must agree exactly.
"""

import pytest

from falsetheta.rat import Rat
from falsetheta.bilaurent import (
    Region,
    RegionMismatchError,
    bl_monomial,
    bl_mul,
    product_coeff,
)
from falsetheta.thetas import (
    t2t_factor,
    s01_factor,
    f_series,
    f_coeff,
    J_series,
    J_constant_term,
    eta5_over_eta2,
)
from falsetheta.families import H_frak
from falsetheta.identities import _inverse_poch_pair

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
            _assert_same_coeff(product_coeff(factors, r1, r2), want)
            _assert_same_coeff(f_coeff(r1, r2, qorder), want)


def test_h_frak_kernel_at_half_integer_r1():
    order = Rat(6)
    build = order + Rat(1, 2)
    W = 7  # H_frak's window at this order for max(|r1|, |r2|) < 2
    factors = [
        t2t_factor("z1", build, "geometric"),
        s01_factor("z2", build, W),
        s01_factor("z12", build, W),
    ]
    full = _full(factors)
    for r1 in (Rat(1, 2), Rat(-1, 2), Rat(3, 2), Rat(-3, 2)):
        for r2 in range(-1, 2):
            want = full.coeff(r1, r2)
            _assert_same_coeff(product_coeff(factors, r1, r2), want)
            scaled = (eta5_over_eta2(build) * want).truncate(order)
            assert H_frak(r1, r2, order) == scaled


def test_sixfold_inverse_pochhammer_kernel():
    order = Rat(13, 2)
    factors = [_inverse_poch_pair(u, order) for u in UNITS]
    full = _full(factors)
    for r1 in range(-2, 3):
        for r2 in range(-2, 3):
            _assert_same_coeff(product_coeff(factors, r1, r2), full.coeff(r1, r2))


@pytest.mark.parametrize("qorder", [Rat(6), Rat(8)])
def test_J_constant_term(qorder):
    _assert_same_coeff(J_constant_term(qorder), J_series(qorder).coeff(0, 0))


def test_product_coeff_rejects_mixed_regions():
    a = bl_monomial(1, 0, 0, 3, Region.INNER)
    b = bl_monomial(1, 0, 0, 3, Region.OUTER)
    with pytest.raises(RegionMismatchError):
        product_coeff([a, b], 0, 0)

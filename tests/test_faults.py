"""Fault injection: a fault in a kernel that both sides of an identity share
must still make some identity fail.

Each fault is patched into every falsetheta module that binds the faulty
name, one at a time.  It must first change its kernel's own output on the
input its probe names, so that a fault that does nothing cannot pass.  A
kernel fault must then make at least one identity of its list, verified at
its default order, report `unequal` or raise: every registered identity,
or for `product_coeff` E9, E10, E11, E13 and E15b, whose other sides never
read it (E14's `poch` part and E15's `rescaled` part read it on both
sides).  A fault in the table of W(A2), `bilaurent._WEYL`, must be caught
by E10, E11, E15b or E19, whose other sides never read the table: E7
compares two builders that both read it, so it alone cannot see such a
fault.

A fault in `product_coeff`'s order rule, claiming one power of q more than
the rule gives, leaves every identity `equal`: each comparison stops below
the order it was asked for, and the overclaimed step lies past it.  The
deeper-build comparison of tests/test_truncation.py must catch it instead.
"""

import sys

import pytest

from falsetheta import bilaurent, families, series
from falsetheta.identities import registered_ids, verify_identity
from falsetheta.rat import Rat, rat, rat_ceil
from falsetheta.thetas import t2t_factor


def _drop_last_product(mul_add):
    """_mul_add that drops one product x[i] y[j] landing on dst's last place."""
    def faulty(dst, s, x, y):
        mul_add(dst, s, x, y)
        i = min(len(x) - 1, len(dst) - 1 - s)
        j = len(dst) - 1 - s - i
        if i >= 0 and 0 <= j < len(y):
            dst[-1] -= x[i] * y[j]
    return faulty


def _divide_skipping_the_last_entry(divide):
    def faulty(row, k, sign=1):
        for i in range(k, len(row) - 1):
            row[i] += sign * row[i - k]
    return faulty


def _drop_the_point_2_1(lattice_sum):
    def faulty(form, linear, const, order, weight, lower=(None, None)):
        def dropped(n1, n2):
            return 0 if (n1, n2) == (2, 1) else weight(n1, n2)
        return lattice_sum(form, linear, const, order, dropped, lower)
    return faulty


def _drop_the_last_index(quadratic_range):
    return lambda *args, **kwargs: quadratic_range(*args, **kwargs)[:-1]


def _skip_the_last_factor(binomial_table):
    def faulty(factors, order, start=None):
        return binomial_table(list(factors)[:-1], order, start)
    return faulty


def _add_one_at_the_last_place(A_table):
    """_A_table that adds 1 at the last integer exponent below the order."""
    def faulty(m, order, quad=0):
        a = A_table(m, order, quad)
        return a + series.monomial(1, rat_ceil(order) - 1, a.order)
    return faulty


def _drop_key_0_of_the_third_factor(product_coeff):
    def faulty(a, b, c, r1, r2):
        rows = {k: row for k, row in c.rows.items() if k != (0, 0)}
        c = bilaurent._from_rows(c.kd, rows, c.qorder, c.window)
        return product_coeff(a, b, c, r1, r2)
    return faulty


def _swap_z2_and_z12(bl_on_unit):
    swap = {"z2": "z12", "z12": "z2"}
    return lambda a, unit: bl_on_unit(a, swap.get(unit, unit))


def _flip_a_sign(weyl):
    sign, w = weyl[1]
    return (weyl[0], (-sign, w), *weyl[2:])


def _duplicate_a_matrix(weyl):
    return (*weyl[:5], (weyl[5][0], weyl[4][1]))


def _transpose_a_matrix(weyl):
    sign, ((a, b), (c, d)) = weyl[1]
    return (weyl[0], (sign, ((a, c), (b, d))), *weyl[2:])


def _drop_the_last_factor(eta_product):
    """eta_product without the last factor (1 - q^j)^p of its list; a
    fault in place of the kernel, so it does not call the original."""
    def faulty(powers, order):
        top = rat_ceil(rat(order))
        factors = [(1, 0, j, p) for k, p in powers.items() for j in range(k, top, k)]
        return series._binomial_series(factors[:-1], order)
    return faulty


def _add_one_at_the_end_of_a_long_row(spread):
    """_spread that adds 1 to the last entry of a row longer than 3, in a
    copy: with k = 1 and f = 1 the kernel returns its argument itself."""
    def faulty(row, k, f=1):
        out = list(spread(row, k, f))
        if len(out) > 3:
            out[-1] += 1
        return out
    return faulty


def _claim_one_more_q_step(product_coeff):
    """product_coeff whose order rule gives one power of q more than it
    should: it reads each factor as exact one q-step past its order."""
    def further(f):
        rows = bilaurent._map_rows(
            f.rows, lambda c: series.PuiseuxSeries(dict(c.items()), c.order + 1))
        return bilaurent._from_rows(f.kd, rows, f.qorder + 1, f.window)

    def faulty(a, b, c, r1, r2):
        return product_coeff(*map(further, (a, b, c)), r1, r2)
    return faulty


def _mul_add_probe():
    dst = [0] * 3
    series._mul_add(dst, 0, [1, 1], [1, 1])
    return dst


def _divide_probe():
    row = [1, 0, 0, 0]
    series._divide(row, 1)
    return row


def _lattice_sum_probe():
    return series.lattice_sum((1, 0, 1), (0, 0), 0, 10, lambda n1, n2: 1)


def _quadratic_range_probe():
    return series.quadratic_range(1, 0, 0, 10)


def _binomial_table_probe():
    return series._binomial_table([(1, 0, 1, 1), (1, 0, 2, 1)], 4)


def _eta_product_probe():
    return series.eta_product({1: 1, 2: 1}, 6)


def _spread_probe():
    return series._spread([1, 2, 3, 4], 1)


def _A_table_probe():
    return families._A_table(0, 3)


def _product_coeff_probe():
    one = bilaurent.bl_monomial(1, 0, 0, 2)
    return bilaurent.product_coeff(one, one, one, 0, 0)


def _bl_on_unit_probe():
    return bilaurent.bl_on_unit(bilaurent.bl_monomial(1, 1, 0, 2), "z2")


def _orbit_offsets_probe():
    return families._orbit_offsets(3, 1, 0, 0)


# each fault: (home module, name, fault, probe, the identities that must
# catch it, None for every registered one)
KERNEL_FAULTS = {
    "_mul_add drops one product at the last place":
        (series, "_mul_add", _drop_last_product, _mul_add_probe, None),
    "_divide skips the last entry":
        (series, "_divide", _divide_skipping_the_last_entry, _divide_probe, None),
    "lattice_sum drops the point (2, 1)":
        (series, "lattice_sum", _drop_the_point_2_1, _lattice_sum_probe, None),
    "quadratic_range drops its last index":
        (series, "quadratic_range", _drop_the_last_index, _quadratic_range_probe, None),
    "_binomial_table skips its last factor":
        (series, "_binomial_table", _skip_the_last_factor, _binomial_table_probe, None),
    "_A_table adds 1 at its last integer place":
        (families, "_A_table", _add_one_at_the_last_place, _A_table_probe, None),
    "product_coeff drops key 0 of its third factor":
        (bilaurent, "product_coeff", _drop_key_0_of_the_third_factor, _product_coeff_probe,
         ["E9", "E10", "E11", "E13", "E15b"]),
    "bl_on_unit swaps z2 and z12":
        (bilaurent, "bl_on_unit", _swap_z2_and_z12, _bl_on_unit_probe, None),
    "eta_product drops its last factor":
        (series, "eta_product", _drop_the_last_factor, _eta_product_probe, None),
    "_spread adds 1 at the end of a long row":
        (series, "_spread", _add_one_at_the_end_of_a_long_row, _spread_probe, None),
}

TABLE_FAULTS = {
    "a flipped sign": _flip_a_sign,
    "a duplicated matrix": _duplicate_a_matrix,
    "a transposed matrix": _transpose_a_matrix,
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    """No factor built before a fault, or under one, outlives its test."""
    t2t_factor.cache_clear()
    yield
    t2t_factor.cache_clear()


def _patch_everywhere(monkeypatch, home, name, fault):
    """Bind fault(original) to name in every falsetheta module that binds
    the original of home.name; the modules patched."""
    original = getattr(home, name)
    modules = [m for n, m in list(sys.modules.items())
               if n.split(".")[0] == "falsetheta" and getattr(m, name, None) is original]
    for m in modules:
        monkeypatch.setattr(m, name, fault(original))
    return modules


def _first_failing(ids):
    """The first identity of ids that reports unequal at its default order or
    raises, or None."""
    for ident in ids:
        try:
            if verify_identity(ident).verdict != "equal":
                return ident
        except Exception:  # a fault may leave a side that cannot be built
            return ident
    return None


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_a_kernel_fault_makes_some_identity_fail(monkeypatch, fault):
    home, name, make, probe, ids = KERNEL_FAULTS[fault]
    before = probe()
    modules = _patch_everywhere(monkeypatch, home, name, make)
    assert home in modules and len(modules) > 1
    assert probe() != before
    assert _first_failing(ids or registered_ids()) is not None


@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_a_weyl_table_fault_is_caught_by_a_side_that_does_not_read_it(monkeypatch, fault):
    before = _orbit_offsets_probe()
    modules = _patch_everywhere(monkeypatch, bilaurent, "_WEYL", TABLE_FAULTS[fault])
    assert {bilaurent, families} <= set(modules) and len(modules) == 3
    assert _orbit_offsets_probe() != before
    assert _first_failing(["E10", "E11", "E15b", "E19"]) is not None


@pytest.mark.parametrize("order,at", [(3, Rat(7, 2)), (9, Rat(19, 2))])
def test_an_overclaimed_product_order_is_caught_by_a_deeper_build(monkeypatch, order, at):
    before = _product_coeff_probe()
    _patch_everywhere(monkeypatch, bilaurent, "product_coeff", _claim_one_more_q_step)
    assert _product_coeff_probe().order == before.order + 1
    # test_truncation's comparison of G_hyper((1, -1), order) with its
    # deeper builds, at each of that file's DELTAS
    shallow = families.G_hyper((1, -1), order)
    for delta in (Rat(1, 2), Rat(1), Rat(3)):
        d = shallow - families.G_hyper((1, -1), order + delta)
        assert not d.is_zero() and d.valuation() == at, delta

"""Fault injection: a fault in a kernel that both sides of an identity share
must still make some identity fail.

Each fault is patched into every falsetheta module that binds the faulty
name, one at a time.  It must first change its kernel's own output on the
input its probe names, so that a fault that does nothing cannot pass.  A
kernel fault must then make at least one registered identity, verified at
its default order, report `unequal` or raise.  A fault in the table of
W(A2), `bilaurent._WEYL`, must be caught by E10, E11, E15b or E19, whose
other sides never read the table: E7 compares two builders that both read
it, so it alone cannot see such a fault.
"""

import sys

import pytest

from falsetheta import bilaurent, families, series
from falsetheta.identities import registered_ids, verify_identity
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


def _flip_a_sign(weyl):
    sign, w = weyl[1]
    return (weyl[0], (-sign, w), *weyl[2:])


def _duplicate_a_matrix(weyl):
    return (*weyl[:5], (weyl[5][0], weyl[4][1]))


def _transpose_a_matrix(weyl):
    sign, ((a, b), (c, d)) = weyl[1]
    return (weyl[0], (sign, ((a, c), (b, d))), *weyl[2:])


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


def _orbit_offsets_probe():
    return families._orbit_offsets(3, 1, 0, 0)


KERNEL_FAULTS = {
    "_mul_add drops one product at the last place":
        ("_mul_add", _drop_last_product, _mul_add_probe),
    "_divide skips the last entry":
        ("_divide", _divide_skipping_the_last_entry, _divide_probe),
    "lattice_sum drops the point (2, 1)":
        ("lattice_sum", _drop_the_point_2_1, _lattice_sum_probe),
    "quadratic_range drops its last index":
        ("quadratic_range", _drop_the_last_index, _quadratic_range_probe),
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
    name, make, probe = KERNEL_FAULTS[fault]
    before = probe()
    modules = _patch_everywhere(monkeypatch, series, name, make)
    assert series in modules and len(modules) > 1
    assert probe() != before
    assert _first_failing(registered_ids()) is not None


@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_a_weyl_table_fault_is_caught_by_a_side_that_does_not_read_it(monkeypatch, fault):
    before = _orbit_offsets_probe()
    modules = _patch_everywhere(monkeypatch, bilaurent, "_WEYL", TABLE_FAULTS[fault])
    assert {bilaurent, families} <= set(modules) and len(modules) == 3
    assert _orbit_offsets_probe() != before
    assert _first_failing(["E10", "E11", "E15b", "E19"]) is not None

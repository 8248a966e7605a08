"""Golden outputs: every entry of outputs.json, recomputed.

capture_outputs.py wrote the file; see there for what each entry pins.
Each group's test fails at the first of its entries that differs.
"""

import json

import pytest

from capture_outputs import CAPTURE_ORDERS, EXPAND_ARGS, GROUPS, PATH, sides
from falsetheta.cli import build_parser
from falsetheta.identities import registered_ids

STORED = json.loads(PATH.read_text())


@pytest.mark.parametrize("group", list(GROUPS))
def test_outputs_match_the_stored_ones(group):
    stored = {name: v for name, v in STORED.items() if name.split()[0] == group}
    got = {}
    for name, value in GROUPS[group]():
        assert value == stored.get(name), f"{name}: got {value}, stored {stored.get(name)}"
        got[name] = value
    assert list(got) == list(stored)


def test_sides_built_from_their_grid_s_shared_kernels_match_the_stored_ones():
    # the "sides" group builds each point alone
    got = dict(sides(prepared=True))
    for name, value in got.items():
        assert value == STORED[name], name
    assert list(got) == [name for name in STORED if name.startswith("sides ")]


def test_every_entry_belongs_to_a_group():
    assert {name.split()[0] for name in STORED} == set(GROUPS)


def test_every_identity_has_a_capture_order():
    assert sorted(CAPTURE_ORDERS) == registered_ids()


def test_every_series_name_is_expanded():
    expand = build_parser()._subparsers._group_actions[0].choices["expand"]
    names = next(a.choices for a in expand._actions if a.dest == "name")
    assert sorted(EXPAND_ARGS) == sorted(names)

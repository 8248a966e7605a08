"""Command-line interface: exit codes, output formats, argument parsing."""

import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from falsetheta import thetas
from falsetheta.bilaurent import BiLaurentSeries, bl_to_json, _from_rows
from falsetheta.cli import main, build_parser, _print_series, USAGE_ERROR, DISCREPANCY
from falsetheta.rat import Rat, rat_str
from falsetheta.series import PuiseuxSeries, series_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_rogers_text(self, capsys):
        code, out, _ = run(capsys, "expand", "rogers", "--order", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q^(0/1)\t1/1"
        assert lines[1] == "q^(1/1)\t-1/1"
        assert lines[-1] == "+ O(q^(10/1))"

    def test_lattice_family_json_leading_exponent(self, capsys):
        code, out, _ = run(
            capsys, "expand", "Gfrak", "--p", "2", "--order", "6", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"][0]["exp"] == "1/2"

    def test_two_variable_kernel_json(self, capsys):
        code, out, _ = run(
            capsys, "expand", "f", "--order", "4", "--window", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["region"] == "INNER"
        num, den = data["qorder"].split("/")
        assert int(num) / int(den) >= 4

    def test_rational_order(self, capsys):
        code, out, _ = run(capsys, "expand", "eta", "--order", "5/2")
        assert code == 0
        assert "O(q^(5/2))" in out

    @pytest.mark.parametrize(
        "name,r",
        [("Ghyper", "1,-1"), ("coeffF", "1,-1"), ("rankone", "1,0")],
        ids=["Ghyper", "coeffF", "rankone"],
    )
    def test_integer_index_families_take_an_integral_r(self, capsys, name, r):
        code, out, _ = run(
            capsys, "expand", name, "--r", r, "--order", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["order"] == "4/1"

    @pytest.mark.parametrize("name", ["Ghyper", "coeffF", "rankone"])
    def test_integer_index_families_reject_a_fractional_r(self, capsys, name):
        code, out, err = run(capsys, "expand", name, "--r", "1/2,0", "--order", "4")
        assert code == USAGE_ERROR
        assert out == "" and "--r must be a pair of integers" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("f", "--order", "-3"),
            ("eta", "--order", "0"),
            ("rogers", "--order=-1/2"),
            ("theta", "--window", "-1"),
        ],
    )
    def test_non_positive_order_or_negative_window_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "expand", *argv)
        assert code == USAGE_ERROR
        assert out == "" and err.startswith("error: --")

    def test_theta_below_its_leading_power_keeps_the_order_asked(self, capsys):
        code, out, _ = run(capsys, "expand", "theta", "--order", "1/16")
        assert code == 0
        assert out == "region=INNER + O(q^(1/16))\n"

    def test_window_clips_what_is_printed(self, capsys):
        code, out, _ = run(
            capsys, "expand", "theta", "--order", "9", "--window", "1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["window"] == 1
        assert sorted(t["e1"] for t in data["terms"]) == ["-1/2", "1/2"]

    @pytest.mark.parametrize(
        "argv", [("Hfrak", "--r", "1/0,1"), ("Gfrak", "--lambda", "1/0,0")]
    )
    def test_zero_denominator_in_a_rational_pair_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["expand", *argv])
        assert exc.value.code == USAGE_ERROR
        assert "cannot parse rational '1/0'" in capsys.readouterr().err

    def test_a_row_too_long_to_lay_out_is_usage_error(self, capsys):
        # G_frak at this lambda would lay out one row of 999,986,666,632 entries
        t0 = time.monotonic()
        code, out, err = run(capsys, "expand", "Gfrak", "--lambda", "1/1000003,1/999983",
                             "--order", "4")
        assert time.monotonic() - t0 < 1
        assert code == USAGE_ERROR
        assert out == "" and "999986666632 entries" in err

    def test_rankone_with_a_nonzero_second_index_is_usage_error(self, capsys):
        code, out, err = run(capsys, "expand", "rankone", "--r", "2,5", "--order", "4")
        assert code == USAGE_ERROR
        assert out == "" and "rankone takes one index" in err

    @pytest.mark.parametrize("name", ["coeffF", "F0", "Fconst", "rankone"])
    def test_p_below_two_is_usage_error(self, capsys, name):
        code, out, err = run(capsys, "expand", name, "--p", "1", "--order", "4")
        assert code == USAGE_ERROR
        assert out == "" and "p must be an integer >= 2" in err

    def test_bad_family_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "Gfrak", "--p", "1", "--order", "4")
        assert code == USAGE_ERROR
        assert "error" in err


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "E5", "--order", "8")
        assert code == 0
        assert out.startswith("E5\tequal")

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "E99")
        assert code == USAGE_ERROR
        assert "unknown identity" in err

    @pytest.mark.parametrize("ident, order", [("E7", "-2"), ("E19", "0"), ("all", "-1")])
    def test_non_positive_order_is_usage_error(self, capsys, ident, order):
        code, out, err = run(capsys, "verify", ident, "--order", order)
        assert code == USAGE_ERROR
        assert out == "" and "--order must be positive" in err

    def test_an_order_that_compares_nothing_is_usage_error(self, capsys):
        # theta_hat starts at q^(1/8), so both sides are zero below q^(1/16)
        code, out, err = run(capsys, "verify", "E1", "--order", "1/16")
        assert code == USAGE_ERROR
        assert out == "" and "compares no coefficient" in err

    def test_all_at_one_order(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--order", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 23 and all(line.split("\t")[1] == "equal" for line in lines)

    def test_all_at_an_order_where_one_compares_nothing_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--order", "1/2")
        assert code == USAGE_ERROR
        assert out == "" and "compares no coefficient" in err

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "E19", "--order", "6", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["id"] == "E19" and rep["verdict"] == "equal"


class TestCheck:
    def test_modular_law_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "T_MOD", "--gamma", "1,0,6,1",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i,0.11+0.4i",
        )
        assert code == 0
        assert out.startswith("T_MOD\tequal")

    def test_theta_law_at_minus_a_translation(self, capsys):
        code, out, _ = run(
            capsys, "check", "THETA_MOD", "--gamma=-1,-1,0,-1",
            "--tau", "0.1+1.2i", "--z", "0.21+0.13i",
        )
        assert code == 0
        assert out.startswith("THETA_MOD\tequal")

    def test_membership_violation_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check", "F_MOD", "--gamma", "1,1,1,2",
            "--tau", "1.2i", "--z", "0.2,0.3",
        )
        assert code == USAGE_ERROR
        assert "error" in err

    def test_missing_element_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check", "F_MOD", "--tau", "1.2i", "--z", "0.2,0.3"
        )
        assert code == USAGE_ERROR

    def test_elliptic_law_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "F_ELL", "--m", "2,0",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i,0.11+0.4i",
            "--format", "json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "equal"
        assert rep["residual"] < 1e-8

    def test_theta_shift(self, capsys):
        code, out, _ = run(
            capsys, "check", "THETA_ELL", "--m", "1", "--l", "1",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i",
        )
        assert code == 0

    def test_theta_shift_with_a_second_component_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "THETA_ELL", "--m", "1,5", "--l", "0,7",
            "--tau", "0.1+1.2i", "--z", "0.2+0.1i",
        )
        assert code == USAGE_ERROR
        assert out == "" and "integers" in err

    def test_theta_law_with_a_z_pair_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "THETA_MOD", "--gamma", "0,-1,1,0",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i,0.11+0.4i",
        )
        assert code == USAGE_ERROR
        assert out == "" and "not a pair" in err

    def test_two_variable_law_with_one_z_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "F_ELL", "--m", "2,0",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i",
        )
        assert code == USAGE_ERROR
        assert out == "" and "pair" in err

    @pytest.mark.parametrize(
        "argv",
        [("THETA_MOD", "--gamma", "1,1,0,1", "--m", "3"),
         ("THETA_MOD", "--gamma", "1,1,0,1", "--l", "1"),
         ("THETA_ELL", "--m", "1", "--gamma", "0,-1,1,0")],
    )
    def test_an_element_of_the_other_kind_of_law_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv, "--tau", "0.1+1i", "--z", "0.1")
        assert code == USAGE_ERROR
        assert out == "" and "not --" in err

    @pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
    def test_a_tolerance_that_decides_nothing_is_usage_error(self, capsys, tolerance):
        code, out, err = run(
            capsys, "check", "THETA_MOD", "--gamma", "1,1,0,1",
            "--tau", "0.1+1i", "--z", "0.1", f"--tolerance={tolerance}",
        )
        assert code == USAGE_ERROR
        assert out == "" and "finite and positive" in err

    @pytest.mark.parametrize("argv,message", [
        (("THETA_ELL", "--m", "1", "--l", "0", "--tau", "0.1+1.2i", "--z", "nan"),
         "z must be finite"),
        (("THETA_ELL", "--m", "1", "--l", "0", "--tau", "0.1+1.2i", "--z", "1e309"),
         "z must be finite"),
        (("F_ELL", "--m", "2,0", "--l", "0,0", "--tau", "0.1+1.2i", "--z", "nan+0.1i,0.1"),
         "z1 must be finite"),
        (("THETA_ELL", "--m", "1", "--l", "0", "--tau", "1e309+1i", "--z", "0.1"),
         "tau must be finite"),
        (("J_MOD", "--gamma", "1,0,6,1", "--tau", "0.1+1.2i", "--z", "0.2+1e300i,0.1"),
         "not a finite double"),
        (("THETA_ELL", "--m", "1", "--l", "0", "--tau", "0.1+1.2i", "--z", "0.2+1e8i"),
         "not a finite double"),
        (("THETA_ELL", "--m", "1", "--l", "0", "--tau", "0.1+1e-20i", "--z", "0.1"),
         "more than the 1000000 allowed"),
    ])
    def test_a_non_finite_or_overflowing_point_is_usage_error(self, capsys, argv, message):
        # unrefused, each gives a verdict, a traceback or a sum over about
        # 10^300 terms (10^11 at Im tau = 1e-20)
        t0 = time.monotonic()
        code, out, err = run(capsys, "check", *argv)
        assert time.monotonic() - t0 < 1.0
        assert code == USAGE_ERROR
        assert out == "" and message in err

    def test_tolerance_can_force_discrepancy(self, capsys):
        code, out, _ = run(
            capsys, "check", "THETA_MOD", "--gamma", "0,-1,1,0",
            "--tau", "0.1+1.2i", "--z", "0.21+0.3i",
            "--tolerance", "1e-30",
        )
        assert code == DISCREPANCY
        assert "unequal" in out


class TestSuite:
    def test_pattern_skip_numeric(self, capsys):
        code, out, _ = run(
            capsys, "suite", "--pattern", "E19|E20", "--skip-numeric"
        )
        assert code == 0
        ids = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert ids == ["E19", "E20"]

    def test_numeric_block_emits_one_line_per_law(self, capsys):
        code, out, _ = run(capsys, "suite", "--pattern", "E19")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("E19")
        assert len(lines) == 1 + 8  # one identity plus the eight laws

    @pytest.mark.parametrize(
        "argv",
        [("verify", "all", "--jobs", "0"),
         ("verify", "E5", "--order", "4", "--jobs", "0"),
         ("verify", "E5", "--order", "4", "--jobs", "-3"),
         ("suite", "--jobs", "-1", "--pattern", "E19", "--skip-numeric")],
    )
    def test_jobs_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == USAGE_ERROR
        assert out == "" and "jobs must be at least 1" in err

    @pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
    def test_a_tolerance_that_decides_nothing_is_usage_error(self, capsys, tolerance):
        # refused before any identity report is printed
        code, out, err = run(capsys, "suite", "--pattern", "E19", f"--tolerance={tolerance}")
        assert code == USAGE_ERROR
        assert out == "" and "finite and positive" in err

    @pytest.mark.parametrize("extra", [(), ("--skip-numeric",)])
    def test_a_pattern_that_matches_nothing_is_usage_error(self, capsys, extra):
        code, out, err = run(capsys, "suite", "--pattern", "NOPE", *extra)
        assert code == USAGE_ERROR
        assert out == "" and "no identity matches" in err


class TestOptionNames:
    @pytest.mark.parametrize("argv", [
        ("expand", "F0", "--order", "3", "--form", "json"),
        ("verify", "E5", "--ord", "4"),
    ], ids=["form-for-format", "ord-for-order"])
    def test_an_option_prefix_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == USAGE_ERROR
        assert captured.out == "" and "unrecognized arguments" in captured.err


class TestSharedParser:
    def test_a_call_leaks_nothing_into_the_next(self, capsys):
        first = ("expand", "theta", "--order", "9", "--format", "json")
        code, out, _ = run(capsys, *first)
        with pytest.raises(SystemExit) as exc:
            main(["expand", "theta", "--order", "9", "--window"])
        assert exc.value.code == USAGE_ERROR
        assert "expected one argument" in capsys.readouterr().err
        code3, out3, _ = run(capsys, "expand", "theta", "--order", "9", "--window", "1")
        assert code3 == 0 and out3 != out
        code4, out4, _ = run(capsys, *first)
        assert code == code4 == 0 and out4 == out

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


# -- the output path against the encoders it replaces -------------------------


def _former_text(s):
    """_print_series's text as it was written from Rat terms and items()."""
    if isinstance(s, PuiseuxSeries):
        lines = [f"q^({rat_str(e)})\t{rat_str(c)}\n" for e, c in s.items()]
        return "".join(lines) + f"+ O(q^({rat_str(s.order)}))\n"
    lines = [f"zeta1^({rat_str(e1)}) zeta2^({rat_str(e2)}): {c!r}\n"
             for (e1, e2), c in s.terms.items()]
    return "".join(lines) + f"region=INNER + O(q^({rat_str(s.qorder)}))\n"


def _printed(s, fmt):
    out = io.StringIO()
    _print_series(s, fmt, out)
    return out.getvalue()


_keys = st.tuples(*[st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 2, 3]))] * 2)


@st.composite
def _rows(draw, qorder):
    terms = draw(st.dictionaries(
        st.builds(Rat, st.integers(-12, 30), st.sampled_from([1, 2, 3, 8])),
        st.builds(Rat, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7])),
        max_size=4,
    ))
    return PuiseuxSeries(terms, qorder)


@st.composite
def _shared_row_series(draw):
    """A two-variable series whose keys take their rows from a few objects,
    so that keys share rows; a zero row drops its keys, and a window of
    None, an int or a Rat clips them."""
    qorder = draw(st.builds(Rat, st.integers(1, 24), st.sampled_from([1, 2, 4])))
    rows = draw(st.lists(_rows(qorder), min_size=1, max_size=4))
    keys = draw(st.dictionaries(_keys, st.integers(0, len(rows) - 1), max_size=12))
    window = draw(st.none() | st.integers(0, 3)
                  | st.builds(Rat, st.integers(1, 9), st.sampled_from([2, 3])))
    return BiLaurentSeries({k: rows[i] for k, i in keys.items()}, qorder, window)


class TestOutputPath:
    @given(_shared_row_series())
    @settings(max_examples=200, deadline=None)
    def test_two_variable_json_and_text(self, s):
        assert _printed(s, "json") == json.dumps(bl_to_json(s), indent=2) + "\n"
        assert _printed(s, "text") == _former_text(s)

    @given(_rows(Rat(31, 2)))
    @settings(max_examples=100, deadline=None)
    def test_one_variable_json_and_text(self, s):
        assert _printed(s, "json") == json.dumps(series_to_json(s), indent=2) + "\n"
        assert _printed(s, "text") == _former_text(s)

    @given(_shared_row_series())
    @settings(max_examples=100, deadline=None)
    def test_shared_rows_write_what_distinct_rows_write(self, s):
        copy = _from_rows(s.kd, {k: PuiseuxSeries(c.terms, c.order) for k, c in s.rows.items()},
                          s.qorder, s.window)
        assert len({id(c) for c in copy.rows.values()}) == len(copy.rows)
        d = bl_to_json(s)
        assert d == bl_to_json(copy)
        # keys that share a row share its "series" dict
        seen = {}
        for t, (_, c) in zip(d["terms"], sorted(s.rows.items())):
            assert seen.setdefault(id(c), t["series"]) is t["series"]
        assert len({id(t["series"]) for t in d["terms"]}) == len(seen)

    @pytest.mark.parametrize("name, build, order", [
        ("f", thetas.f_series, "5"), ("J", thetas.J_series, "4"),
        ("kwN3", thetas.kw_character_N3, "4"),
    ])
    def test_cli_json_of_the_orbit_builders(self, capsys, name, build, order):
        s = build(Rat(order)).clip(6)
        assert len({id(c) for c in s.rows.values()}) < len(s.rows)  # rows are shared
        code, out, _ = run(capsys, "expand", name, "--order", order, "--format", "json")
        assert code == 0
        assert out == json.dumps(bl_to_json(s), indent=2) + "\n"

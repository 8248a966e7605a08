"""Command-line interface: exit codes, output formats, argument parsing."""

import json

import pytest

from falsetheta.cli import main, USAGE_ERROR, DISCREPANCY


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

    @pytest.mark.parametrize("name", ["Ghyper", "coeffF", "rankone"])
    def test_integer_index_families_take_an_integral_r(self, capsys, name):
        code, out, _ = run(
            capsys, "expand", name, "--r", "1,-1", "--order", "4", "--format", "json"
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

    @pytest.mark.parametrize("extra", [(), ("--skip-numeric",)])
    def test_a_pattern_that_matches_nothing_is_usage_error(self, capsys, extra):
        code, out, err = run(capsys, "suite", "--pattern", "NOPE", *extra)
        assert code == USAGE_ERROR
        assert out == "" and "no identity matches" in err

"""CLI behavior: output formats, determinism, round trips, exit codes."""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import casimir_eigen
from casimir_eigen import casimir, cli
from casimir_eigen.cli import emit_polynomial_json, main, mpoly_to_obj
from casimir_eigen.ratpoly import ClosedForm, MPoly, alpha
from polyjson import mpoly_from_obj, parse_polynomial_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestElementary:
    def test_worked_tuple(self, capsys):
        code, out = run_cli(capsys, "elementary", "--tuple", "1,9,2,5,5,9,6,8,4,5", "--raw")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eigenvalue: a1*a5 - a2*a5 - a1 + a2"
        body = [line.split() for line in lines[3:]]
        assert len(body) == 4
        assert [row[2] for row in body] == ["yes", "no", "yes", "no"]
        proper_minima = [(row[3], row[4]) for row in body if row[2] == "yes"]
        assert proper_minima == [("1", "2"), ("5", "inf")]

    def test_json_payload(self, capsys):
        code, out = run_cli(capsys, "elementary", "--tuple", "1,2", "--raw", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["tuple"] == [1, 2]
        assert mpoly_from_obj(obj["eigenvalue"]) == -alpha(1, 2) + alpha(2, 2)
        assert obj["cycles"][0]["v2"] == 2

    def test_inf_marker_in_json(self, capsys):
        _, out = run_cli(capsys, "elementary", "--tuple", "1,1", "--raw", "--json")
        obj = json.loads(out)
        assert [c["v2"] for c in obj["cycles"]] == [None, None]

    def test_latex_names(self, capsys):
        _, out = run_cli(capsys, "elementary", "--tuple", "1,2", "--raw", "--latex")
        assert out.splitlines()[0] == "eigenvalue: -\\alpha_{1} + \\alpha_{2}"

    def test_bad_tuple_exits_2(self, capsys):
        code, _ = run_cli(capsys, "elementary", "--tuple", "1,x")
        assert code == 2

    def test_rank_too_small_exits_2(self, capsys):
        code, _ = run_cli(capsys, "elementary", "--tuple", "1,5", "--n", "3")
        assert code == 2


class TestCasimir:
    def test_monomial_json_matches_schema(self, capsys):
        _, out = run_cli(capsys, "casimir", "--m", "2", "--n", "2", "--json")
        payload = json.loads(out)["eigenvalue"]
        assert payload == {
            "nvars": 2,
            "terms": [
                {"c": "1/1", "e": [2, 0]},
                {"c": "1/1", "e": [0, 2]},
                {"c": "-1/2", "e": [0, 0]},
            ],
        }

    def test_power_sum_basis(self, capsys):
        _, out = run_cli(capsys, "casimir", "--m", "2", "--n", "3", "--basis", "power-sum")
        assert out.strip() == "eigenvalue: p2 - 2"

    def test_outside_range_note(self, capsys):
        _, out = run_cli(capsys, "casimir", "--m", "3", "--n", "2", "--basis", "power-sum")
        assert "outside the standard range" in out
        _, out = run_cli(capsys, "casimir", "--m", "3", "--n", "3", "--basis", "power-sum")
        assert "note" not in out

    def test_power_sum_unique_below_order_text(self, capsys):
        # below the order the form is the one in p2..pn, so it needs no label
        code, out = run_cli(capsys, "casimir", "--m", "4", "--n", "2", "--basis", "power-sum")
        assert code == 0
        assert out == (
            "eigenvalue: 1/2*p2^2 + 1/2*p2 - 3/8\n"
            "note: m > n lies outside the standard range 1 <= m <= n\n"
        )

    def test_power_sum_unique_below_order_json(self, capsys):
        _, out = run_cli(capsys, "casimir", "--m", "4", "--n", "2", "--basis", "power-sum", "--json")
        assert json.loads(out) == {
            "m": 4,
            "n": 2,
            "shifted": True,
            "basis": "power-sum",
            "eigenvalue": {
                "partitions": [
                    {"parts": [2, 2], "coeff_n": ["1/2"]},
                    {"parts": [2], "coeff_n": ["1/2"]},
                    {"parts": [], "coeff_n": ["-3/8"]},
                ]
            },
            "note": "m > n lies outside the standard range 1 <= m <= n",
        }

    def test_power_sum_far_below_order(self, capsys):
        # the columns are built at rank 1, so order 10 stays as quick as the patterned sum
        code, out = run_cli(capsys, "casimir", "--m", "10", "--n", "2", "--basis", "power-sum")
        assert code == 0
        assert out.splitlines()[0] == (
            "eigenvalue: 1/16*p2^5 + 35/32*p2^4 + 45/32*p2^3 - 21/64*p2^2 - 75/256*p2 - 9/512"
        )

    @pytest.mark.parametrize("m", [60, 300])
    def test_power_sum_at_rank_one(self, capsys, m):
        # at n = 1 the hyperplane is the point a1 = 0: the columns have no part above 1 and the
        # elimination packs no exponent, so the answer is 0 at orders above 255 too
        note = "m > n lies outside the standard range 1 <= m <= n"
        argv = ["casimir", "--m", str(m), "--n", "1", "--basis", "power-sum"]
        assert run_cli(capsys, *argv) == (0, f"eigenvalue: 0\nnote: {note}\n")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out) == {
            "m": m,
            "n": 1,
            "shifted": True,
            "basis": "power-sum",
            "eigenvalue": {"partitions": []},
            "note": note,
        }

    def test_raw_power_sum_has_no_form_exits_2(self, capsys):
        # the unshifted sum is not symmetric modulo p1, so it has no power-sum form
        code = main(["casimir", "--m", "3", "--n", "3", "--raw", "--basis", "power-sum"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: polynomial is not symmetric modulo p1 = 0\n")

    def test_canonical_outputs_carry_no_label(self, capsys):
        # monomials and power sums p2..pn are both unique, at every rank
        for n in ("4", "2"):
            _, out = run_cli(capsys, "casimir", "--m", "4", "--n", n, "--basis", "power-sum", "--json")
            assert "canonical" not in json.loads(out)
            _, out = run_cli(capsys, "casimir", "--m", "4", "--n", n, "--json")
            assert "canonical" not in json.loads(out)
            _, out = run_cli(capsys, "casimir", "--m", "4", "--n", n, "--basis", "power-sum")
            assert "not unique" not in out
        # a zero eigenvalue below the order carries no label either
        _, out = run_cli(capsys, "casimir", "--m", "2", "--n", "1", "--basis", "power-sum", "--json")
        obj = json.loads(out)
        assert obj["eigenvalue"] == {"partitions": []} and "canonical" not in obj


class TestClosedForm:
    def test_m2_text(self, capsys):
        code, out = run_cli(capsys, "closed-form", "--m", "2")
        assert code == 0
        assert out.strip() == "p2 - (n^3 - n)/12"

    def test_m2_json(self, capsys):
        _, out = run_cli(capsys, "closed-form", "--m", "2", "--json")
        assert out.strip() == (
            '{"partitions":[{"parts":[2],"coeff_n":["1/1"]},'
            '{"parts":[],"coeff_n":["0/1","1/12","0/1","-1/12"]}]}'
        )


class TestVerify:
    def test_exhaustive_ok(self, capsys):
        code, out = run_cli(capsys, "verify", "--m", "3", "--n", "3", "--exhaustive")
        assert code == 0
        assert "consistent convention: alternating" in out

    def test_json_schema(self, capsys):
        _, out = run_cli(capsys, "verify", "--m", "2", "--n", "3", "--exhaustive", "--json")
        obj = json.loads(out)
        assert set(obj) == {"total", "zero", "match_literal", "match_alternating", "mismatch"}
        assert obj["total"] == 9
        assert obj["mismatch"] == []

    def test_mismatch_is_printed_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(casimir, "elementary_eigenvalue", lambda t, shifted, sign, order=None: MPoly(t.n))
        code, out = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--exhaustive")
        assert code == 1
        assert "consistent convention: NONE" in out
        assert "MISMATCH under the alternating convention: [(1, 1), (1, 2), (2, 2)]" in out

    def test_json_lists_the_tuples_behind_exit_1(self, capsys, monkeypatch):
        # A negated fast path at odd m is the literal convention: every nonzero
        # tuple fails the alternating one, so the JSON must list each of them.
        elementary = casimir.elementary_eigenvalue
        monkeypatch.setattr(
            casimir, "elementary_eigenvalue", lambda t, shifted, sign, order=None: -elementary(t, shifted, sign, order)
        )
        code, out = run_cli(capsys, "verify", "--m", "3", "--n", "3", "--exhaustive", "--json")
        obj = json.loads(out)
        assert code == 1
        assert obj["match_alternating"] == obj["zero"] < obj["total"]
        assert len(obj["mismatch"]) == obj["total"] - obj["zero"]
        assert obj["mismatch"][0] == [1, 1, 1]

    def test_literal_fast_path_is_named_and_exits_1(self, capsys, monkeypatch):
        elementary = casimir.elementary_eigenvalue
        monkeypatch.setattr(
            casimir, "elementary_eigenvalue", lambda t, shifted, sign, order=None: -elementary(t, shifted, sign, order)
        )
        code, out = run_cli(capsys, "verify", "--m", "3", "--n", "3", "--exhaustive")
        assert code == 1
        assert "consistent convention: literal\n" in out
        assert "MISMATCH under the alternating convention: [(1, 1, 1)," in out

    def test_random_without_seed_exits_2(self, capsys):
        code, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--random", "3")
        assert code == 2

    def test_seed_without_random_exits_2(self, capsys):
        code = main(["verify", "--m", "2", "--n", "2", "--exhaustive", "--seed", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: --seed applies only to --random\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "3", "--n", "0", "--exhaustive"], "rank n must be >= 1"),
            (["--m", "3", "--n", "-2", "--random", "5", "--seed", "1"], "rank n must be >= 1"),
            (["--m", "0", "--n", "3", "--exhaustive"], "order m must be >= 1"),
        ],
    )
    def test_order_or_rank_below_one_exits_2(self, capsys, argv, message):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


class TestTables:
    def test_m2_rows(self, capsys):
        _, out = run_cli(capsys, "tables", "--m", "2")
        assert "| i1 > i2 | 0 |" in out
        assert "| i1 = i2 | (a_i1 + (n+1)/2 - i1)^2 |" in out
        assert "| i1 < i2 | -a_i1 + a_i2 + i1 - i2 |" in out

    def test_m3_discrepancy_row(self, capsys):
        _, out = run_cli(capsys, "tables", "--m", "3")
        (row,) = [line for line in out.splitlines() if line.startswith("| i1 < i2 = i3 ")]
        assert "computed:" in row and "printed:" in row and "DISCREPANCY" in row

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "tables", "--m", "3", "--format", "json")
        obj = json.loads(out)
        flagged = [row for row in obj["rows"] if row["discrepancy"]]
        assert len(flagged) == 1
        assert flagged[0]["case"] == "i1 < i2 = i3"
        assert flagged[0]["printed"] is not None


class TestDeterminismAndRoundTrip:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ["verify", "--m", "3", "--n", "3", "--random", "5", "--seed", "42", "--json"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_mpoly_json_round_trip(self):
        p = alpha(1, 3) * alpha(1, 3) * alpha(2, 3) - F(7, 2) * alpha(3, 3) + 1
        text = json.dumps(mpoly_to_obj(p), separators=(",", ":"))
        again = parse_polynomial_json(text)
        assert again == p
        assert json.dumps(mpoly_to_obj(again), separators=(",", ":")) == text

    def test_closed_form_json_round_trip(self):
        from casimir_eigen.casimir import closed_form

        form = closed_form(3)
        text = emit_polynomial_json(form)
        again = parse_polynomial_json(text)
        assert again == form
        assert emit_polynomial_json(again) == text

    def test_zero_mpoly_json(self):
        assert json.dumps(mpoly_to_obj(MPoly(4)), separators=(",", ":")) == '{"nvars":4,"terms":[]}'


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["casimir", "--m", "2"])
        assert info.value.code == 2

    def test_unknown_basis(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["casimir", "--m", "2", "--n", "2", "--basis", "monomials"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["elementary", "--tuple", "99999999999999999999999"],
            ["casimir", "--m", "2", "--n", "99999999999999999999999"],
            ["verify", "--m", "2", "--n", "99999999999999999999999", "--random", "2", "--seed", "1"],
            ["elementary", "--tuple", "1,99999999999999999999999"],
            ["elementary", "--tuple", "1,2", "--n", "2000000000000000000"],
            ["casimir", "--m", "2", "--n", "2000000000000000000"],
            ["verify", "--m", "2", "--n", "2000000000000000000", "--random", "3", "--seed", "1"],
        ],
    )
    def test_index_too_large_exits_2(self, capsys, argv):
        # too large for a machine-size index, or an n-long list too large for memory, which Python
        # refuses before it allocates anything; exit 1 is kept for a verification mismatch
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        rank = int(argv[argv.index("--n") + 1]) if "--n" in argv else max(map(int, argv[2].split(",")))
        if rank > sys.maxsize:
            assert captured.err == f"error: rank n = {rank} is above the machine-size bound 2^63 - 1\n"
        else:
            assert captured.err == f"error: rank n = {rank} is too large for memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["casimir", "--m", "99999999999999999999999", "--n", "3"],
            ["closed-form", "--m", "99999999999999999999999"],
            ["verify", "--m", "99999999999999999999999", "--n", "3", "--random", "3", "--seed", "1"],
        ],
    )
    def test_order_too_large_exits_2(self, capsys, argv):
        # no tuple is longer than a machine-size int, so the order is refused before any work starts
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: order m = 99999999999999999999999 is above the machine-size bound 2^63 - 1\n"


# Full stdout of `tables`, pinned byte for byte.
TABLES_GOLDEN = {
    (2, "md"): (
        "eigenvalues of order-2 elementary operators (shifted parameters)\n"
        "| case | eigenvalue |\n"
        "|---|---|\n"
        "| i1 > i2 | 0 |\n"
        "| i1 = i2 | (a_i1 + (n+1)/2 - i1)^2 |\n"
        "| i1 < i2 | -a_i1 + a_i2 + i1 - i2 |\n"
    ),
    (2, "json"): (
        '{"m":2,"rows":[{"case":"i1 > i2","value":"0","printed":null,"discrepancy":false},{"case":"i1 = i2","value":"(a_i1 + (n+1)/2 - i1)^2","printed":null,"discrepancy":false},{"case":"i1 < i2","value":"-a_i1 + a_i2 + i1 - i2","printed":null,"discrepancy":false}]}\n'
    ),
    (3, "md"): (
        "eigenvalues of order-3 elementary operators (shifted parameters)\n"
        "| case | eigenvalue |\n"
        "|---|---|\n"
        "| i1 > i2 | 0 |\n"
        "| i1 > i3 | 0 |\n"
        "| i1 < i2 < i3 | a_i1 - a_i2 - i1 + i2 |\n"
        "| i1 < i3 < i2 | a_i1 - a_i3 - i1 + i3 |\n"
        "| i1 = i2 < i3 | -(a_i1 - a_i3 - i1 + i3)*(a_i1 + (n+1)/2 - i1) |\n"
        "| i1 = i3 < i2 | -(a_i1 - a_i2 - i1 + i2)*(a_i1 + (n+1)/2 - i1) |\n"
        "| i1 < i2 = i3 | computed: -(a_i2 + (n+1)/2 - i2 - 1)*(a_i1 - a_i2 - i1 + i2) ; printed: -(a_i1 - a_i2 - i1 + i2)*(a_i1 + (n+1)/2 - i1 - 1) **DISCREPANCY** |\n"
        "| i1 = i2 = i3 | (a_i1 + (n+1)/2 - i1)^3 |\n"
    ),
    (3, "json"): (
        '{"m":3,"rows":[{"case":"i1 > i2","value":"0","printed":null,"discrepancy":false},{"case":"i1 > i3","value":"0","printed":null,"discrepancy":false},{"case":"i1 < i2 < i3","value":"a_i1 - a_i2 - i1 + i2","printed":null,"discrepancy":false},{"case":"i1 < i3 < i2","value":"a_i1 - a_i3 - i1 + i3","printed":null,"discrepancy":false},{"case":"i1 = i2 < i3","value":"-(a_i1 - a_i3 - i1 + i3)*(a_i1 + (n+1)/2 - i1)","printed":null,"discrepancy":false},{"case":"i1 = i3 < i2","value":"-(a_i1 - a_i2 - i1 + i2)*(a_i1 + (n+1)/2 - i1)","printed":null,"discrepancy":false},{"case":"i1 < i2 = i3","value":"-(a_i2 + (n+1)/2 - i2 - 1)*(a_i1 - a_i2 - i1 + i2)","printed":"-(a_i1 - a_i2 - i1 + i2)*(a_i1 + (n+1)/2 - i1 - 1)","discrepancy":true},{"case":"i1 = i2 = i3","value":"(a_i1 + (n+1)/2 - i1)^3","printed":null,"discrepancy":false}]}\n'
    ),
}

@pytest.mark.parametrize("m, fmt", sorted(TABLES_GOLDEN))
def test_tables_golden_stdout(capsys, m, fmt):
    code, out = run_cli(capsys, "tables", "--m", str(m), "--format", fmt)
    assert code == 0
    assert out == TABLES_GOLDEN[(m, fmt)]


# Full stdout of two verify requests at orders 7 and 8, pinned byte for byte.
VERIFY_GOLDEN = {
    ("--m", "8", "--n", "8", "--random", "30", "--seed", "3", "--json"): '{"total":30,"zero":29,"match_literal":30,"match_alternating":30,"mismatch":[]}\n',
    ("--m", "7", "--n", "7", "--random", "40", "--seed", "3"): (
        'verify m=7 n=7 random(count=40, seed=3)\n'
        'total=40 zero=29 match_literal=29 match_alternating=40\n'
        'consistent convention: alternating\n'
        'OK: fast path agrees with the oracle under the alternating convention\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_verify_golden_stdout(capsys, argv):
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert out == VERIFY_GOLDEN[argv]


# Full stdout under the literal sign convention at odd m, pinned byte for byte.
LITERAL_GOLDEN = {
    ('casimir', '--m', '3', '--n', '4', '--sign', 'literal'): (
        'eigenvalue: -a1^3 - a2^3 - a3^3 - a4^3 + 3/2*a1^2 - a1*a2 - a1*a3 - a1*a4 + 3/2*a2^2 - a2*a3 - a2*a4 + 3/2*a3^2 - a3*a4 + 3/2*a4^2 + 15/4*a1 + 15/4*a2 + 15/4*a3 + 15/4*a4 - 10\n'
    ),
    ('casimir', '--m', '3', '--n', '4', '--sign', 'literal', '--json'): (
        '{"m":3,"n":4,"shifted":true,"basis":"monomial","eigenvalue":{"nvars":4,"terms":[{"c":"-1/1","e":[3,0,0,0]},{"c":"-1/1","e":[0,3,0,0]},{"c":"-1/1","e":[0,0,3,0]},{"c":"-1/1","e":[0,0,0,3]},{"c":"3/2","e":[2,0,0,0]},{"c":"-1/1","e":[1,1,0,0]},{"c":"-1/1","e":[1,0,1,0]},{"c":"-1/1","e":[1,0,0,1]},{"c":"3/2","e":[0,2,0,0]},{"c":"-1/1","e":[0,1,1,0]},{"c":"-1/1","e":[0,1,0,1]},{"c":"3/2","e":[0,0,2,0]},{"c":"-1/1","e":[0,0,1,1]},{"c":"3/2","e":[0,0,0,2]},{"c":"15/4","e":[1,0,0,0]},{"c":"15/4","e":[0,1,0,0]},{"c":"15/4","e":[0,0,1,0]},{"c":"15/4","e":[0,0,0,1]},{"c":"-10/1","e":[0,0,0,0]}]}}\n'
    ),
    ('casimir', '--m', '5', '--n', '6', '--raw', '--sign', 'literal'): (
        'eigenvalue: -a1^5 - a2^5 - a3^5 - a4^5 - a5^5 - a6^5 + 20*a1^4 - a1^3*a2 - a1^3*a3 - a1^3*a4 - a1^3*a5 - a1^3*a6 - a1^2*a2^2 - a1^2*a3^2 - a1^2*a4^2 - a1^2*a5^2 - a1^2*a6^2 - a1*a2^3 - a1*a3^3 - a1*a4^3 - a1*a5^3 - a1*a6^3 + 15*a2^4 - a2^3*a3 - a2^3*a4 - a2^3*a5 - a2^3*a6 - a2^2*a3^2 - a2^2*a4^2 - a2^2*a5^2 - a2^2*a6^2 - a2*a3^3 - a2*a4^3 - a2*a5^3 - a2*a6^3 + 10*a3^4 - a3^3*a4 - a3^3*a5 - a3^3*a6 - a3^2*a4^2 - a3^2*a5^2 - a3^2*a6^2 - a3*a4^3 - a3*a5^3 - a3*a6^3 + 5*a4^4 - a4^3*a5 - a4^3*a6 - a4^2*a5^2 - a4^2*a6^2 - a4*a5^3 - a4*a6^3 - a5^3*a6 - a5^2*a6^2 - a5*a6^3 - 5*a6^4 - 150*a1^3 + 19*a1^2*a2 + 17*a1^2*a3 + 15*a1^2*a4 + 13*a1^2*a5 + 11*a1^2*a6 + 18*a1*a2^2 - a1*a2*a3 - a1*a2*a4 - a1*a2*a5 - a1*a2*a6 + 15*a1*a3^2 - a1*a3*a4 - a1*a3*a5 - a1*a3*a6 + 12*a1*a4^2 - a1*a4*a5 - a1*a4*a6 + 9*a1*a5^2 - a1*a5*a6 + 6*a1*a6^2 - 79*a2^3 + 14*a2^2*a3 + 12*a2^2*a4 + 10*a2^2*a5 + 8*a2^2*a6 + 13*a2*a3^2 - a2*a3*a4 - a2*a3*a5 - a2*a3*a6 + 10*a2*a4^2 - a2*a4*a5 - a2*a4*a6 + 7*a2*a5^2 - a2*a5*a6 + 4*a2*a6^2 - 28*a3^3 + 9*a3^2*a4 + 7*a3^2*a5 + 5*a3^2*a6 + 8*a3*a4^2 - a3*a4*a5 - a3*a4*a6 + 5*a3*a5^2 - a3*a5*a6 + 2*a3*a6^2 + 3*a4^3 + 4*a4^2*a5 + 2*a4^2*a6 + 3*a4*a5^2 - a4*a5*a6 + 14*a5^3 - a5^2*a6 - 2*a5*a6^2 + 5*a6^3 + 500*a1^2 - 131*a1*a2 - 97*a1*a3 - 69*a1*a4 - 47*a1*a5 - 31*a1*a6 + 143*a2^2 - 65*a2*a3 - 41*a2*a4 - 23*a2*a5 - 11*a2*a6 - 26*a3^2 - 19*a3*a4 - 5*a3*a5 + 3*a3*a6 - 67*a4^2 + 7*a4*a5 + 11*a4*a6 - 40*a5^2 + 13*a5*a6 - 5*a6^2 - 625*a1 + 113*a2 + 269*a3 + 179*a4 + 59*a5 + 5*a6\n'
    ),
    ('elementary', '--tuple', '1,3,2', '--sign', 'literal'): (
        'eigenvalue: -a1 + a2 - 1\n'
        'cycles (consecutive occurrences of each value in the closed tuple):\n'
        '  positions  sub-list   proper  v1  v2\n'
        '  1..4       (1,3,2,1)  yes     1   2 \n'
    ),
}


@pytest.mark.parametrize("argv", sorted(LITERAL_GOLDEN))
def test_literal_sign_golden_stdout(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == LITERAL_GOLDEN[argv]


SRC = str(Path(casimir_eigen.__file__).resolve().parent.parent)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["closed-form", "--m", "3"], ["verify", "--m", "3", "--n", "3", "--exhaustive"]], ids=["closed-form", "verify"]
)
def test_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    """A reader that closed the pipe is not a verify mismatch (exit 1) and gets no traceback."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "casimir_eigen.cli", *argv], stdout=write, stderr=subprocess.PIPE, text=True,
            env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_run_freezes_the_import_time_heap_before_main(monkeypatch, unfreeze):
    freeze_counts = []
    monkeypatch.setattr(cli, "main", lambda: freeze_counts.append(gc.get_freeze_count()) or 0)
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 0
    assert len(freeze_counts) == 1 and freeze_counts[0] > 0


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "closed-form", "--m", "2")[0] == 0
    assert gc.get_freeze_count() == before


PROCESS_ENTRY_ARGVS = [
    ["elementary", "--tuple", "1,3,2,1", "--json"],
    ["casimir", "--m", "3", "--n", "4", "--basis", "power-sum"],
    ["closed-form", "--m", "3"],
    ["verify", "--m", "3", "--n", "3", "--exhaustive"],
    ["tables", "--m", "2", "--format", "json"],
    ["casimir", "--m", "0", "--n", "2"],  # invalid input: exit 2
]


@pytest.mark.parametrize("argv", PROCESS_ENTRY_ARGVS, ids=" ".join)
def test_process_entry_matches_main(capsys, argv):
    """A fresh ``python -m casimir_eigen.cli``, which freezes the heap, prints what main() prints in process."""
    code = main(argv)
    expected = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "casimir_eigen.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    assert (code, expected.err) == (0, "") or (code == 2 and expected.err.startswith("error: "))

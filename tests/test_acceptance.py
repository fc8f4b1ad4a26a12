"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is an exact rational identity (zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion plus timings for the two budgeted runs.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from casimir_eigen import jetoracle
from casimir_eigen.casimir import (
    casimir_eigenvalue_patterned,
)
from casimir_eigen.cli import main
from casimir_eigen.ratpoly import ClosedForm, MPoly, PowerSumPoly, alpha, to_power_sum
from casimir_eigen.tables import eigenvalue_table
from casimir_eigen.tuplegraph import IndexTuple
from pathcheck import path_coefficient_check
from polyjson import closed_form_from_obj
from references import Jet, casimir_eigenvalue, classify, eval_at, evaluate_factored, evaluate_row, from_numerators, power

EXPECTED_CLOSED_FORMS = {
    1: ClosedForm({}),
    2: ClosedForm({(2,): (F(1),), (): (0, F(1, 12), 0, F(-1, 12))}),
    3: ClosedForm({(3,): (F(1),), (2,): (0, F(-1, 2)), (): (0, 0, F(-1, 24), 0, F(1, 24))}),
    4: ClosedForm(
        {
            (4,): (F(1),),
            (3,): (0, F(-1)),
            (2,): (F(1, 2),),
            (): (0, F(1, 80), 0, 0, 0, F(-1, 80)),
        }
    ),
}

EXPECTED_CLOSED_FORM_TEXT = {
    1: "0",
    2: "p2 - (n^3 - n)/12",
    3: "p3 - n/2*p2 + (n^4 - n^2)/24",
    4: "p4 - n*p3 + 1/2*p2 - (n^5 - n)/80",
}


def _beta(i, n):
    return alpha(i, n) + F(n + 1, 2) - i


def _passed(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_closed_forms(capsys):
    started = time.perf_counter()
    for m in (1, 2, 3, 4):
        code, text_out = _cli(capsys, "closed-form", "--m", str(m))
        assert code == 0
        assert text_out.strip() == EXPECTED_CLOSED_FORM_TEXT[m]
        code, json_out = _cli(capsys, "closed-form", "--m", str(m), "--json")
        assert code == 0
        assert closed_form_from_obj(json.loads(json_out)) == EXPECTED_CLOSED_FORMS[m]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(1, f"orders 1..4 exact, {elapsed:.1f}s")


def test_criterion_2_worked_example(capsys):
    code, out = _cli(capsys, "elementary", "--tuple", "1,9,2,5,5,9,6,8,4,5", "--raw")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue: a1*a5 - a2*a5 - a1 + a2"
    body = [line.split() for line in lines[3:] if line.strip()]
    assert len(body) == 4
    assert [row[2] for row in body] == ["yes", "no", "yes", "no"]
    minima = [(row[3], row[4]) for row in body if row[2] == "yes"]
    assert minima == [("1", "2"), ("5", "inf")]
    _passed(2, "eigenvalue and four-row cycle table")


def test_criterion_3_order2_table(capsys):
    reference = {
        "i1 > i2": lambda e, n: MPoly(n),
        "i1 = i2": lambda e, n: power(_beta(e[0], n), 2),
        "i1 < i2": lambda e, n: -alpha(e[0], n) + alpha(e[1], n) + e[0] - e[1],
    }
    code, out = _cli(capsys, "tables", "--m", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["case"] for row in rows] == list(reference)
    assert not any(row["discrepancy"] for row in rows)
    for entries in itertools.product(range(1, 5), repeat=2):
        row = classify(2, entries)
        for n in (4, 7):
            assert evaluate_row(row, entries, n) == reference[row.label](entries, n), (entries, n)
    _passed(3, "all three rows symbolically exact")


def test_criterion_4_order3_table(capsys):
    reference = {
        "i1 > i2": lambda e, n: MPoly(n),
        "i1 > i3": lambda e, n: MPoly(n),
        "i1 < i2 < i3": lambda e, n: alpha(e[0], n) - alpha(e[1], n) - e[0] + e[1],
        "i1 < i3 < i2": lambda e, n: alpha(e[0], n) - alpha(e[2], n) - e[0] + e[2],
        "i1 = i2 < i3": lambda e, n: _beta(e[0], n)
        * (-alpha(e[0], n) + alpha(e[2], n) + e[0] - e[2]),
        "i1 = i3 < i2": lambda e, n: _beta(e[0], n)
        * (-alpha(e[0], n) + alpha(e[1], n) + e[0] - e[1]),
        # computed value; the printed variant is checked separately below
        "i1 < i2 = i3": lambda e, n: (_beta(e[0], n) - _beta(e[1], n)) * (1 - _beta(e[1], n)),
        "i1 = i2 = i3": lambda e, n: power(_beta(e[0], n), 3),
    }
    printed_variant = lambda e, n: (
        alpha(e[0], n)
        - alpha(e[1], n)
        - e[0]
        + e[1]
        + _beta(e[0], n) * (-alpha(e[0], n) + alpha(e[1], n) + e[0] - e[1])
    )

    code, out = _cli(capsys, "tables", "--m", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["case"] for row in rows] == list(reference)
    flagged = [row for row in rows if row["discrepancy"]]
    assert len(flagged) == 1 and flagged[0]["case"] == "i1 < i2 = i3"
    assert flagged[0]["printed"] is not None and flagged[0]["value"] is not None

    code, md_out = _cli(capsys, "tables", "--m", "3")
    (md_row,) = [line for line in md_out.splitlines() if line.startswith("| i1 < i2 = i3 ")]
    assert "computed:" in md_row and "printed:" in md_row and "DISCREPANCY" in md_row

    discrepant = next(r for r in eigenvalue_table(3) if r.discrepancy)
    for entries in itertools.product(range(1, 5), repeat=3):
        row = classify(3, entries)
        for n in (4, 6):
            assert evaluate_row(row, entries, n) == reference[row.label](entries, n), (entries, n)
            if row.discrepancy:
                assert evaluate_factored(row.variant, entries, n) == printed_variant(entries, n)
                assert evaluate_factored(row.variant, entries, n) != evaluate_row(row, entries, n)

    # the computed rows must sum over {1,2,3}^3 at n=3 to p3 - (3/2) p2 + 3
    total = MPoly(3)
    for entries in itertools.product(range(1, 4), repeat=3):
        total = total + evaluate_row(classify(3, entries), entries, 3)
    assert to_power_sum(total) == PowerSumPoly({(3,): 1, (2,): F(-3, 2), (): 3})
    _passed(4, "seven rows exact, discrepant row dual-valued, row sum exact")


def test_criterion_5_oracle_equivalence(capsys):
    started = time.perf_counter()
    exhaustive_pairs = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 3), (3, 4)]
    random_pairs = [(4, 4), (5, 5)]

    def check(m, n, expected_total, *extra):
        argv = ["verify", "--m", str(m), "--n", str(n), *extra, "--json"]
        code, out = _cli(capsys, *argv)
        assert code == 0, (m, n)
        report = json.loads(out)
        assert report["total"] == expected_total
        assert report["mismatch"] == []
        # 100% agreement under alternating; literal survives only where it
        # coincides (even m) or on zero tuples, so the matching convention
        # is unique and the same across every nonzero tuple
        assert report["match_alternating"] == report["total"], (m, n)
        if m % 2 == 0:
            assert report["match_literal"] == report["total"], (m, n)
        else:
            assert report["match_literal"] == report["zero"], (m, n)

    for m, n in exhaustive_pairs:
        check(m, n, n**m, "--exhaustive")
    for m, n in random_pairs:
        check(m, n, 200, "--random", "200", "--seed", "7")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(5, f"6 exhaustive + 2x200 random selections, alternating everywhere, {elapsed:.1f}s")


def test_criterion_6_path_coefficients():
    checked = 0
    for m in range(1, 5):
        for entries in itertools.product(range(1, 5), repeat=m):
            report = path_coefficient_check(IndexTuple(entries, 4))
            assert report.ok, (entries, report.violations[:3])
            checked += report.checked
    _passed(6, f"{checked} matrix coefficients verified against path enumeration")


def test_criterion_7_property_suites():
    # permutation symmetry at 100 seeded zero-sum points, 5 permutations each
    rng = random.Random(20240817)
    for m, n in [(2, 3), (3, 3), (3, 4), (4, 4)]:
        value = casimir_eigenvalue(m, n)
        for _ in range(100):
            point = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n - 1)]
            point.append(-sum(point, F(0)))
            reference = eval_at(value, point)
            for _ in range(5):
                shuffled = list(point)
                rng.shuffle(shuffled)
                assert eval_at(value, shuffled) == reference

    # patterned summation equals the naive sum for every m <= 3, n <= 5
    for m in range(1, 4):
        for n in range(1, 6):
            assert casimir_eigenvalue_patterned(m, n) == casimir_eigenvalue(m, n), (m, n)

    # jet ring laws of the reference algebra, and the oracle's power kernel at
    # integer exponents against repeated reference products, 1000 seeded jets
    jet_rng = random.Random(97)

    def random_jet(m, unit=False):
        count = jet_rng.randint(0, min(5, 1 << m))
        coeffs = {mask: jet_rng.randint(-5, 5) for mask in jet_rng.sample(range(1 << m), count)}
        if unit:
            coeffs[0] = 1
        return Jet(m, coeffs)

    for _ in range(1000):
        m = jet_rng.randint(1, 4)
        a, b, c = random_jet(m), random_jet(m), random_jet(m)
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        unit = random_jet(m, unit=True)
        k = jet_rng.randint(0, 4)
        den, numerators = jetoracle.Jet(m, unit.coeffs).power(MPoly.const(1, k))
        via_series = from_numerators(m, 1, den, numerators)
        direct = unit**k
        assert {s: MPoly.const(1, 0) + x for s, x in via_series.coeffs.items()} == {
            s: MPoly.const(1, 0) + x for s, x in direct.coeffs.items()
        }
    _passed(7, "permutation symmetry, patterned equality, jet ring laws all exact")

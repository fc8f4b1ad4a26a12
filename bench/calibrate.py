"""Fixed CPU-bound reference task that times how fast the host runs Python right now.

Usage: python3 bench/calibrate.py

It multiplies sparse polynomials with Fraction coefficients held in dicts,
the same kind of work the package does, and prints the number of terms of
the result (1540).  The benchmark runs it in a fresh interpreter between
requests and divides each request's time by the time of the calibration
runs around it, so that a host running slower or faster for a while moves
both alike and cancels.  Never change this file: every normalised time in
the benchmark's history is relative to it.
"""

from fractions import Fraction

POWER = 19


def multiply(a: dict, b: dict) -> dict:
    product: dict = {}
    for exp_a, coef_a in a.items():
        for exp_b, coef_b in b.items():
            exp = tuple(x + y for x, y in zip(exp_a, exp_b))
            product[exp] = product.get(exp, 0) + coef_a * coef_b
    return {exp: coef for exp, coef in product.items() if coef}


def main() -> None:
    base = {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(2, 5), (0, 0, 1): 1, (0, 0, 0): Fraction(-1, 7)}
    power = base
    for _ in range(POWER - 1):
        power = multiply(power, base)
    print(len(power))


if __name__ == "__main__":
    main()

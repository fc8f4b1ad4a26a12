"""A Fraction Gauss-Jordan solver, the reference for ``ratpoly._solve_linear``.

``_solve_linear`` eliminates in integers; this is the textbook elimination
over Fractions with the same pivot rule (the first nonzero entry of the
column at or below the current row, free variables 0), so both must return
the same solution, or both None.
"""

from fractions import Fraction


def fraction_solve(rows: list[list[Fraction | int]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; returns one solution or None if inconsistent."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivot_of_col[c] = r
        r += 1
        if r == n_rows:
            break
    if any(a[i][n_cols] for i in range(r, n_rows)):
        return None
    solution = [Fraction(0)] * n_cols
    for c, pr in pivot_of_col.items():
        solution[c] = a[pr][n_cols]
    # Verify (cheap, and guards the free-variable case).
    for row, b in zip(rows, rhs):
        if sum((x * s for x, s in zip(row, solution)), Fraction(0)) != b:
            return None
    return solution

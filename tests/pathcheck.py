"""The paper's path lemma for the inverse factor matrix, as a test reference.

Entry (v, w) of prod_j (I - t_j E_{i_j, i_{j+1}}) has coefficient (-1)^|S|
on t_S exactly when the edges S, taken in increasing order, chain from v
to w in the tuple's edge-ordered multigraph.  ``enumerate_paths`` lists
those chains independently of the jet algebra, and
``path_coefficient_check`` compares every coefficient of the oracle's
factor list, multiplied out by the reference jet algebra, against them.
"""

from typing import NamedTuple

from casimir_eigen.jetoracle import build_inverse_matrix
from casimir_eigen.tuplegraph import IndexTuple, relative_order
from references import matrix_entries


def _edge_ends(t: IndexTuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    closed = t.closed()
    return closed[:-1], closed[1:]  # tails, heads of edges 1..m


def enumerate_paths(t: IndexTuple, v: int, w: int) -> list[tuple[int, ...]]:
    """All edge subsets that chain from v to w traversing edges in increasing order.

    A subset {j1 < ... < jk} qualifies when edge j1 starts at v, each
    edge starts where the previous one ended, and edge jk ends at w.  The
    empty subset counts as a path exactly when v = w.
    """
    tails, heads = _edge_ends(t)
    m = t.m
    found: list[tuple[int, ...]] = []

    def extend(u: int, next_edge: int, acc: list[int]) -> None:
        if u == w:
            found.append(tuple(acc))
        for j in range(next_edge, m + 1):
            if tails[j - 1] == u:
                acc.append(j)
                extend(heads[j - 1], j + 1, acc)
                acc.pop()

    extend(v, 1, [])
    return sorted(found)


class PathCheckReport(NamedTuple):
    """Comparison of every jet coefficient of the matrix against path counts."""

    entries: tuple[int, ...]
    checked: int
    violations: tuple[tuple[int, int, tuple[int, ...], int, object], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def path_coefficient_check(t: IndexTuple) -> PathCheckReport:
    """Verify entry (v,w) has coefficient (-1)^|S| exactly on paths v -> w.

    Every subset coefficient of every entry of the inverse factor matrix
    is compared against the independent path enumeration on the tuple's
    multigraph; violations are reported, not raised.
    """
    ro = relative_order(t)
    matrix = build_inverse_matrix(ro.rho)
    entries = matrix_entries(matrix)
    m = t.m
    checked = 0
    violations = []
    subsets = [tuple(j for j in range(1, m + 1) if mask & (1 << (j - 1))) for mask in range(1 << m)]
    for v in range(1, matrix.size + 1):
        for w in range(1, matrix.size + 1):
            paths = set(enumerate_paths(t, ro.values[v - 1], ro.values[w - 1]))
            entry = entries[v - 1][w - 1]
            for subset in subsets:
                expected = (-1) ** len(subset) if subset in paths else 0
                actual = entry.coefficient(subset)
                checked += 1
                if actual != expected:
                    violations.append((ro.values[v - 1], ro.values[w - 1], subset, expected, actual))
    return PathCheckReport(entries=t.entries, checked=checked, violations=tuple(violations))

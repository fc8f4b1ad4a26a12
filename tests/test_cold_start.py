"""Cold start: what a fresh CLI process imports, and the records it builds.

Each subcommand runs in its own interpreter, and the modules it leaves
loaded are compared with those of a bare ``python -c pass``.  Only
``verify`` may load the jet oracle, only ``tables`` the tables module, and
no subcommand may load ``dataclasses`` (its import pulls in ``inspect``,
``ast`` and ``dis``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_eigen
from casimir_eigen.casimir import CasimirRequest, Exhaustive, RandomSample
from casimir_eigen.jetoracle import path_coefficient_check
from casimir_eigen.tuplegraph import IndexTuple, enumerate_cycles, relative_order

SRC = str(Path(casimir_eigen.__file__).resolve().parent.parent)

# Runs one CLI request, then lists sys.modules on stderr after a marker line.
PROBE = (
    "import sys\n"
    "from casimir_eigen.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('MODULES', *sorted(sys.modules), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)

SUBCOMMANDS = {
    "elementary": ["elementary", "--tuple", "1,2,1"],
    "casimir": ["casimir", "--m", "2", "--n", "2"],
    "closed-form": ["closed-form", "--m", "2"],
    "verify": ["verify", "--m", "2", "--n", "2", "--exhaustive"],
    "tables": ["tables", "--m", "2"],
}


def _loaded_modules(code: str, *argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    for line in proc.stderr.splitlines():
        if line.startswith("MODULES "):
            return set(line.split()[1:])
    raise AssertionError(f"no module list on stderr: {proc.stderr!r}")


@pytest.fixture(scope="module")
def loaded_by_subcommand() -> dict[str, set[str]]:
    bare = _loaded_modules("import sys\nprint('MODULES', *sorted(sys.modules), file=sys.stderr)\n")
    return {name: _loaded_modules(PROBE, *argv) - bare for name, argv in SUBCOMMANDS.items()}


def test_no_subcommand_loads_dataclasses(loaded_by_subcommand):
    for name, modules in loaded_by_subcommand.items():
        assert "dataclasses" not in modules, name


def test_only_verify_loads_the_jet_oracle(loaded_by_subcommand):
    loaders = {name for name, modules in loaded_by_subcommand.items() if "casimir_eigen.jetoracle" in modules}
    assert loaders == {"verify"}


def test_only_tables_loads_the_tables(loaded_by_subcommand):
    loaders = {name for name, modules in loaded_by_subcommand.items() if "casimir_eigen.tables" in modules}
    assert loaders == {"tables"}


def test_index_tuple_keeps_entries_as_a_tuple():
    assert IndexTuple([1, 2], 2).entries == (1, 2)


def _records():
    t = IndexTuple((1, 3, 2, 3), 3)
    return [
        t,
        relative_order(t),
        enumerate_cycles(t)[0],
        CasimirRequest(m=2, n=3),
        Exhaustive(),
        RandomSample(5, 1),
        path_coefficient_check(IndexTuple((1, 2), 2)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_hashable_and_immutable(record):
    assert hash(record) == hash(type(record)(*record))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either

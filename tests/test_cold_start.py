"""Cold start: what a fresh CLI process imports and holds, and the records it builds.

Each subcommand runs in its own interpreter, and the modules it leaves
loaded are compared with those of a bare ``python -c pass``.  Only
``verify`` may load the jet oracle, only ``tables`` the tables module, and
no subcommand may load ``dataclasses`` (its import pulls in ``inspect``,
``ast`` and ``dis``).  The jet oracle loads without the fast path's
``tuplegraph``.  Every module of the package imports only the
standard library and its own modules.  An exhaustive ``verify`` keeps
its peak memory flat as the grid grows, and printing a zero eigenvalue
builds nothing per variable, whatever the rank.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_eigen
from casimir_eigen.casimir import CasimirRequest, Exhaustive, RandomSample, verify_tuples
from casimir_eigen.tuplegraph import IndexTuple, enumerate_cycles, relative_order
from pathcheck import path_coefficient_check

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


def _run_fresh(code: str, *argv: str, timeout: int = 60) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a new interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=timeout)


def _loaded_modules(code: str, *argv: str) -> set[str]:
    proc = _run_fresh(code, *argv)
    proc.check_returncode()
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


def test_the_oracle_loads_without_the_fast_path():
    # the oracle takes rank patterns and shares only ratpoly with the proper-cycle route
    modules = _loaded_modules(
        "import sys\nimport casimir_eigen.jetoracle\nprint('MODULES', *sorted(sys.modules), file=sys.stderr)\n"
    )
    assert "casimir_eigen.jetoracle" in modules
    assert "casimir_eigen.tuplegraph" not in modules


def test_only_tables_loads_the_tables(loaded_by_subcommand):
    loaders = {name for name, modules in loaded_by_subcommand.items() if "casimir_eigen.tables" in modules}
    assert loaders == {"tables"}


# Runs one CLI request, then writes the peak resident set size of its own address space on stderr.
# ru_maxrss would not do: Linux carries the forking process's high-water mark over exec, so under
# a large test process it reads that process's peak (61 MB after the order-8 pattern tests, 23 MB alone).
MEMORY_PROBE = (
    "import sys\n"
    "from casimir_eigen.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    print(*(line for line in status if line.startswith('VmHWM:')), end='', file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def _peak_kib(proc: subprocess.CompletedProcess) -> int:
    return next(int(line.split()[1]) for line in proc.stderr.splitlines() if line.startswith("VmHWM:"))


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_exhaustive_verify_memory_stays_flat():
    # 160,000 tuples: a record kept per tuple took about 110 MB, a tally takes about 23 MB
    proc = _run_fresh(MEMORY_PROBE, "verify", "--m", "4", "--n", "20", "--exhaustive", "--json", timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["total"], report["zero"], report["mismatch"]) == (160000, 115900, [])
    assert _peak_kib(proc) < 48 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("style", [[], ["--latex"]], ids=["text", "latex"])
def test_printing_a_zero_eigenvalue_at_a_large_rank_stays_small(style):
    # one name per variable, three million of them, would take about 223 MB just to print "0"
    proc = _run_fresh(MEMORY_PROBE, "elementary", "--tuple", "2,1", "--n", "3000000", *style)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "eigenvalue: 0"
    assert _peak_kib(proc) < 48 * 1024


CLI = "import sys\nfrom casimir_eigen.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("style", [[], ["--latex"], ["--json"]], ids=["text", "latex", "json"])
def test_an_entry_beyond_any_machine_int_prints_a_zero_eigenvalue(style):
    # the rank defaults to the largest entry, 10^23 - 1: no list of that many names may be built
    big = "99999999999999999999999"
    proc = _run_fresh(CLI, "elementary", "--tuple", f"{big},1", *style, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    if style == ["--json"]:
        assert json.loads(proc.stdout)["eigenvalue"] == {"nvars": int(big), "terms": []}
    else:
        assert proc.stdout.splitlines()[0] == "eigenvalue: 0"


def _absolute_imports(path: Path) -> list[str]:
    """The top-level names of a module's absolute imports; relative ones (from . import) are the package's own."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


PACKAGE_MODULES = sorted(Path(casimir_eigen.__file__).resolve().parent.glob("*.py"))


def test_package_has_modules_to_check():
    assert {path.name for path in PACKAGE_MODULES} >= {"__init__.py", "cli.py", "ratpoly.py", "jetoracle.py"}


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    outside = [name for name in _absolute_imports(path) if name not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


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
        verify_tuples(2, 2, Exhaustive()),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_hashable_and_immutable(record):
    assert hash(record) == hash(type(record)(*record))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either

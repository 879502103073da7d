"""Command-line interface: output formats, exit codes, subcommands."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import supertrees
from supertrees import (
    DegreeSequence,
    build_supertree,
    check_slo,
    config,
    construct_slo_supertree,
    parse_sht,
    serialize_sht,
    spectral,
    verify_majorization_monotonicity,
)
from supertrees.cli import main
from support import (
    apply_vertex_permutation,
    broom,
    reference_bisected_eigenvalue,
    reference_second_eigenvalue,
)

STAR_SHT = "k 3\nn 5\ne 0 1 2\ne 0 3 4\n"
H7_SHT = "k 3\nn 7\ne 0 1 2\ne 0 3 4\ne 1 5 6\n"
CHAIN9_SHT = "k 3\nn 9\ne 0 1 2\ne 2 3 4\ne 4 5 6\ne 6 7 8\n"
OVERLAP_SHT = "k 3\nn 4\ne 0 1 2\ne 1 2 3\n"


@pytest.fixture
def star(tmp_path):
    path = tmp_path / "star.sht"
    path.write_text(STAR_SHT)
    return str(path)


@pytest.fixture
def h7(tmp_path):
    path = tmp_path / "h7.sht"
    path.write_text(H7_SHT)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(capsys, star):
    code, out, err = _run(capsys, "validate", star)
    assert code == 0
    assert out == "ok k=3 n=5 m=2\n"
    assert err == ""


def test_validate_rejects_overlap(capsys, tmp_path):
    path = tmp_path / "overlap.sht"
    path.write_text(OVERLAP_SHT)
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("EdgeOverlapTooLarge:")


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "validate", str(tmp_path / "missing.sht"))
    assert code == 2
    assert err.startswith("error:")


def test_eigen_star_csv(capsys, star):
    code, out, _ = _run(capsys, "eigen", star)
    assert code == 0
    assert out == (
        "lambda=2.000000000000\n"
        "gap=inf\n"
        "degenerate=false\n"
        "vertex_id,is_interior,f_value\n"
        "0,true,1.000000000000\n"
        "1,false,0.000000000000\n"
        "2,false,0.000000000000\n"
        "3,false,0.000000000000\n"
        "4,false,0.000000000000\n"
    )


def test_eigen_plain_format(capsys, star):
    code, out, _ = _run(capsys, "--format", "plain", "eigen", star)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda=2.000000000000"
    assert lines[3] == "vertex_id=0 is_interior=true f_value=1.000000000000"
    assert lines[4] == "vertex_id=1 is_interior=false f_value=0.000000000000"


def test_relabel_two_interior(capsys, h7):
    code, out, _ = _run(capsys, "relabel", h7)
    assert code == 0
    assert out == (
        "vertex_id,s,i,p,f_value\n"
        "0,0,1,1,0.707106781187\n"
        "1,1,1,1,0.707106781187\n"
        "2,1,1,2,0.000000000000\n"
        "3,1,2,1,0.000000000000\n"
        "4,1,2,2,0.000000000000\n"
        "5,2,1,1,0.000000000000\n"
        "6,2,1,2,0.000000000000\n"
    )


def test_relabel_plain_format(capsys, star):
    code, out, _ = _run(capsys, "--format", "plain", "relabel", star)
    assert code == 0
    assert out.splitlines()[0] == (
        "vertex_id=0 s=0 i=1 p=1 f_value=1.000000000000"
    )


def test_slo_check_accepts_valid_order(capsys, h7):
    code, out, _ = _run(capsys, "slo-check", h7, "--order", "0,1,2,3,4,5,6")
    assert code == 0
    assert out == "ok\n"


def test_slo_check_reports_violations(capsys, h7):
    code, out, _ = _run(capsys, "slo-check", h7, "--order", "1,0,2,3,4,5,6")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "violation rule=S1 witness=(4, 5)"
    assert {line.split()[1] for line in lines} == {"rule=S1", "rule=S2"}


def test_slo_find_success(capsys, h7):
    code, out, _ = _run(capsys, "slo-find", h7)
    assert code == 0
    assert out == "order 0 1 2 3 4 5 6\n"


def test_slo_find_none_for_chain(capsys, tmp_path):
    path = tmp_path / "chain9.sht"
    path.write_text(CHAIN9_SHT)
    code, out, _ = _run(capsys, "slo-find", str(path))
    assert code == 1
    assert out == "none\n"


def test_slo_find_long_path_cold_process(tmp_path):
    # a cold process has the default recursion limit, which a 400-edge
    # path exceeds for anything that recurses once per level
    perm = list(range(401))
    random.Random(400).shuffle(perm)
    G = apply_vertex_permutation(
        build_supertree(2, 401, [(i, i + 1) for i in range(400)]), perm
    )
    path = tmp_path / "path400.sht"
    path.write_text(serialize_sht(G))
    env = dict(os.environ, PYTHONPATH=str(Path(supertrees.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "supertrees.cli", "slo-find", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    head, *order = proc.stdout.split()
    assert head == "order"
    assert check_slo(G, [int(v) for v in order]) == []


def test_slo_check_reversed_order_cold_process(tmp_path):
    # the reversed creation order of a 1,000-edge SLO-supertree breaks S1,
    # S3 and S5 at almost every pair; one witness per consecutive pair
    # keeps the report linear in the size of the tree
    pi = DegreeSequence.from_degrees(2, (2,) * 333 + (3,) * 333 + (1,) * 335)
    G, order = construct_slo_supertree(pi)
    path = tmp_path / "slo1000.sht"
    path.write_text(serialize_sht(G))
    env = dict(os.environ, PYTHONPATH=str(Path(supertrees.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "supertrees.cli", "slo-check", str(path),
         "--order", ",".join(str(v) for v in reversed(order))],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert all(line.startswith("violation rule=S") for line in lines)
    assert len(lines) <= 4 * G.n + G.m


def test_out_of_memory_exits_2_without_traceback():
    # the n-entry degree sequence alone needs about 800 MB, twice the cap
    import resource

    cap = 400 * 2**20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(supertrees.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "supertrees.cli", "verify-fk2", "--n", "100000001",
         "--n0", "1", "--k", "2", "--d", "2"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory\n"


def _cold_python(script: str, *args: str) -> dict:
    """Run script in a fresh interpreter and parse the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(supertrees.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


COLD_CLI = """
import contextlib, io, json, sys
def loaded():
    own = sorted(m[11:] for m in sys.modules if m.startswith("supertrees."))
    return [own, "numpy" in sys.modules, "dataclasses" in sys.modules]
import supertrees
before = [loaded()]
import supertrees.cli
before.append(loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = supertrees.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"before": before, "run": [code, out.getvalue(), *loaded()]}))
"""

# the modules of the package a subcommand runs beyond cli, core and errors,
# which every process loads
RUNS = {
    "validate": set(),
    "slo-check": {"config", "slo"},
    "slo-find": {"config", "slo"},
    "slo-construct": {"config", "slo"},
    "switch": {"config", "transforms"},
    "shift": {"config", "transforms"},
    "unit": {"config", "transforms"},
    "enumerate": {"config", "enumeration"},
    "eigen": {"config", "spectral"},
    "relabel": {"config", "slo", "spectral"},
    "verify-fk1": {"config", "enumeration", "slo", "spectral"},
    "verify-fk2": {"config", "enumeration", "slo", "spectral"},
    "majorize": {"config", "transforms", "slo", "spectral"},
}
# a verify-fk1 sweep stacks its families on LAPACK, the one subcommand here
# that loads numpy; eigen, relabel, majorize, verify-fk1 --pi and
# verify-fk2 load spectral for its pure-Python solves alone
SWEEP = ["verify-fk1", "--k", "3", "--n-max", "7"]


def test_numpy_loads_only_for_eigenproblems(capsys, h7):
    argvs = [
        ["validate", h7],
        ["slo-check", h7, "--order", "0,1,2,3,4,5,6"],
        ["slo-find", h7],
        ["slo-construct", "--k", "3", "--pi", "2,2,1,1,1,1,1"],
        ["switch", h7, "--e1", "1", "--e2", "0", "--u1", "3", "--v1", "1"],
        ["shift", h7, "--u", "1", "--edges", "2", "--v", "3"],
        ["unit", "--k", "3", "--pi", "3,3,1,1,1,1,1,1,1,1,1", "--p", "0"],
        ["enumerate", "--k", "3", "--pi", "2,2,2,1,1,1,1,1,1"],
        ["eigen", h7],
        ["relabel", h7],
        ["verify-fk1", "--k", "3", "--pi", "2,2,2,1,1,1,1,1,1"],
        ["verify-fk2", "--n", "9", "--n0", "3", "--k", "3", "--d", "2"],
        ["majorize", "--k", "3", "--pi", "3,3,1,1,1,1,1,1,1,1,1",
         "--pi-prime", "2,4,1,1,1,1,1,1,1,1,1"],
        SWEEP,
    ]
    assert [argv[0] for argv in argvs] == [*RUNS, "verify-fk1"]
    base = ["cli", "core", "errors"]
    # one fresh process per subcommand: a module an earlier subcommand
    # loaded cannot hide one this subcommand should not load
    for argv in argvs:
        cold = _cold_python(COLD_CLI, json.dumps(argv))
        assert cold["before"] == [[[], False, False], [base, False, False]]
        code, out, own, numpy, dataclasses = cold["run"]
        # numpy loads with the first LAPACK solve, and only then
        want = (argv[0], sorted(RUNS[argv[0]] | set(base)), argv == SWEEP, False)
        assert (argv[0], own, numpy, dataclasses) == want
        # a cold process that loads modules on demand prints what this one does
        assert (code, _run(capsys, *argv)[:2]) == (0, (0, out))


def _imported(node, module_level: bool):
    """Top-level names of the modules imported under node, outside function
    bodies (which run only when called) when module_level is set; a module
    of the package imported relatively reads as ".name"."""
    for child in ast.iter_child_nodes(node):
        if module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module.split(".")[0]
        elif isinstance(child, ast.ImportFrom) and child.module is None:
            yield from ("." + alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield "." + child.module.split(".")[0]
        yield from _imported(child, module_level)


def test_only_spectral_imports_numpy_and_no_module_loads_heavy_stdlib():
    # a cold CLI process would pay for these before its subcommand runs
    paths = sorted(Path(supertrees.__file__).parent.glob("*.py"))
    assert "spectral.py" in {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        heavy = {"dataclasses", "numpy", "pathlib", "typing"}
        heavy &= set(_imported(tree, True))
        assert (path.name, heavy) == (path.name, set())
        numpy = "numpy" in set(_imported(tree, False))
        assert (path.name, numpy) == (path.name, path.name == "spectral.py")


def test_no_file_imports_packages_outside_the_declared_dependencies():
    # scipy, mpmath and sympy may be installed locally, but the package
    # depends on numpy alone and the tests on pytest, hypothesis and networkx
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
    assert Path(__file__).resolve() in paths and len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        banned = {"scipy", "mpmath", "sympy"} & set(_imported(tree, False))
        assert (path.name, banned) == (path.name, set())


def test_float_literals_other_than_zero_and_one_live_in_config():
    # every threshold is a fixed constant in config, and config binds two
    paths = sorted(Path(supertrees.__file__).parent.glob("*.py"))
    assert "config.py" in {path.name for path in paths}
    stray = [
        (path.name, node.lineno, node.value)
        for path in paths
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value not in (0.0, 1.0)
    ]
    assert stray == []
    thresholds = {name for name, value in vars(config).items() if isinstance(value, float)}
    assert thresholds == {"_REL_EPS", "_BOUNDARY_ZERO"}


COLD_SURFACE = """
import json, sys
import supertrees
probes = [hasattr(supertrees, name)
          for name in ("no_such_name", "__wrapped__", "__test__", "_SPECTRAL")]
names = list(supertrees.__all__)
listed = set(names) <= set(dir(supertrees))
numpy = "numpy" in sys.modules
before = "first_dirichlet_eigenpair" in vars(supertrees)
first = supertrees.first_dirichlet_eigenpair
cached = vars(supertrees).get("first_dirichlet_eigenpair") is first
same = first is supertrees.spectral.first_dirichlet_eigenpair
star = {}
exec("from supertrees import *", star)
print(json.dumps({"probes": probes, "listed": listed, "numpy": numpy,
                  "before": before, "cached": cached, "same": same,
                  "unbound": [n for n in names if n not in star]}))
"""


def test_package_surface_binds_spectral_names_on_first_lookup():
    # probes, __all__ and dir() leave numpy unloaded
    cold = _cold_python(COLD_SURFACE)
    assert cold == {"probes": [False] * 4, "listed": True, "numpy": False,
                    "before": False, "cached": True, "same": True, "unbound": []}
    with pytest.raises(AttributeError):
        supertrees.no_such_name


COLD_SPECTRAL = """
import json, sys
import supertrees.spectral
from supertrees.core import build_supertree
loaded = ["numpy" in sys.modules]
supertrees.spectral.first_dirichlet_eigenpair(build_supertree(2, 3, [(0, 1), (1, 2)]))
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


COLD_LAZY = """
import json, sys
import supertrees
before = "core" in vars(supertrees)
core = supertrees.core
resolved = core is sys.modules["supertrees.core"] and vars(supertrees)["core"] is core
print(json.dumps({"before": before, "resolved": resolved, "dir": dir(supertrees),
                  "numpy": "numpy" in sys.modules}))
"""


def test_package_resolves_modules_and_lists_names_lazily():
    # a module attribute resolves through the package's __getattr__, and
    # dir() lists every public name and module, without loading numpy
    modules = sorted(
        path.stem for path in Path(supertrees.__file__).parent.glob("*.py")
        if path.stem not in ("__init__", "cli")
    )
    public = {name for module in modules
              for name in importlib.import_module(f"supertrees.{module}").__all__}
    cold = _cold_python(COLD_LAZY)
    assert (cold["before"], cold["resolved"], cold["numpy"]) == (False, True, False)
    assert sorted((public | set(modules)) - set(cold["dir"])) == []


def test_spectral_loads_numpy_at_its_first_solve():
    assert _cold_python(COLD_SPECTRAL) == [False, True]


def test_package_all_is_the_union_of_the_module_lists():
    modules = sorted(
        path.stem for path in Path(supertrees.__file__).parent.glob("*.py")
        if path.stem not in ("__init__", "cli")
    )
    union = [name for module in modules
             for name in importlib.import_module(f"supertrees.{module}").__all__]
    assert len(union) == len(set(union))
    assert sorted(supertrees.__all__) == sorted(union)
    star = {}
    exec("from supertrees import *", star)
    assert [name for name in union if star.get(name) is not getattr(supertrees, name)] == []
    # the surface is what the CLI, the sweeps and the claims read; growing or
    # shrinking it is an edit here
    assert sorted(supertrees.__all__) == [
        "BadVertexId", "CanonicalCode", "ContainsCycle",
        "DegreeSequence", "DegreeTooSmall", "DirichletEigenpair", "Disconnected",
        "DuplicateEdge", "EdgeOverlapTooLarge", "EmptyFamily", "FamilySpec",
        "FkCertificate", "HypothesisCheck", "IndexOutOfRange",
        "InfeasibleDegreeSequence", "InvalidSpec", "LengthMismatch",
        "NoInteriorVertices", "NotAPermutation", "NotAnEigenfunction",
        "NotKUniform", "NotMajorized", "ResultNotSupertree", "ShiftSpec",
        "ShtFormatError", "SloViolation", "Supertree", "SupertreeError",
        "SwitchSpec", "VertexId", "VertexLabel",
        "apply_shift", "apply_switch", "build_supertree", "canonical_code",
        "check_shift_hypothesis", "check_slo", "check_switch_hypothesis",
        "construct_slo_supertree", "degree_sequence", "enumerate_family",
        "enumerate_supertrees", "feasible_degree_sequences", "find_slo_ordering",
        "first_dirichlet_eigenpair", "first_dirichlet_eigenvalues", "fk1_sweep",
        "fk2_sweep", "majorizes", "parse_sht", "relabel", "serialize_sht",
        "unit_transform_chain", "unit_transformation", "verify_fk_theorem1",
        "verify_fk_theorem2", "verify_majorization_monotonicity",
    ]
    for name in (
        "BoundaryPartition", "boundary_partition", "LevelStructure",
        "level_structure", "distance", "is_isomorphic", "apply_vertex_permutation",
        "DirichletLaplacian", "dirichlet_laplacian", "assemble_laplacian",
        "rayleigh_quotient", "relabel_ordering", "at_least", "at_most",
        "strictly_less", "ZeroFunction",
    ):
        with pytest.raises(AttributeError):
            getattr(supertrees, name)


def test_module_level_imports_follow_the_loader_order():
    # the package loader imports _MODULES in order until one lists a name,
    # so a module may import at module level only modules listed before it;
    # cli and __init__ are listed nowhere and may import any of them
    order = supertrees._MODULES
    paths = sorted(Path(supertrees.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == {*order, "cli", "__init__"}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        before = order[:order.index(path.stem)] if path.stem in order else order
        own = {name[1:] for name in _imported(tree, True) if name.startswith(".")}
        late = own - set(before)
        assert (path.name, late) == (path.name, set())


def test_slo_construct_roundtrip(capsys):
    code, out, _ = _run(capsys, "slo-construct", "--k", "3", "--pi",
                        "2,2,1,1,1,1,1")
    assert code == 0
    assert out == H7_SHT + "order 0 1 2 3 4 5 6\n"
    # the order line is ignored on parse, so the output is a valid .sht
    assert serialize_sht(parse_sht(out)) == H7_SHT


def test_switch_subcommand(capsys, h7):
    code, out, _ = _run(capsys, "switch", h7, "--e1", "1", "--e2", "0",
                        "--u1", "3", "--v1", "1")
    assert code == 0
    assert out == "k 3\nn 7\ne 0 1 4\ne 0 2 3\ne 1 5 6\n"


def test_switch_invalid_spec(capsys, h7):
    code, _, err = _run(capsys, "switch", h7, "--e1", "1", "--e2", "0",
                        "--u1", "0", "--v1", "1")
    assert code == 2
    assert err.startswith("InvalidSpec:")


def test_shift_subcommand(capsys, h7):
    code, out, _ = _run(capsys, "shift", h7, "--u", "1", "--edges", "2",
                        "--v", "3")
    assert code == 0
    assert out == "k 3\nn 7\ne 0 1 2\ne 0 3 4\ne 3 5 6\n"


def test_shift_bad_edge_index(capsys, h7):
    code, _, err = _run(capsys, "shift", h7, "--u", "1", "--edges", "9",
                        "--v", "3")
    assert code == 2
    assert err == "InvalidSpec: edge index 9 outside 0..2\n"


def test_shift_onto_itself_exits_2(capsys, h7):
    # an empty bundle passes every per-edge check, so only u == v is left
    code, out, err = _run(capsys, "shift", h7, "--u", "1", "--edges", "",
                          "--v", "1")
    assert (code, out) == (2, "")
    assert err == "InvalidSpec: u and v must differ\n"


def test_handler_out_of_memory_exits_2(capsys, monkeypatch):
    # in process; test_out_of_memory_exits_2_without_traceback runs a child

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("supertrees.cli._cmd_unit", exhausted)
    code, out, err = _run(capsys, "unit", "--k", "3", "--pi",
                          "3,3,1,1,1,1,1,1,1,1,1", "--p", "0")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_unit_subcommand(capsys):
    code, out, _ = _run(capsys, "unit", "--k", "3", "--pi",
                        "3,3,1,1,1,1,1,1,1,1,1", "--p", "0")
    assert code == 0
    assert out == "pi=2,4,1,1,1,1,1,1,1,1,1\n"


def test_unit_degree_too_small(capsys):
    code, _, err = _run(capsys, "unit", "--k", "3", "--pi", "2,2,1,1,1,1,1",
                        "--p", "0")
    assert code == 2
    assert err.startswith("DegreeTooSmall:")


def test_enumerate_subcommand(capsys):
    code, out, _ = _run(capsys, "enumerate", "--k", "3", "--pi",
                        "2,2,2,1,1,1,1,1,1")
    assert code == 0
    assert out == (
        "count=2\n"
        "canonical_code\n"
        "e(v(e(v()v()))v(e(v()v()))v(e(v()v())))\n"
        "v(e(v()v(e(v()v())))e(v()v(e(v()v()))))\n"
    )


def test_verify_fk1_single_family(capsys):
    code, out, _ = _run(capsys, "verify-fk1", "--k", "3", "--pi",
                        "2,2,1,1,1,1,1")
    assert code == 0
    assert out == (
        "family=T_pi(k=3,pi=2,2,1,1,1,1,1) unique=true slo_match=true\n"
        "canonical_code,lambda,is_winner,is_slo\n"
        "e(v()v(e(v()v()))v(e(v()v()))),1.500000000000,true,true\n"
    )


def test_verify_fk1_sweep(capsys):
    code, out, _ = _run(capsys, "verify-fk1", "--k", "3", "--n-max", "7")
    assert code == 0
    assert out == (
        "family=T_pi(k=3,pi=2,1,1,1,1) unique=true slo_match=true\n"
        "family=T_pi(k=3,pi=3,1,1,1,1,1,1) unique=true slo_match=true\n"
        "family=T_pi(k=3,pi=2,2,1,1,1,1,1) unique=true slo_match=true\n"
        "families=3 passed=3 failed=0\n"
    )


def test_verify_fk1_empty_sweep_exits_2(capsys):
    # with k=3 the first sequence with an interior vertex has n=5
    for n_max in ("2", "4"):
        code, out, err = _run(capsys, "verify-fk1", "--k", "3", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == (f"EmptyFamily: no degree sequence with k=3 and n <= {n_max} "
                       "has an interior vertex\n")


def test_verify_fk1_requires_pi_or_n_max(capsys):
    # the mode is read off which of the two flags is given; --all is gone
    for argv in (["--k", "3"], ["--k", "3", "--all"]):
        code, out, err = _run(capsys, "verify-fk1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: supertrees verify-fk1")
        assert "--pi" in err and "--n-max" in err
        assert "Traceback" not in err


def test_verify_fk1_rejects_pi_with_n_max(capsys):
    # the sweep never reads --pi, so an infeasible one would go unnoticed
    code, out, err = _run(capsys, "verify-fk1", "--k", "2", "--n-max", "5",
                          "--pi", "9,9")
    assert (code, out) == (2, "")
    assert err.startswith("usage: supertrees verify-fk1")
    assert "--pi" in err and "--n-max" in err
    assert "Traceback" not in err


def test_verify_fk2(capsys):
    code, out, _ = _run(capsys, "verify-fk2", "--n", "7", "--n0", "2",
                        "--k", "3", "--d", "2")
    assert code == 0
    assert out == (
        "family=T_d(n=7,n0=2,k=3,d=2) unique=true slo_match=true\n"
        "canonical_code,lambda,is_winner,is_slo\n"
        "e(v()v(e(v()v()))v(e(v()v()))),1.500000000000,true,true\n"
    )


def test_verify_fk2_empty_family(capsys):
    code, _, err = _run(capsys, "verify-fk2", "--n", "7", "--n0", "3",
                        "--k", "3", "--d", "2")
    assert code == 2
    assert err == "EmptyFamily: T_d(n=7,n0=3,k=3,d=2) is empty\n"


def test_majorize_strict_decrease(capsys):
    code, out, _ = _run(capsys, "majorize", "--k", "3",
                        "--pi", "3,3,1,1,1,1,1,1,1,1,1",
                        "--pi-prime", "2,4,1,1,1,1,1,1,1,1,1")
    assert code == 0
    assert out == (
        "majorized=true\n"
        "lambda_pi=2.500000000000\n"
        "lambda_pi_prime=1.881966011250\n"
        "strict_decrease=true\n"
    )


def test_majorize_rejects_non_majorized(capsys):
    code, out, _ = _run(capsys, "majorize", "--k", "3",
                        "--pi", "2,4,1,1,1,1,1,1,1,1,1",
                        "--pi-prime", "3,3,1,1,1,1,1,1,1,1,1")
    assert code == 2
    assert out == "majorized=false\n"


@pytest.mark.parametrize("n0, lam, lam_prime", [
    (1000, "0.000009869596", "0.000009863020"),
    (4200, "0.000000559501", "0.000000559413"),
])
def test_majorize_proves_the_ladder_pair(capsys, n0, lam, lam_prime):
    # k=2, pi = (3,3,2^(n0-2),1^4) against pi' = (4,2^(n0-1),1^4): the two
    # lambda lie 6.6e-9 apart at n0=1,000 and 8.9e-11 at 4,200, inside the
    # old 1e-10 comparison window, where dense solves took 6.2 s and
    # answered false; two exact tests prove the drop in about 0.3 s of CPU
    pi = ",".join(["3,3"] + ["2"] * (n0 - 2) + ["1"] * 4)
    pi_prime = ",".join(["4"] + ["2"] * (n0 - 1) + ["1"] * 4)
    began = time.process_time()
    code, out, err = _run(capsys, "majorize", "--k", "2", "--pi", pi,
                          "--pi-prime", pi_prime)
    assert time.process_time() - began < 2.0
    assert (code, err) == (0, "")
    assert out == ("majorized=true\n"
                   f"lambda_pi={lam}\nlambda_pi_prime={lam_prime}\n"
                   "strict_decrease=true\n")


@pytest.mark.parametrize("command", ["eigen", "relabel"])
@pytest.mark.parametrize("shape", ["path", "broom"])
def test_eigen_and_relabel_answer_on_thousands_of_edges(capsys, tmp_path, shape,
                                                       command):
    # a k=2 path of 5,000 edges, whose lambda is 4 sin^2(pi / 10,000), and a
    # k=3 broom with a 2,000-edge handle and 1,000 bristles: about 0.2-0.4 s
    # of CPU each on the tree solve, where a cold eigen on the path's dense
    # block took 6.7 s and 616 MB. A line tracer (coverage, mutation runs)
    # can push them past the budget
    if shape == "path":
        G = build_supertree(2, 5001, [(i, i + 1) for i in range(5000)])
        lam = 4 * math.sin(math.pi / 10000) ** 2
        gap = f"{4 * math.sin(math.pi / 5000) ** 2 - lam:.12f}"
        assert (f"{lam:.12f}", gap) == ("0.000000394784", "0.000001184352")
    else:
        G = broom(3, 2000, 1000)
        lam = reference_bisected_eigenvalue(G)
        gap = f"{reference_second_eigenvalue(G) - lam:.12f}"
    path = tmp_path / "big.sht"
    path.write_text(serialize_sht(G))
    began = time.process_time()
    code, out, err = _run(capsys, command, str(path))
    assert time.process_time() - began < 3.0
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if command == "eigen":
        assert lines[0] == f"lambda={lam:.12f}"
        assert lines[1] == f"gap={gap}"
        assert lines[2:4] == ["degenerate=false", "vertex_id,is_interior,f_value"]
        assert len(lines) == 4 + G.n
    else:
        rows = [line.split(",") for line in lines[1:]]
        assert lines[0] == "vertex_id,s,i,p,f_value"
        assert len(rows) == G.n and rows[0][1:4] == ["0", "1", "1"]
        assert float(rows[0][4]) == max(float(row[4]) for row in rows)
        if shape == "path":
            # the middle vertex, where f = sqrt(2 / 5,000) = 0.02
            assert rows[0][0] == "2500" and abs(float(rows[0][4]) - 0.02) <= 1e-10


@pytest.mark.parametrize("pi, pi_prime, sigma, lam", [
    # sigma = 2 lies between lambda' = 1.88 and lambda = 2.5
    ("3,3,1,1,1,1,1,1,1,1,1", "2,4,1,1,1,1,1,1,1,1,1", 2.0, "2.000000000000"),
    # lambda = 1.91 and lambda' = 0.98; sigma = 3/2 makes a pivot of
    # SLO(pi') vanish, which counts as below
    ("3,3,3,3" + ",1" * 15, "2,2,2,6" + ",1" * 15, 1.5, "1.500000000000"),
], ids=["tied floats", "zero pivot"])
def test_majorize_counts_decide_at_any_sigma(capsys, monkeypatch, pi, pi_prime,
                                             sigma, lam):
    # two equal floats put sigma on both; the exact tests there still
    # prove the decrease
    monkeypatch.setattr(spectral, "_bisected_eigenvalue",
                        lambda G: (sigma, spectral._inertia_plan(G)))
    steep, flat = (DegreeSequence.from_degrees(3, map(int, p.split(",")))
                   for p in (pi, pi_prime))
    assert verify_majorization_monotonicity(steep, flat) is True
    code, out, err = _run(capsys, "majorize", "--k", "3", "--pi", pi,
                          "--pi-prime", pi_prime)
    assert (code, err) == (0, "")
    assert out == ("majorized=true\n"
                   f"lambda_pi={lam}\nlambda_pi_prime={lam}\n"
                   "strict_decrease=true\n")


def _patch_exact_tests(monkeypatch, answers):
    """Make each exact test of the next majorize answer answers[0] for
    SLO(pi), then answers[1] for SLO(pi'), in turn; float bisection runs on
    _log_det_slopes and is untouched."""
    exact = itertools.cycle(answers)
    monkeypatch.setattr(spectral, "_exact_below", lambda plan, sigma: next(exact))


@pytest.mark.parametrize("answers", [(True, True), (False, False)],
                         ids=["both counts positive", "both counts zero"])
def test_majorize_undecided_exits_3(capsys, monkeypatch, answers):
    # answers that prove neither order, both trees below sigma or neither,
    # leave the comparison undecided, never false
    _patch_exact_tests(monkeypatch, answers)
    steep = DegreeSequence.from_degrees(3, [3, 3] + [1] * 9)
    flat = DegreeSequence.from_degrees(3, [2, 4] + [1] * 9)
    assert verify_majorization_monotonicity(steep, flat) is None
    code, out, err = _run(capsys, "majorize", "--k", "3",
                          "--pi", "3,3,1,1,1,1,1,1,1,1,1",
                          "--pi-prime", "2,4,1,1,1,1,1,1,1,1,1")
    assert (code, out, err) == (3, "majorized=true\n"
                                "lambda_pi=2.500000000000\n"
                                "lambda_pi_prime=1.881966011250\n"
                                "strict_decrease=undecided\n", "")


def test_majorize_proven_increase_exits_1(capsys, monkeypatch):
    # SLO(pi) below sigma and SLO(pi') not would prove lambda <= sigma
    # < lambda': a proven false, the one verification failure
    _patch_exact_tests(monkeypatch, (True, False))
    steep = DegreeSequence.from_degrees(3, [3, 3] + [1] * 9)
    flat = DegreeSequence.from_degrees(3, [2, 4] + [1] * 9)
    assert verify_majorization_monotonicity(steep, flat) is False
    code, out, err = _run(capsys, "majorize", "--k", "3",
                          "--pi", "3,3,1,1,1,1,1,1,1,1,1",
                          "--pi-prime", "2,4,1,1,1,1,1,1,1,1,1")
    assert (code, out.splitlines()[-1], err) == (1, "strict_decrease=false", "")


@pytest.mark.parametrize("pi, pi_prime, error", [
    ("3,3,1,1,1,1", "3,3,1,1,1,1", "the sequences are equal; no strict comparison"),
    ("5,1,1,1,1,1", "3,3,1,1,1,1", "interior counts differ (1 vs 2); no chain exists"),
])
def test_majorize_rejects_before_printing(capsys, pi, pi_prime, error):
    # both pairs are majorized, but the comparison's own preconditions fail;
    # no result line reaches stdout
    code, out, err = _run(capsys, "majorize", "--k", "2", "--pi", pi,
                          "--pi-prime", pi_prime)
    assert (code, out, err) == (2, "", f"NotMajorized: {error}\n")


def test_usage_errors_exit_2(capsys, star, tmp_path):
    assert _run(capsys, "nonsense")[0] == 2
    assert _run(capsys, "eigen", star, "--bogus")[0] == 2
    assert _run(capsys, "--jobs", "2", "verify-fk1", "--k", "3", "--n-max", "9")[0] == 2
    huge = tmp_path / "huge.sht"
    huge.write_text("k 2\nn 1000000000000000\ne 0 1\n")
    twice = tmp_path / "twice.sht"
    twice.write_text("k 2\nk 3\nn 3\ne 0 1\ne 1 2\n")
    for argv, error in (
        (["verify-fk1", "--k", "1", "--n-max", "5"], "NotKUniform:"),
        (["verify-fk1", "--k", "0", "--n-max", "9"], "NotKUniform:"),
        (["validate", str(huge)], "Disconnected:"),
        (["validate", str(twice)], "ShtFormatError: line 2: second 'k' line"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(error)
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["slo-check", "H7", "--order", "0,1,x,3,4,5,6"], "--order"),
    (["slo-construct", "--k", "3", "--pi", "2,2,1.5"], "--pi"),
    (["switch", "H7", "--e1", "0", "--e2", "2", "--u1", "1;2"], "--u1"),
    (["switch", "H7", "--e1", "0", "--e2", "2", "--u1", "1", "--v1", "five"], "--v1"),
    (["shift", "H7", "--u", "1", "--edges", "2,,z", "--v", "3"], "--edges"),
    (["unit", "--k", "2", "--pi", "3,3,1,1,1,1e0", "--p", "0"], "--pi"),
    (["enumerate", "--k", "3", "--pi", "2,2,1,1,1,1,-"], "--pi"),
    (["verify-fk1", "--k", "3", "--pi", "2,2,one"], "--pi"),
    (["majorize", "--k", "2", "--pi", "3,3,1,1,1,1", "--pi-prime", "4,2,1,1,1,x"],
     "--pi-prime"),
])
def test_malformed_comma_lists_are_usage_errors(capsys, h7, argv, flag):
    # the parser reads every comma list; the error names the flag, not the
    # function that parses it
    code, out, err = _run(capsys, *(h7 if a == "H7" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: supertrees {argv[0]} ")
    assert f"error: argument {flag}: expected comma-separated integers, got '" in err
    assert "_int_list" not in err and "Traceback" not in err


BIG = str(10**29)


@pytest.mark.parametrize("argv, error", [
    (["verify-fk2", "--n", str(10**20), "--n0", str(10**19), "--k", "2", "--d", "2"],
     "error:"),
    (["verify-fk1", "--k", BIG, "--n-max", str(11 * 10**29)], "error:"),
    (["slo-construct", "--k", BIG, "--pi", "1,1"], "InfeasibleDegreeSequence:"),
    (["enumerate", "--k", "2", "--pi", f"2,{BIG}"], "InfeasibleDegreeSequence:"),
    (["unit", "--k", "2", "--pi", "3,3,1,1,1,1", "--p", f"-{BIG}"], "IndexOutOfRange:"),
    (["verify-fk2", "--n", "21", "--n0", "1", "--k", "2", "--d", BIG], "EmptyFamily:"),
    (["slo-check", "H7", "--order", BIG], "NotAPermutation:"),
    (["verify-fk1", "--k", "2", "--n-max", f"-{BIG}"], "EmptyFamily:"),
])
def test_huge_integer_arguments_exit_2(capsys, h7, argv, error):
    # integers past a machine word; none of these allocates in proportion
    # to the number, so each fails at once
    code, out, err = _run(capsys, *(h7 if a == "H7" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(error)
    assert "Traceback" not in err


def test_epsilon_flag_is_gone(capsys):
    # the comparison slack is a fixed constant; the flag is a usage error
    argv = ["majorize", "--k", "2", "--pi", "3,3,1,1,1,1",
            "--pi-prime", "4,2,1,1,1,1"]
    assert _run(capsys, *argv)[:2] == (0, "majorized=true\n"
                                       "lambda_pi=2.000000000000\n"
                                       "lambda_pi_prime=1.585786437627\n"
                                       "strict_decrease=true\n")
    for flag in (["--epsilon", "0.5"], ["--epsilon=0.5"]):
        code, out, err = _run(capsys, *flag, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "Traceback" not in err


@pytest.fixture(scope="module")
def h7_module(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "h7.sht"
    path.write_text(H7_SHT)
    return str(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    hs.sampled_from(("order", "pi2", "pi3", "edges", "u1", "v1")),
    hs.one_of(
        hs.text(),
        hs.lists(
            hs.one_of(hs.integers(-1, 7), hs.integers(), hs.text(max_size=4)),
            max_size=12,
        ).map(lambda parts: ",".join(str(p) for p in parts)),
    ),
)
@example("order", "0,x,2")
@example("pi3", "-1")
@example("edges", "1" * 20)
def test_comma_list_arguments_fail_cleanly(h7_module, slot, text):
    argv = {
        "order": ["slo-check", h7_module, f"--order={text}"],
        "pi2": ["slo-construct", "--k", "2", f"--pi={text}"],
        "pi3": ["slo-construct", "--k", "3", f"--pi={text}"],
        "edges": ["shift", h7_module, "--u", "1", f"--edges={text}", "--v", "3"],
        "u1": ["switch", h7_module, "--e1", "1", "--e2", "0", f"--u1={text}",
               "--v1", "1"],
        "v1": ["switch", h7_module, "--e1", "1", "--e2", "0", "--u1", "3",
               f"--v1={text}"],
    }[slot]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


def test_console_script_installed(star):
    exe = shutil.which("supertrees")
    assert exe is not None
    proc = subprocess.run(
        [exe, "validate", star], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "ok k=3 n=5 m=2\n"

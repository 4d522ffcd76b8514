"""The benchmark's tracer finds every function it wraps.

`bench/spans.py` looks the public functions of each braggbell layer up by
name, and `Tracer.install` raises AttributeError on a missing one, which
would break every traced benchmark run. The file is executed from its source
text, so nothing is written under `bench/`. The benchmark's reference ladder
(`bench/reference.py`) is read the same way, from its syntax tree, and must
keep the orders the package keeps.

The last tests keep every JSON document on the package's one emitter, keep
`import braggbell.cli` off numpy, scipy, json and csv, and keep the mutant
table of `tests/mutants.py` applicable to the package and its tests.
"""

import ast
import importlib
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import braggbell
from braggbell import adiabatic, cli, ladder, params

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SPANS = BENCH / "spans.py"
BENCH_REFERENCE = BENCH / "reference.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    code = compile(BENCH_SPANS.read_text(), str(BENCH_SPANS), "exec")
    before = set(sys.modules)
    exec(code, module.__dict__)
    loaded = {name.split(".")[0] for name in set(sys.modules) - before}
    assert loaded <= set(sys.stdlib_module_names), loaded - set(sys.stdlib_module_names)
    return module


def test_every_traced_layer_function_exists():
    spans = _load_spans()
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"braggbell.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"braggbell.{layer}.{name}"


# Installs the tracer (which rebinds module attributes, hence a fresh
# interpreter), runs the op given as argv[2] and prints what was traced.
_TRACED_OP = """
import importlib, json, sys, types
spans = types.ModuleType("bench_spans")
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), spans.__dict__)
tracer = spans.Tracer()
tracer.install()
from braggbell import cli, entangle, params
exec(sys.argv[2])
wrapped = {}
for layer, names in spans.LAYERS.items():
    module = importlib.import_module("braggbell." + layer)
    for name in names:
        wrapped[layer + "." + name] = hasattr(getattr(module, name), "__wrapped__")
samples = [sp[7][0] for sp in tracer.spans if sp[2] == "ladder.sample_evolution"]
print(json.dumps({"spans": [sp[2] for sp in tracer.spans], "samples": samples, "wrapped": wrapped}))
"""


def _traced(op: str) -> dict:
    src = str(Path(braggbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_OP, str(BENCH_SPANS), op], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    # the op's own output precedes the tracer's line
    return json.loads(res.stdout.splitlines()[-1])


def test_tracer_installs_on_the_package_and_records_a_ladder_op():
    traced = _traced(
        'entangle.run_scenario(params.rubidium_preset(), engine="ladder").to_json()'
    )
    assert all(traced["wrapped"].values()), [k for k, v in traced["wrapped"].items() if not v]
    # the ladder engine propagates the Fock branch only
    assert traced["spans"].count("ladder.sample_evolution") == 1
    assert traced["spans"].count("entangle.run_scenario") == 1
    # ... under evolve's guards, which branch_pairs runs around its row cache
    # (simulate is the one caller of evolve)
    assert traced["spans"].count("ladder.evolve") == 0


def test_validate_propagates_the_ladder_once(monkeypatch, capsys):
    # the cycle readout and the Bell fidelity read one decomposition, which a
    # cold command computes once per distinct branch and a warm one reuses, and
    # a point the resolution guard refuses (l0 = 8 at 0.02) is never
    # decomposed: each entry is the number of eigh calls, each on one matrix.
    # A warm command reads every point's pair off the row cache: it forms no phases
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    phases, formed = ladder._phases, []
    monkeypatch.setattr(ladder, "_phases", lambda *args: formed.append(args) or phases(*args))
    for argv, code, cold, warm in (
        (["validate"], 0, 1, 0),
        (["validate", "--l0", "8", "--chi-ratio", "0.02"], 2, 0, 0),
        (["sweep", "--var", "chi_ratio", "--values", "0.002,0.005,0.01,0.02,0.03,0.05,0.08,0.12"],
         0, 8, 0),
        (["sweep", "--var", "l0", "--values", "2,4,2,8", "--chi-ratio", "0.02"], 0, 2, 0),
    ):
        adiabatic._partition.cache_clear()
        ladder._branch.cache_clear()
        ladder._pair_rows.cache_clear()
        for expected in (cold, warm):
            calls.clear()
            formed.clear()
            assert cli.main(argv) == code, capsys.readouterr().err
            assert len(calls) == expected, argv
            assert all(m.ndim == 2 for m in calls), argv
        assert formed == [], argv
    traced = _traced('assert cli.main(["validate"]) == 0')
    assert traced["spans"].count("cli.validate_point") == 1
    assert traced["spans"].count("entangle.run_scenario") == 0
    # ... and builds its Bell state once, through entangle.prepare
    assert traced["spans"].count("entangle.compose") == 1


def test_adiabatic_bell_op_solves_once_per_distinct_time():
    traced = _traced('entangle.run_scenario(params.rubidium_preset()).to_json()')
    # one closed-form solve per distinct time serves the state and the target phase
    assert traced["spans"].count("adiabatic.solve") == 2
    assert traced["spans"].count("entangle.compose") == 1
    assert traced["spans"].count("entangle.measure_field") == 2
    assert traced["spans"].count("entangle.measure_atom") == 0


def test_ghz_op_records_every_scoring_stage():
    # a k = 3 GHZ op composes, measures the field and one atom, and scores
    # fidelities and the two-atom remnant's concurrence, each a traced layer
    traced = _traced('entangle.run_scenario(params.rubidium_preset(), mode="same", k=3).to_json()')
    for name in ("compose", "measure_field", "measure_atom", "fidelity", "concurrence"):
        assert traced["spans"].count(f"entangle.{name}") >= 1, name


def test_ghz_op_solves_and_samples_each_distinct_time_once():
    # six atoms, two distinct times: t1 for the first five, t2 for the last
    for engine, stark in itertools.product(("adiabatic", "ladder"), (False, True)):
        traced = _traced(
            'entangle.run_scenario(params.rubidium_preset(), mode="same", k=6, r=1, '
            f'engine="{engine}", include_stark={stark})'
        )
        assert traced["spans"].count("adiabatic.solve") == 2, (engine, stark)
        # the ladder engine propagates once, to the two times
        assert traced["samples"] == ([2] if engine == "ladder" else []), (engine, stark)


def _reference_orders():
    """bench/reference.py's orders(l0), compiled with its GUARD from the source alone."""
    tree = ast.parse(BENCH_REFERENCE.read_text())
    keep = []
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["GUARD"] or isinstance(node, ast.FunctionDef) and node.name == "orders":
            keep.append(node)
    assert len(keep) == 2, "bench/reference.py defines GUARD and orders(l0)"
    namespace: dict = {}
    exec(compile(ast.Module(body=keep, type_ignores=[]), str(BENCH_REFERENCE), "exec"), namespace)
    return namespace["orders"]


def test_ladder_range_is_the_bench_reference_range():
    # the benchmark checks every ladder number against its own 60-digit
    # ladder, so both must truncate at the same orders
    orders = _reference_orders()
    d = params.derive(params.rubidium_preset())
    for l0 in range(2, 13, 2):
        l_min, l_max = params.default_range(l0)
        assert list(range(l_min, l_max + 1, 2)) == orders(l0), l0
        assert ladder.build_hamiltonian(1, l0, d).orders.tolist() == orders(l0), l0


def test_src_emits_json_only_through_json_text():
    # no json.dumps call anywhere in the package: entangle.json_text is the one emitter
    package = Path(braggbell.__file__).resolve().parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
    ]
    assert calls == []


# Imports braggbell.cli in a fresh interpreter, lists the modules it adds, then
# runs commands in-process and records whether csv is loaded after each one.
_IMPORT_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import braggbell.cli
added = sorted(set(sys.modules) - before)
csv_loaded = {}
for argv in (["preset", "show"], ["bell"], ["ghz", "--k", "4"], ["coeffs"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = braggbell.cli.main(argv)
    csv_loaded[" ".join(argv)] = (code, "csv" in sys.modules)
print(repr((added, csv_loaded)))
"""


def test_import_fence():
    # numpy loads with the ladder, scipy only in the test oracles, csv with
    # the CSV writers; entangle.json_text needs none of json
    src = str(Path(braggbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != params.ENV_CONFIG_VAR}
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
        env=dict(env, PYTHONPATH=path), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    added, csv_loaded = ast.literal_eval(res.stdout)
    assert "braggbell.cli" in added
    fenced = [m for m in added if m.split(".")[0] in ("numpy", "scipy", "json", "csv")]
    assert fenced == []
    assert csv_loaded == {
        "preset show": (0, False), "bell": (0, False), "ghz --k 4": (0, False), "coeffs": (0, True),
    }


def test_every_mutant_applies_once_and_names_existing_tests(request):
    # tests/mutants.py is run by hand; here each mutant's text must occur
    # exactly once in its file, and pytest must collect each of its node ids:
    # a full run has collected them already, and any other run collects the
    # rest in a child process
    import mutants

    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (mutants.SRC / "braggbell" / m.path).read_text()
        assert text.count(m.old) == 1 and m.old != m.new, m.name
        assert m.nodes, m.name
    collected = {item.nodeid.split("[")[0] for item in request.session.items}
    collected |= {item.nodeid for item in request.session.items}
    rest = [node for node in mutants.node_ids() if node not in collected]
    if not rest:
        return
    src = str(Path(braggbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *rest],
        cwd=mutants.ROOT, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert res.returncode == 0, res.stdout + res.stderr

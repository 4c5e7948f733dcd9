"""The benchmark under perfbench/ drives lrdetect by name; every name it uses must
exist, and the study must still write the metrics CSVs whose digests it recorded.

The benchmark's files are loaded read-only (no bytecode is written next to
them) and never run.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

from lrdetect import StudyConfig, run_study, write_study_outputs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_lrdetect(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert tracing.TRACED
    for module_name, fn_name in tracing.TRACED:
        module = importlib.import_module(f"lrdetect.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"lrdetect.{module_name}.{fn_name}"


def test_workload_names_resolve_in_lrdetect(monkeypatch):
    # importing runs its `from lrdetect import ...` lines; attribute uses such
    # as `lrdetect.simulate_fgn` are checked against the imported modules
    workloads = _load("workloads", monkeypatch)
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = getattr(workloads, node.value.id, None)
            if isinstance(target, types.ModuleType) and target.__name__.startswith("lrdetect"):
                assert hasattr(target, node.attr), f"{target.__name__}.{node.attr}"
                used += 1
    assert used > 0


def test_study_csvs_match_recorded_digests(tmp_path):
    # seed 0 of the study-fgn workload: fgn, default grids, 100 replications per H
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["study-fgn"]["0"]
    cfg = StudyConfig(scenario="fgn", lengths=(50, 100, 200, 500), replications=100, master_seed=0)
    paths = write_study_outputs(cfg, run_study(cfg), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.suffix == ".csv"}
    assert digests == recorded

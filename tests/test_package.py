"""Tests for the package's public names and for what each import loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import coarseops

# Each public module and the names the package exports from it, in the
# order of the package's __all__.
EXPORTS = [
    ("thermo", ["ThermalContext", "QubitState", "gibbs_population",
                "energy_of_population", "partition_function", "entropy",
                "free_energy", "gibbs_free_energy", "gibbs_integral"]),
    ("protocol", ["PartialThermalization", "LevelTransformation",
                  "BistochasticTransformation", "Protocol", "validate",
                  "build_average_work_protocol", "build_thermalize_once",
                  "build_pure_excited_reset"]),
    ("engine", ["WorkDistribution", "exact_work_distribution",
                "brute_force_work_distribution", "monte_carlo",
                "final_state", "prob_work_at_most", "total_variation"]),
    ("bounds", ["NoGoBound", "theorem_main_bound", "theorem_rev_bound",
                "theorem_same_side"]),
    ("characterize", ["TransitionClassification", "classify_transition",
                      "mixing_coefficient", "synthesize_protocol"]),
]
NAMES = [name for _, names in EXPORTS for name in names]


def _fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter on this source."""
    src = os.path.dirname(os.path.dirname(coarseops.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


# Each module and the coarseops modules a fresh import of it loads.
IMPORT_GRAPH = [
    ("coarseops", []),
    ("coarseops.thermo", ["thermo"]),
    ("coarseops.protocol", ["protocol", "thermo"]),
    ("coarseops.bounds", ["bounds", "thermo"]),
    ("coarseops.engine", ["engine", "protocol", "thermo"]),
    ("coarseops.characterize", ["bounds", "characterize", "protocol",
                                "thermo"]),
]


@pytest.mark.parametrize("module, loads", IMPORT_GRAPH,
                         ids=[module for module, _ in IMPORT_GRAPH])
def test_import_loads_only_the_modules_it_imports(module, loads):
    # A fresh interpreter that imports one module has loaded it and the
    # coarseops modules it imports, and nothing else of the package; the
    # package alone loads no numpy either.  The no-go rule needs no
    # resolved branches, so bounds leaves paths unloaded.
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.startswith('coarseops.')),"
            " 'numpy' in sys.modules)")
    loaded = [f"coarseops.{m}" for m in loads]
    assert _fresh(code) == f"{loaded} {module != 'coarseops'}\n"


def test_from_import_gives_the_defining_modules_object(monkeypatch):
    for module, names in EXPORTS:
        defining = importlib.import_module(f"coarseops.{module}")
        for name in names:
            monkeypatch.delitem(vars(coarseops), name, raising=False)
            namespace = {}
            exec(f"from coarseops import {name}", namespace)
            assert namespace[name] is getattr(defining, name), name
            # Bound in the package, so the next lookup skips __getattr__.
            assert vars(coarseops)[name] is namespace[name], name


def test_star_import_and_dir_list_every_public_name(monkeypatch):
    for name in NAMES:
        monkeypatch.delitem(vars(coarseops), name, raising=False)
    assert set(NAMES) <= set(dir(coarseops))
    namespace = {}
    exec("from coarseops import *", namespace)
    del namespace["__builtins__"]
    assert list(namespace) == NAMES == coarseops.__all__


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError,
                       match="^module 'coarseops' has no attribute 'nope'$"):
        getattr(coarseops, "nope")
    assert _fresh("import coarseops\nfrom coarseops import engine\n"
                  "print(engine.__name__)") == "coarseops.engine\n"

"""The public surface other code relies on: README's example and perfbench's calls.

Both are read as text and never changed here; a rename or deletion in
`hippomem` that would break them fails these tests instead, and so does a
package export that neither of them uses.
"""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hippomem
from hippomem import Scheme, build_bank, build_operator, history_kernel
from hippomem.discretization import discretize_interval

ROOT = Path(__file__).resolve().parents[1]


def readme_example() -> str:
    """The README's one ```python block."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, got {len(blocks)}"
    return blocks[0]


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(readme_example(), "README.md", "exec"), namespace)
    assert namespace["summary"].shape == (16, 4)
    assert np.isfinite(namespace["summary"]).all()


def benchmark_names() -> set[str]:
    """The `hm.<name>` uses in perfbench/workloads.py."""
    names = set(re.findall(r"\bhm\.([A-Za-z_]\w*)",
                           (ROOT / "perfbench" / "workloads.py").read_text()))
    assert names, "perfbench/workloads.py no longer calls hm.<name>"
    return names


def test_every_name_the_benchmark_uses_resolves():
    missing = sorted(name for name in benchmark_names() if not hasattr(hippomem, name))
    assert not missing, missing


def test_exports_are_what_the_readme_and_benchmark_use():
    readme = {alias.name for node in ast.walk(ast.parse(readme_example()))
              if isinstance(node, ast.ImportFrom) and node.module == "hippomem"
              for alias in node.names}
    # the type zero_state returns and the error history_kernel and build_bank raise
    types = {"MemoryState", "InstabilityError"}
    assert set(hippomem.__all__) == readme | benchmark_names() | types
    assert len(hippomem.__all__) == len(set(hippomem.__all__)) == 19


def traced_functions() -> list[tuple[str, str]]:
    """(module, function) of each entry in perfbench/tracer.py's TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs, "perfbench/tracer.py has an empty TARGETS"
    return pairs


def test_every_traced_function_exists():
    pairs = traced_functions()
    missing = [f"{module}.{func}" for module, func in pairs
               if not callable(getattr(importlib.import_module(f"hippomem.{module}"),
                                       func, None))]
    assert not missing, missing


QUANTITIES = {"legendre_table", "segment_coefficients", "transition_power"}


@pytest.mark.parametrize("entry, reaches", [
    (lambda op: build_bank(op, 16, Scheme.ZOH, 3), {"segment_coefficients", "transition_power"}),
    (lambda op: history_kernel(op, 40, Scheme.ZOH),
     {"segment_coefficients"}),  # a kernel needs no r**A
    (lambda op: discretize_interval(op, 2.0, 3.0, Scheme.ZOH),
     {"segment_coefficients", "transition_power"}),
], ids=["build_bank", "history_kernel", "discretize_interval"])
def test_zoh_paths_reach_the_traced_quantities(monkeypatch, entry, reaches):
    # the tracer wraps a function by rebinding every hippomem module attribute
    # bound to it, so work done outside those functions reads 0 in a trace.
    # Legendre rows come from the one recurrence `operators._legendre_rows`,
    # which is not traced itself: each of its runs must start inside a traced
    # `legendre_table` or `segment_coefficients` call.
    calls, runs, active = Counter(), [], Counter()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.split(".")[0] == "hippomem"]

    def rebind(fn, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, wrapper)

    for module, func in traced_functions():
        if func not in QUANTITIES:
            continue
        fn = getattr(importlib.import_module(f"hippomem.{module}"), func)

        def wrapper(*args, fn=fn, func=func, **kwargs):
            calls[func] += 1
            active[func] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[func] -= 1

        rebind(fn, wrapper)
    recurrence = importlib.import_module("hippomem.operators")._legendre_rows

    def recurrence_run(*args, **kwargs):
        # a generator: this line runs when the recurrence starts, not when it is made
        runs.append({func for func, depth in active.items() if depth})
        yield from recurrence(*args, **kwargs)

    rebind(recurrence, recurrence_run)
    entry(build_operator(8))
    assert reaches <= set(calls)
    assert runs and all(run & {"legendre_table", "segment_coefficients"} for run in runs), runs

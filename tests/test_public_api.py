"""The public surface other code relies on: README's example and perfbench's calls.

Both are read as text and never changed here; a rename or deletion in
`hippomem` that would break them fails these tests instead.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import hippomem

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


def test_every_name_the_benchmark_uses_resolves():
    names = set(re.findall(r"\bhm\.([A-Za-z_]\w*)",
                           (ROOT / "perfbench" / "workloads.py").read_text()))
    assert names, "perfbench/workloads.py no longer calls hm.<name>"
    missing = sorted(name for name in names if not hasattr(hippomem, name))
    assert not missing, missing


def test_every_traced_function_exists():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs, "perfbench/tracer.py has an empty TARGETS"
    missing = [f"{module}.{func}" for module, func in pairs
               if not callable(getattr(importlib.import_module(f"hippomem.{module}"),
                                       func, None))]
    assert not missing, missing

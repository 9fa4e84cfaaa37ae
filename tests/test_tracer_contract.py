"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps module globals by name (its ``PATCHED``
table), so every name it lists must stay a global of its module, even
where the module itself never calls it (``cli.equivalence_test``,
``genericity.accuracy_optimal``).  The table is read as source, without
importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patched() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PATCHED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHED table in {TRACER}")


def test_tracer_names_resolve():
    patched = _patched()
    assert patched
    for module, names in patched.items():
        mod = importlib.import_module(module)
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert not missing, f"{module} lacks {missing}"

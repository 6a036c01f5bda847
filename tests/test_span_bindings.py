"""Every function the traced benchmark wraps still exists in the package.

``perfbench/spans.py`` names its spans by (module, attribute). A module
move or rename would otherwise only show when the traced benchmark runs,
so this loads the span table read-only and resolves each entry.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binding_resolves():
    spans = load_spans()
    assert spans.FUNCTION_SPANS and spans.METHOD_SPANS
    for name, mod_name, attr in spans.FUNCTION_SPANS:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{name}: {mod_name}.{attr} is missing"
    for name, mod_name, cls_name, meth in spans.METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert callable(getattr(cls, meth, None)), f"{name}: {mod_name}.{cls_name}.{meth} is missing"

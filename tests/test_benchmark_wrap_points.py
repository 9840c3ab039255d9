"""Every name the traced benchmark wraps must still be bound where it looks.

``perfbench/traced_report.py`` installs a span around each ``(module,
attribute)`` of its ``WRAPPED`` table. A name it cannot find is only counted
as a missing span, so a refactor that renames or inlines one would quietly
lose that layer's timings. This test reads the table from the script's
source and resolves each name, without running the script or installing a
wrapper.
"""

import importlib
from pathlib import Path

TRACED_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "traced_report.py"


def wrapped_table():
    namespace = {"__name__": "traced_report_table"}
    source = TRACED_REPORT.read_text(encoding="utf-8")
    exec(compile(source, str(TRACED_REPORT), "exec"), namespace)
    return namespace["WRAPPED"]


def test_every_wrapped_name_resolves():
    table = wrapped_table()
    assert table
    missing = []
    for module_name, attribute, *_ in table:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

import testkit

# Reproducible CI runs: derandomized hypothesis, no flaky deadline failures.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _no_temporary_file_left(request):
    """Fail a test that leaves a writer's ``.<name>.<pid>.tmp`` file under its ``tmp_path``."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob(".*.tmp"))
    if left:
        pytest.fail(f"temporary files left under tmp_path: {left}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if testkit.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in testkit.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import sys

from hypothesis import settings

# Fixed examples and no wall-clock deadline: the suite gives the same verdict
# on every run and on slow machines.
settings.register_profile("ccq", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("ccq")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

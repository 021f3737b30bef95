"""The CI workflow runs the one test command, and no test suite of its own."""

import pathlib

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# the Tier-1 command: pytest over testpaths (tests and benchmarks)
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_workflow_runs_the_tier1_command_and_no_heredoc():
    text = WORKFLOW.read_text()
    assert f"run: {TIER1}\n" in text
    # a heredoc in a run step is where inline checks used to live
    assert "<<" not in text

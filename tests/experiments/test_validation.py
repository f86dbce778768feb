"""Tests: the self-validation battery."""

from repro.experiments import run_validation
from repro.experiments.cli import main as cli_main


class TestValidation:
    def test_all_checks_pass(self):
        report = run_validation(trials=25, seed=3)
        assert report.ok
        assert report.checks["hierarchical == centralized detections"] == 25
        assert report.checks["every solution satisfies Eq. (2)"] == 25
        assert report.checks["one-shot == first repeated detection"] == 25
        assert "all checks passed" in report.render()

    def test_different_seeds_pass_too(self):
        for seed in (11, 22):
            assert run_validation(trials=10, seed=seed).ok

    def test_cli_exit_code(self):
        assert cli_main(["validate", "--seed", "2"]) == 0

    def test_failures_render(self):
        report = run_validation(trials=2, seed=1)
        report.failures.append("synthetic failure @ nowhere")
        assert not report.ok
        assert "FAIL" in report.render()

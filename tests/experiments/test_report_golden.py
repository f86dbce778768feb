"""The paper's numbers, pinned: ``repro-experiments all --empirical``
must write exactly the report in ``all_empirical_golden.txt``.

The report carries Table I, Figures 4 and 5 with their empirical
sweeps, and every other experiment the suite runs.  A change that
moves any of its numbers fails here.  If the move is deliberate,
re-record the golden and say why in CHANGES.md::

    PYTHONPATH=src python -m repro.experiments.cli all --empirical \\
        --out tests/experiments/all_empirical_golden.txt
"""

from pathlib import Path

from repro.experiments.cli import main

GOLDEN = Path(__file__).with_name("all_empirical_golden.txt")


def test_all_empirical_report_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["all", "--empirical", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text() + "\n"
    assert out.read_text() == GOLDEN.read_text()

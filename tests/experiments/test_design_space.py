"""Integration tests: the algorithm design-space comparison."""

from repro.experiments import design_space_comparison, format_design_space
from repro.experiments.cli import main as cli_main


class TestDesignSpace:
    def test_shape_claims(self):
        profiles = {p.name: p for p in design_space_comparison(p=8, seed=17)}
        hier = profiles["hierarchical (this paper)"]
        cent = profiles["centralized repeated [12]"]
        one_shot = profiles["centralized one-shot [7]"]
        assert len(profiles) == 3

        # Only the repeated detectors see every occurrence; the two
        # repeated detectors agree on the count.
        assert hier.detections == cent.detections > 1
        assert one_shot.detections == 1

        # Message economics: hierarchical << centralized.
        assert hier.control_messages < cent.control_messages

        # Load placement: the sink is the hot spot in both centralized
        # variants; hierarchical spreads work and space.
        assert cent.cmp_max_node > hier.cmp_max_node
        assert cent.queue_max_node > hier.queue_max_node

        # Fault tolerance is unique to the hierarchical algorithm.
        assert hier.survives_any_single_crash
        assert not cent.survives_any_single_crash
        assert not one_shot.survives_any_single_crash

    def test_rendering(self):
        text = format_design_space(design_space_comparison(p=6, seed=3))
        assert "hierarchical (this paper)" in text
        assert "survives crash" in text

    def test_cli(self, capsys):
        assert cli_main(["design-space", "--p", "6", "--seed", "3"]) == 0
        assert "identical workload" in capsys.readouterr().out

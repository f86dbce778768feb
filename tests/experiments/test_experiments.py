"""Integration tests: table/figure/ablation experiment runners + CLI."""

from repro.experiments import (
    alpha_sweep,
    empirical_message_sweep,
    format_figure,
    format_table1,
    message_complexity_figure,
    pruning_rule_ablation,
    run_table1,
    tree_shape_ablation,
)
from repro.experiments.cli import main as cli_main
from repro.workload import figure2_execution

from ..conftest import random_execution


class TestTable1:
    def test_rows_and_shape_claims(self):
        rows = run_table1(configs=((2, 3), (2, 4)), p=5, seed=3)
        assert len(rows) == 2
        for row in rows:
            # Both algorithms see the same occurrences.
            assert row.hier_detections == row.cent_detections
            # Hierarchical wins on messages and on per-node load.
            assert row.hier_messages < row.cent_messages
            assert row.hier_comparisons_max_node < row.cent_comparisons_max_node
            # Centralized measured messages equal the analytic value.
            assert row.cent_messages == row.analytic_cent_messages
        text = format_table1(rows)
        assert "Space Complexity" in text and "msgs ratio" in text


class TestFigures:
    def test_analytic_series_shapes(self):
        for d in (2, 4):  # Figure 4, Figure 5
            fig = message_complexity_figure(d, p=20)
            hier_low = fig.series["hierarchical a=0.1"]
            hier_high = fig.series["hierarchical a=0.45"]
            cent = fig.series["centralized [12] (corrected Eq.14)"]
            for i, h in enumerate(fig.heights):
                assert hier_low[i] <= hier_high[i]
                if h >= 3:
                    assert hier_high[i] < cent[i]
            # Monotone growth with height.
            assert all(a < b for a, b in zip(cent, cent[1:]))
            # The paper's conclusion: hierarchical wins, increasingly with h.
            gaps = [c / max(x, 1e-9) for x, c in zip(hier_high, cent)]
            assert all(g2 >= g1 for g1, g2 in zip(gaps[1:], gaps[2:]))

    def test_empirical_sweep_matches_analytic_centralized(self):
        from repro.analysis import centralized_messages, hierarchical_messages

        for d in (2, 4):  # Figure 4, Figure 5
            fig = empirical_message_sweep(d, heights=(2, 3), p=4, seed=2)
            hier = fig.series["hierarchical (measured)"]
            cent = fig.series["centralized (measured)"]
            for i, h in enumerate(fig.heights):
                # Centralized measurements land exactly on Eq. (12).
                assert cent[i] == centralized_messages(4, d, h)
                # Hierarchical stays at or below the alpha=1 analytic ceiling.
                assert hier[i] <= hierarchical_messages(4, d, h, 1.0)
                assert hier[i] <= cent[i]
                if h > 2:
                    assert hier[i] < cent[i]
            assert "realized alpha" in fig.series
            assert format_figure(fig)  # renders without error


class TestAblations:
    def test_tree_shapes_show_concentration_tradeoff(self):
        # sync_prob=1 makes every epoch a global occurrence, so all
        # shapes must detect exactly p times regardless of structure.
        shapes = tree_shape_ablation(p=5, sync_prob=1.0, seed=1)
        by_name = {s.name: s for s in shapes}
        # The star (h=2) concentrates comparisons like the centralized
        # algorithm; the binary tree spreads them.
        assert (
            by_name["star"].max_comparisons_per_node
            > by_name["shallow"].max_comparisons_per_node
            > by_name["binary"].max_comparisons_per_node
        )
        assert {s.detections for s in shapes} == {5}

    def test_alpha_sweep_is_monotone_in_detections(self):
        rows = alpha_sweep(d=2, h=3, p=8, sync_probs=(0.0, 1.0), seed=2)
        assert rows[0]["root_detections"] <= rows[1]["root_detections"]
        assert rows[0]["realized_alpha"] <= rows[1]["realized_alpha"]
        # More synchronization -> more aggregation -> more messages upward.
        assert rows[0]["messages"] <= rows[1]["messages"]

    def test_pruning_rules_agree_on_solutions(self, rng):
        result = pruning_rule_ablation(figure2_execution().trace, sink=2)
        assert result.same_solutions
        assert result.detections_eq10 == result.detections_eq9 == 1
        # Eq. (9) with hindsight prunes at least as eagerly.
        assert result.pruned_after_solution_eq9 >= result.pruned_after_solution_eq10

    def test_pruning_rules_agree_on_random_traces(self, rng):
        for _ in range(15):
            ex = random_execution(3, int(rng.integers(10, 40)), rng)
            result = pruning_rule_ablation(ex.trace, sink=0)
            assert result.same_solutions
            assert result.detections_eq10 == result.detections_eq9
            assert (
                result.pruned_after_solution_eq9 >= result.pruned_after_solution_eq10
            )


class TestCli:
    def test_table1(self, capsys):
        assert cli_main(["table1", "--p", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_fig4_analytic(self, capsys):
        assert cli_main(["fig4", "--p", "20"]) == 0
        assert "d=2" in capsys.readouterr().out

    def test_fig5_analytic(self, capsys):
        assert cli_main(["fig5"]) == 0
        assert "d=4" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert cli_main(["ablation", "--p", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Tree-shape ablation" in out and "Alpha steering" in out

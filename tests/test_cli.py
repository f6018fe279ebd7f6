"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_args(self):
        args = build_parser().parse_args(
            ["search", "dblp_tiny", "olap", "cube", "--top-k", "5"]
        )
        assert args.dataset == "dblp_tiny"
        assert args.keywords == ["olap", "cube"]
        assert args.top_k == 5

    def test_feedback_requires_marks(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["feedback", "dblp_tiny", "olap"])

    def test_precompute_args(self):
        args = build_parser().parse_args(
            ["precompute", "dblp_tiny", "--min-df", "1"]
        )
        assert args.dataset == "dblp_tiny"
        assert args.min_df == 1
        assert args.keywords is None

    def test_precompute_defaults(self):
        args = build_parser().parse_args(["precompute", "dblp_tiny"])
        assert args.min_df == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["precompute", "dblp_tiny", "--workers", "2"],
            ["ingest", "dblp_tiny", "--mutations", "m.json", "--workers", "2"],
            ["store", "build", "dblp_tiny", "--store", "s", "--workers", "2"],
            ["explain", "dblp_tiny", "all", "olap", "--batch", "3", "--workers", "2"],
        ],
    )
    def test_worker_pool_flags_are_gone(self, argv):
        """``--workers`` means one thing: the size of ``repro serve``'s
        prefork cluster."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert build_parser().parse_args(["serve", "--workers", "2"]).workers == 2


class TestCommands:
    def test_datasets_lists_names(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "dblp_tiny" in out
        assert "ds7_cancer" in out

    def test_search_prints_ranked_results(self, capsys):
        code = main(["search", "dblp_tiny", "olap", "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "  1. [" in out
        assert "ObjectRank2 iterations" in out

    def test_search_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["search", "nope", "olap"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_store_build_with_keep_below_one_fails_cleanly(self, tmp_path, capsys):
        """Regression: a generation was published before ``--keep 0`` died
        with a traceback."""
        argv = ["store", "build", "dblp_tiny", "--store", str(tmp_path), "--keep", "0"]
        assert main(argv) == 2
        assert "error: keep must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "dblp_tiny").exists()

    def test_search_unmatched_keywords_fails_cleanly(self, capsys):
        assert main(["search", "dblp_tiny", "zzznotaword"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_by_substring(self, capsys):
        code = main(["explain", "dblp_tiny", "paper:", "olap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Explanation for" in out

    def test_explain_no_match(self, capsys):
        code = main(["explain", "dblp_tiny", "not-a-result", "olap"])
        assert code == 1
        assert "no top-" in capsys.readouterr().err

    def test_feedback_flow(self, capsys):
        code = main(["feedback", "dblp_tiny", "olap", "--mark", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reformulated query vector" in out
        assert "learned transfer rates" in out
        assert "reformulated results" in out

    def test_feedback_mark_out_of_range(self, capsys):
        code = main(["feedback", "dblp_tiny", "olap", "--top-k", "3", "--mark", "99"])
        assert code == 1

    def test_precompute_builds_vectors(self, capsys):
        code = main(["precompute", "dblp_tiny", "--min-df", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "precomputed" in out
        assert "keyword vectors" in out

    def test_precompute_explicit_keywords(self, capsys):
        code = main(["precompute", "dblp_tiny", "--keywords", "olap"])
        assert code == 0
        assert "precomputed 1 keyword vectors" in capsys.readouterr().out

    def test_precompute_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["precompute", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


def test_ingest_extends_the_engines_graph_for_an_appending_batch(tmp_path, capsys):
    """``repro ingest`` seeds its ingest engine with the search engine's
    transfer graph, so an append-only batch extends it instead of building."""
    import json

    mutations = tmp_path / "m.json"
    mutations.write_text(
        json.dumps(
            [
                {
                    "op": "add_node",
                    "node_id": "paper:appended",
                    "label": "Paper",
                    "attributes": {"title": "olap cube maintenance"},
                },
                {
                    "op": "add_edge",
                    "source": "paper:appended",
                    "target": "paper:0",
                    "role": "cites",
                },
            ]
        )
    )
    argv = ["ingest", "dblp_top", "--scale", "0.25", "--mutations", str(mutations)]
    assert main([*argv, "--compare-full"]) == 0
    out = capsys.readouterr().out
    assert "incremental refresh: graph extended," in out
    assert "bit-identical to the full rebuild" in out

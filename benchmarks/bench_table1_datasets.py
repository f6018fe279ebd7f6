"""Table 1: dataset sizes (#nodes, #edges, serialized size).

Paper values (real data):

    DBLPcomplete   876,110 nodes   4,166,626 edges   3950 MB
    DBLPtop         22,653 nodes     166,960 edges    136 MB
    DS7            699,199 nodes   3,533,756 edges   2189 MB
    DS7cancer       37,796 nodes     138,146 edges    111 MB

Our synthetic datasets are laptop-scaled; the *shape* to check is the
relative ordering: each complete corpus dwarfs its focused subset, and the
subsets stay in the tens-of-thousands-of-edges range where interactive
ObjectRank2 is feasible (the paper's motivation for DBLPtop/DS7cancer).
"""

from repro.datasets import dataset_statistics

from benchmarks.conftest import write_result
from benchmarks.reporting import format_table

PAPER_ROWS = [
    ("DBLPcomplete", 876_110, 4_166_626, "3950"),
    ("DBLPtop", 22_653, 166_960, "136"),
    ("DS7", 699_199, 3_533_756, "2189"),
    ("DS7cancer", 37_796, 138_146, "111"),
]


def test_table1_dataset_statistics(
    benchmark, dblp_complete, dblp_top, ds7, ds7_cancer
):
    datasets = [dblp_complete, dblp_top, ds7, ds7_cancer]

    def compute():
        return [dataset_statistics(dataset) for dataset in datasets]

    stats = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for (paper_name, paper_nodes, paper_edges, paper_mb), stat in zip(
        PAPER_ROWS, stats
    ):
        rows.append(
            (
                paper_name,
                f"{paper_nodes:,}/{paper_edges:,}",
                f"{stat.num_nodes:,}/{stat.num_edges:,}",
                f"{paper_mb} MB",
                f"{stat.size_megabytes:.1f} MB",
            )
        )
    table = format_table(
        ["dataset", "paper nodes/edges", "ours nodes/edges", "paper size", "ours size"],
        rows,
        title="Table 1: datasets (paper = real corpora, ours = synthetic laptop scale)",
    )
    write_result("table1_datasets", table)

    # Shape assertions: complete >> focused subset, in both families.
    assert stats[0].num_nodes > 4 * stats[1].num_nodes  # DBLPcomplete >> DBLPtop
    assert stats[2].num_nodes > 4 * stats[3].num_nodes  # DS7 >> DS7cancer
    assert stats[0].num_edges > stats[1].num_edges
    assert stats[2].num_edges > stats[3].num_edges

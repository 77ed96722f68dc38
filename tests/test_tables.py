import os

from hodgeorbit import cli, tables

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def test_golden_files_are_exactly_the_table_ids():
    """An orphaned golden file or a dropped table both fail."""
    stems = {name[: -len(".tsv")] for name in os.listdir(GOLDEN_DIR) if name.endswith(".tsv")}
    assert stems == set(tables.TABLE_IDS)


def test_cli_renders_through_the_table_registry():
    assert cli.render_table is tables.render_table
    assert cli.TABLE_IDS == tables.TABLE_IDS == (
        "table1", "table2", "table5", "table6", "table7", "table8", "table9",
        "table10", "lemma3_5", "remark4_18", "figure3", "intro_hodge_numbers",
    )


"""Memory of the exact tables, measured by tracemalloc: allocation counts,
not a clock or the process's resident size, so each bound is deterministic."""

import tracemalloc

from hodgeorbit.chevalley import StructureConstants
from hodgeorbit.cli import _listing
from hodgeorbit.rootdata import LieType, RootSystem, root_system


def _traced(build):
    """(result, bytes still held, peak bytes) of ``build()`` under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_json_listing_peaks_near_its_own_length():
    # one dict and one list per root handed to json.dumps peaked at 20.9
    # times the B36 listing; written row by row it stays under 3 times
    rs = root_system("B36")
    text, _, peak = _traced(lambda: _listing.__wrapped__(rs, "json"))
    assert peak <= 3 * len(text)


def test_a_root_system_stores_each_root_once():
    # with the negative roots in the length map too, a fresh D64 held 4.92 MB
    _, held, _ = _traced(lambda: RootSystem(LieType("D", 64)))
    assert held <= 0.6 * 4.92e6


def test_equal_bracket_entries_are_one_object():
    # E8 has 15504 nonzero slots but only 752 distinct entries
    sc = StructureConstants(root_system("E8"))
    first = {}
    for row in sc.ad:
        for terms in row:
            assert first.setdefault(terms, terms) is terms

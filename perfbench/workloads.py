"""Seeded input generators for the three workloads.

Each generator draws only from a finite domain that ``record_reference.py``
enumerates in full, so every input a seed can produce has a reference output
recorded from the seed commit.  Inputs are made in the parent process, before
any timed region, and handed to the worker as JSON; the Jacobi triples are
made from a seed drawn here, in the worker before its timed region.

The seed changes which inputs are drawn and in what order, but not how much
work a process does: a process's time is the measurement, so two seeds must
give the same amount of work to within the run-to-run noise.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SOS_POOL = os.path.join(HERE, "reference", "sos_pool.json")

WORKLOADS = ("paper_tables", "chevalley_forms", "classical_census")

TABLE_IDS = (
    "table1", "table2", "table5", "table6", "table7", "table8", "table9",
    "table10", "lemma3_5", "remark4_18", "figure3", "intro_hodge_numbers",
)
#: the cheap tables, rendered one command each in smoke mode
SMOKE_TABLE_IDS = ("table1", "table5", "table8", "remark4_18")

# -- chevalley_forms ------------------------------------------------------------

FORM_TYPES = ("G2", "B3", "C3", "A4", "B4", "C4", "D4", "D5", "F4")
SWEEP_TYPES = ("E7", "E8")
#: Jacobi triples per sweep type: about 1.2 s of tiny brackets on each
JACOBI_TRIPLES = 250000


def gradings(name: str) -> list[tuple[int, ...]]:
    """Every grading T in {0,1}^rank except 0; only the parity of beta(T) matters."""
    _, rank = checks.split_type(name)
    return [t for t in product((0, 1), repeat=rank) if any(t)]


def chevalley_forms_inputs(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    types = ("G2", "B3") if smoke else FORM_TYPES
    forms = [[name, list(rng.choice(gradings(name)))] for name in types]
    rng.shuffle(forms)
    n = 200 if smoke else JACOBI_TRIPLES
    sweeps = [[name, rng.randrange(2**32), n] for name in (("G2",) if smoke else SWEEP_TYPES)]
    return {"forms": forms, "sweeps": sweeps}


def jacobi_triples(name: str, seed: int, n: int) -> list[list[int]]:
    """n seeded basis-index triples of ``name``, as three index lists.

    Made in the worker before its timed region: a few hundred thousand
    triples are too many to pass through JSON."""
    rng = random.Random(seed)
    dim = checks.lie_dimension(name)
    return [rng.choices(range(dim), k=n) for _ in range(3)]


# -- classical_census -------------------------------------------------------------

#: roots --format json: ranks spread over 10-36, fixed so that every seed builds
#: the same root systems (build cost grows like rank^4, so drawing ranks at
#: random would make the work per process depend on the seed)
ROOT_RANKS = {"A": (12, 30), "B": (16, 36), "C": (20, 32), "D": (10, 26)}
#: orbit --chain auto at node 2, ranks spread over 6-16 for the same reason
CENSUS_RANKS = {"B": (6, 10, 14), "D": (8, 12, 16)}
CENSUS_NODE = 2
FORMATS = ("json", "tsv")
ROOT_REPEATS = 3
CENSUS_REPEATS = 3
SOS_VALID = 7  # of the 8 valid sets in the pool; all 3 invalid ones are used


def roots_argv(family: str, rank: int) -> list[str]:
    return ["roots", "--type", family, "--rank", str(rank), "--format", "json"]


def census_argv(name: str, fmt: str) -> list[str]:
    return ["orbit", "--type", name, "--node", str(CENSUS_NODE), "--chain", "auto", "--format", fmt]


def sos_argv(name: str, sos: list, fmt: str) -> list[str]:
    text = "|".join(",".join(map(str, b)) for b in sos)
    return ["orbit", "--type", name, "--node", str(CENSUS_NODE), "--sos", text, "--format", fmt]


def census_types() -> list[str]:
    return [f"{f}{r}" for f, ranks in CENSUS_RANKS.items() for r in ranks]


def load_sos_pool() -> dict:
    """type -> {"valid": [sets], "invalid": [sets]}, recorded from the seed commit."""
    with open(SOS_POOL, encoding="utf-8") as fh:
        return json.load(fh)


def census_domain() -> list[list[str]]:
    """Every argv the classical_census generator can produce."""
    out = [roots_argv(f, r) for f, ranks in ROOT_RANKS.items() for r in ranks]
    pool = load_sos_pool()
    for name in census_types():
        for fmt in FORMATS:
            out.append(census_argv(name, fmt))
            for sos in pool[name]["valid"] + pool[name]["invalid"]:
                out.append(sos_argv(name, sos, fmt))
    return out


def classical_census_inputs(seed: int, smoke: bool) -> dict:
    """A shuffled stream: each root system and census is asked for several
    times (the first ask is cold, the rest hit the library's caches), with
    seeded explicit --sos sets, 30% of them invalid.  Set sizes and output
    formats are drawn without replacement from fixed multisets, so their
    cost does not depend on the seed."""
    rng = random.Random(seed)
    pool = load_sos_pool()
    if smoke:
        queries = [roots_argv("D", 10), census_argv("B6", "json"),
                   sos_argv("B6", pool["B6"]["valid"][0], "json"),
                   sos_argv("B6", pool["B6"]["invalid"][0], "tsv")]
        return {"queries": queries}
    queries = []
    for family, ranks in ROOT_RANKS.items():
        for r in ranks:
            queries += [roots_argv(family, r)] * ROOT_REPEATS
    for name in census_types():
        sets = rng.sample(pool[name]["valid"], SOS_VALID) + pool[name]["invalid"]
        formats = _balanced(rng, len(sets) + CENSUS_REPEATS)
        queries += [census_argv(name, fmt) for fmt in formats[:CENSUS_REPEATS]]
        queries += [sos_argv(name, b, fmt) for b, fmt in zip(sets, formats[CENSUS_REPEATS:])]
    rng.shuffle(queries)
    return {"queries": queries}


def _balanced(rng, n: int) -> list[str]:
    formats = [FORMATS[i % len(FORMATS)] for i in range(n)]
    rng.shuffle(formats)
    return formats


def paper_tables_inputs(seed: int, smoke: bool) -> dict:
    """The seed is ignored: the paper's tables are one fixed input."""
    return {"table_ids": list(SMOKE_TABLE_IDS if smoke else TABLE_IDS), "all": not smoke}


GENERATORS = {
    "paper_tables": paper_tables_inputs,
    "chevalley_forms": chevalley_forms_inputs,
    "classical_census": classical_census_inputs,
}

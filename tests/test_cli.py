import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lie_types_up_to, roots_listing_by_json_dumps
from hodgeorbit.cli import MAX_BUILD_RANK, TABLE_IDS, _listing, main, render_table
from hodgeorbit.rootdata import LieType, build_root_system, root_system

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


@pytest.fixture(scope="module")
def schema():
    with open(os.path.join(GOLDEN_DIR, "schema_v1.json")) as fh:
        return json.load(fh)


def _run(args):
    return CliRunner().invoke(main, args)


def test_roots_g2_row_count():
    res = _run(["roots", "--type", "G2"])
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 7  # header + 6 roots


def test_roots_a1():
    res = _run(["roots", "--type", "A1"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1\t1\tlong"


def test_roots_count_only_e8():
    res = _run(["roots", "--type", "E8", "--count-only"])
    assert res.exit_code == 0
    assert res.output.strip() == "120"


def test_roots_family_plus_rank():
    res = _run(["roots", "--type", "B", "--rank", "3", "--count-only"])
    assert res.exit_code == 0
    assert res.output.strip() == "9"


def test_roots_count_only_a1000_is_closed_form():
    res = _run(["roots", "--type", "A1000", "--count-only"])
    assert res.exit_code == 0
    assert res.output == "500500\n"
    res = _run(["roots", "--type", "A", "--rank", "1000", "--count-only", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["count"] == 500500
    assert _run(["roots", "--type", "D3", "--count-only"]).exit_code == 2


def test_roots_count_only_matches_built_roots():
    for lie_type in lie_types_up_to(8):
        name = str(lie_type)
        count = len(root_system(name).positive_roots)
        assert _run(["roots", "--type", name, "--count-only"]).output == f"{count}\n"
        full = json.loads(_run(["roots", "--type", name, "--format", "json"]).output)
        assert full.pop("roots") and full["count"] == count
        res = _run(["roots", "--type", name, "--count-only", "--format", "json"])
        assert res.output == json.dumps(full, sort_keys=True) + "\n"


def test_roots_bad_type_exit_2():
    res = _run(["roots", "--type", "Z9"])
    assert res.exit_code == 2
    res = _run(["roots", "--type", "E", "--rank", "5"])
    assert res.exit_code == 2


def test_roots_json_validates(schema):
    res = _run(["roots", "--type", "F4", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, schema)
    assert payload["count"] == 24


def test_orbit_auto_g2(schema):
    res = _run(["orbit", "--type", "G2", "--node", "2", "--chain", "auto",
                "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, schema)
    assert [(r["c"], r["mu"]) for r in payload["rows"]] == [(1, 2), (3, 3), (5, 4)]


def test_orbit_explicit_sos():
    res = _run(["orbit", "--type", "G2", "--node", "2", "--sos", "2,1"])
    assert res.exit_code == 0
    row = res.output.strip().splitlines()[1].split("\t")
    assert row[2] == "3"  # codim of Example with beta = 2a1+a2


def test_orbit_sos_outside_adjoint_shape_has_no_k_or_mu(schema):
    # B3 at node 1 is not fundamental adjoint: the diamond fits no template,
    # and its top E-eigenspace is not one-dimensional
    argv = ["orbit", "--type", "B3", "--node", "1", "--sos", "1,0,0"]
    res = _run(argv)
    assert res.exit_code == 0
    assert res.output.splitlines()[1].split("\t") == ["1", "1,0,0", "1", "-", "-", "other", "1"]
    res = _run(argv + ["--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, schema)
    (row,) = payload["rows"]
    assert (row["k"], row["mu"], row["lmhs"]) == (None, None, "other")


def test_orbit_sos_root_and_its_negative_are_not_orthogonal():
    res = _run(["orbit", "--type", "B3", "--node", "2", "--sos", "0,1,0|0,-1,0"])
    assert res.exit_code == 3
    assert res.stderr == (
        "invalid SOS: (0, -1, 0) has E-value -1, need 1\n"
        "invalid SOS: (0, 1, 0) and (0, -1, 0) are not orthogonal\n"
    )


def test_orbit_f4_auto_c_column():
    res = _run(["orbit", "--type", "F4", "--node", "1", "--chain", "auto"])
    assert res.exit_code == 0
    rows = [line.split("\t") for line in res.output.strip().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [1, 5, 8, 15]


def test_orbit_invalid_sos_exit_3():
    res = _run(["orbit", "--type", "G2", "--node", "2", "--sos", "0,1|3,1"])
    assert res.exit_code == 3
    res = _run(["orbit", "--type", "G2", "--node", "2", "--sos", "1,2"])
    assert res.exit_code == 3
    # census requires a fundamental adjoint node
    res = _run(["orbit", "--type", "C3", "--node", "1", "--chain", "auto"])
    assert res.exit_code == 3


@pytest.mark.parametrize("mode", [["--chain", "auto"], ["--sos", "1,0,0"]])
@pytest.mark.parametrize("node", ["0", "9", "-1"])
def test_orbit_node_outside_diagram_exit_2(node, mode):
    res = _run(["orbit", "--type", "B3", "--node", node, *mode])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert "--node" in errors[0] and f"node {node} outside 1..3" in errors[0]


def test_orbit_requires_exactly_one_mode():
    assert _run(["orbit", "--type", "G2", "--node", "2"]).exit_code == 2
    assert _run(
        ["orbit", "--type", "G2", "--node", "2", "--chain", "auto", "--sos", "0,1"]
    ).exit_code == 2


def test_tables_single_id(tmp_path):
    res = _run(["tables", "--id", "table2", "--out", str(tmp_path)])
    assert res.exit_code == 0
    text = (tmp_path / "table2.tsv").read_text()
    assert "126937516885200" in text
    assert len(text.strip().splitlines()) == 6  # header + 5 rows


def test_tables_json_output_validates(tmp_path, schema):
    res = _run(["tables", "--id", "table1", "--out", str(tmp_path),
                "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jsonschema.validate(payload, schema)
    assert payload["written"] == [str(tmp_path / "table1.tsv")]


def test_tables_unknown_id(tmp_path):
    assert _run(["tables", "--id", "nope", "--out", str(tmp_path)]).exit_code == 2


@pytest.mark.parametrize("choice", [[], ["--all", "--id", "table1"]], ids=["neither", "both"])
def test_tables_needs_exactly_one_of_all_and_id(tmp_path, choice):
    res = _run(["tables", *choice, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "exactly one of --all or --id" in res.output
    assert not (tmp_path / "out").exists()


def test_tables_io_failure_exit_4(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    res = _run(["tables", "--id", "table2", "--out", str(target)])
    assert res.exit_code == 4


@pytest.mark.parametrize("cap", ["abc", "0", "-3", "1.5"])
def test_tables_bad_dim_cap_exit_2(tmp_path, cap):
    res = CliRunner(env={"HODGEORBIT_DIM_CAP": cap}).invoke(
        main, ["tables", "--id", "intro_hodge_numbers", "--out", str(tmp_path)]
    )
    assert res.exit_code == 2
    assert len(res.stderr.strip().splitlines()) == 1
    assert "HODGEORBIT_DIM_CAP" in res.stderr
    assert not list(tmp_path.iterdir())


def test_tables_dim_cap_exceeded_exit_3(tmp_path):
    # a failing run leaves an existing table file as it was
    name = "intro_hodge_numbers.tsv"
    shutil.copy(os.path.join(GOLDEN_DIR, name), tmp_path / name)
    res = CliRunner(env={"HODGEORBIT_DIM_CAP": "10"}).invoke(
        main, ["tables", "--id", "intro_hodge_numbers", "--out", str(tmp_path)]
    )
    assert res.exit_code == 3
    assert res.stderr == "invalid input: dim 14 exceeds cap 10\n"
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert (tmp_path / name).read_bytes() == fh.read()


def test_tables_match_committed_golden_files():
    """CI-style diff: regenerated tables are byte-identical to golden/."""
    for tid in TABLE_IDS:
        with open(os.path.join(GOLDEN_DIR, f"{tid}.tsv"), encoding="utf-8") as fh:
            committed = fh.read()
        assert render_table(tid) == committed, f"{tid} drifted from golden file"


def test_tables_byte_stable_across_runs():
    for tid in ("table2", "table9", "lemma3_5"):
        assert render_table(tid) == render_table(tid)


def test_lemma3_5_table_contents():
    text = render_table("lemma3_5")
    rows = dict()
    for line in text.strip().splitlines()[1:]:
        name, E, weights = line.split("\t")
        rows[name] = weights
    assert rows["E8"] == "-"
    assert rows["G2"] == "1,0"
    assert rows["B4"] == "0,0,0,1;1,0,0,0"


def test_table8_counts():
    text = render_table("table8")
    rows = [line.split("\t") for line in text.strip().splitlines()[1:]]
    assert len(rows) == 15
    assert all(r[2] in ("16", "28") for r in rows)
    assert [r[2] for r in rows if r[0] == "E7"] == ["16"] * 7
    assert [r[2] for r in rows if r[0] == "E8"] == ["28"] * 8


def test_cli_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "hodgeorbit", "roots", "--type", "G2",
         "--count-only"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "6"


def test_seed_option_removed():
    res = _run(["--seed", "42", "roots", "--type", "A1"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "--seed" in res.output


@pytest.mark.parametrize("sos", ["1,a", "", "1,0,0|", "|1,0,0", "1,,0"])
def test_orbit_malformed_sos_exit_2(sos):
    res = _run(["orbit", "--type", "B3", "--node", "2", "--sos", sos])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert "--sos" in errors[0]


def test_orbit_repeated_root_reports_only_repetition():
    res = _run(["orbit", "--type", "B3", "--node", "2", "--sos", "0,1,0|0,1,0"])
    assert res.exit_code == 3
    assert res.stderr == "invalid SOS: repeated root\n"


def test_orbit_sos_validates_once_and_reports_each_violation(monkeypatch):
    from hodgeorbit import cayley

    calls = []

    def counted(*args):
        calls.append(args)
        return validate(*args)

    validate = cayley.validate_sos
    monkeypatch.setattr(cayley, "validate_sos", counted)
    res = _run(["orbit", "--type", "B3", "--node", "2", "--sos", "0,1,0|0,1,2"])
    assert res.exit_code == 0 and len(calls) == 1
    calls.clear()
    # three violations: not a root, an E-value that is not 1, a root sum
    res = _run(["orbit", "--type", "B3", "--node", "2", "--sos", "0,1,0|0,0,3|1,0,0"])
    assert res.exit_code == 3 and len(calls) == 1
    assert res.stderr == (
        "invalid SOS: (0, 0, 3) is not a root\n"
        "invalid SOS: (1, 0, 0) has E-value 0, need 1\n"
        "invalid SOS: sum (1, 1, 0) of (0, 1, 0) and (1, 0, 0) is a root\n"
    )


def test_validate_sos_repeated_root_is_one_violation():
    from hodgeorbit import cayley, grading
    from hodgeorbit.rootdata import root_system

    rs = root_system("B3")
    E = grading.grading_element_for(rs, {2})
    assert cayley.validate_sos(rs, E, [(0, 1, 0), (0, 1, 0)]) == ["repeated root"]
    assert cayley.validate_sos(rs, E, [(0, 1, 0), (1, 1, 0)]) != []


def test_rank_cap_exit_2_before_building():
    over = MAX_BUILD_RANK + 1
    misses = build_root_system.cache_info().misses
    for argv in (
        ["roots", "--type", "A", "--rank", str(over)],
        ["roots", "--type", f"D{over}", "--format", "json"],
        ["orbit", "--type", "B", "--rank", str(over), "--node", "2", "--chain", "auto"],
        ["orbit", "--type", f"D{over}", "--node", "2", "--sos", "0,1"],
    ):
        res = _run(argv)
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert f"rank {over} is above the cap {MAX_BUILD_RANK}" in res.output
    assert build_root_system.cache_info().misses == misses
    res = _run(["roots", "--type", "A", "--rank", str(over), "--count-only"])
    assert res.output == f"{over * (over + 1) // 2}\n"


def test_orbit_bad_options_exit_2_before_building():
    misses = build_root_system.cache_info().misses
    for argv, hint in (
        (["orbit", "--type", "D64", "--node", "2"], "exactly one of"),
        (["orbit", "--type", "D64", "--node", "2", "--chain", "auto", "--sos", "0,1"],
         "exactly one of"),
        (["orbit", "--type", "D64", "--node", "2", "--sos", "1,a"], "--sos"),
    ):
        res = _run(argv)
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert hint in res.output
    assert build_root_system.cache_info().misses == misses


def test_rank_cap_is_inclusive():
    res = _run(["roots", "--type", "A", "--rank", str(MAX_BUILD_RANK), "--count-only"])
    count = int(res.output)
    res = _run(["roots", "--type", "A", "--rank", str(MAX_BUILD_RANK), "--format", "json"])
    assert res.exit_code == 0
    assert len(json.loads(res.output)["roots"]) == count


@pytest.mark.parametrize("name", ["B36", "D26"])
def test_roots_listing_repeats_are_served_from_memory(name):
    first = {}
    for fmt in ("json", "tsv"):
        res = _run(["roots", "--type", name, "--format", fmt])
        assert res.exit_code == 0
        first[fmt] = res.stdout_bytes
        hits = _listing.cache_info().hits
        res = _run(["roots", "--type", name, "--format", fmt])
        assert res.exit_code == 0
        assert res.stdout_bytes == first[fmt]
        assert _listing.cache_info().hits == hits + 1
    # the TSV request comes after the JSON listing is in memory
    header, *lines = first["tsv"].decode().splitlines()
    assert header == "coords\theight\tlength"
    tsv_rows = []
    for line in lines:
        coords, height, length = line.split("\t")
        tsv_rows.append(([int(c) for c in coords.split(",")], int(height), length))
    payload = json.loads(first["json"])
    json_rows = [(r["coords"], r["height"], r["length"]) for r in payload["roots"]]
    assert tsv_rows == json_rows
    assert len(json_rows) == payload["count"] == len(root_system(name).positive_roots)


#: SHA-256 of the ``roots`` stdout, (TSV, JSON).  The iteration order of
#: ``rs.roots`` depends on how the roots are generated, and no byte of a
#: listing may depend on it
ROOTS_LISTING_SHA256 = {
    "G2": ("3f831db221557f5454521592ca38062de0bbf1ccb8b90d37f54811a0d0c5a59f",
           "d3dc855fb6be463bf3cfa8272b9691f18a3d52e30c0cdf6701464fa3beada100"),
    "F4": ("d5c0b2a68e43defbdffd08e4865c78becb8d9db25cf5e05d394d2d46284518a4",
           "14e84d9c0a2857bcda134229b273537dc2ada6fa99609d75bed14e46126feadb"),
    "E8": ("e67967bc889a91866496b1964d67c4f42fa96652da54c1abe41996530f2a29da",
           "817474807caab371c843ddfcd5a13d16feef90e33bb9de5c771696b9a08dd4dc"),
    "A30": ("735613f1463f41543dcaec3e59e3fdc126a38ea01032a081279aa01bd9ee5ede",
            "2a277ff7184160270a3a17543afdbdb28d0e178793444aa4de3e4c3c1fa935f4"),
    "B36": ("f6751c8ae1b9ad92a87fa90b12005ddb4606ceb1726c11d4a76a1b952306e7e7",
            "431bcb8b7963f9431d2857059e3491be770064260b734d5b9c2013e7af384710"),
    "C32": ("f0734cb3ee628fff46cc09d7b6aa1beda50f512cced12996290d33c1d5d1e02b",
            "5cd2f80b325ba991d2bf33452e88ea9f5aa8017a6bc00917d7fc5c2c44a6cfe2"),
    "D26": ("46a270a9ed0b2030ca0b020afbbe4266e26ba55950de9d5cc21128a01ccd1fa4",
            "e2d2b57cecd094e70a622079d2a5d0b5d856646253eaf420fe177f67f08f481b"),
    "D64": ("b635a0c27647de20e910b0cc7a4101e7a70a8322d3a938d08a818ac7e5a19cac",
            "f63faf1f462e5ec5ee934418e2d8eb21e79c87e2a4f58533cebe641ce625e280"),
}


@pytest.mark.parametrize("name", sorted(ROOTS_LISTING_SHA256))
def test_roots_listing_bytes_are_pinned(name):
    for fmt, want in zip(("tsv", "json"), ROOTS_LISTING_SHA256[name]):
        res = _run(["roots", "--type", name, "--format", fmt])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == want, fmt


@pytest.mark.parametrize("lie_type", lie_types_up_to(12) + [LieType.parse("D64")], ids=str)
def test_json_listing_is_the_json_of_its_dict_tree(lie_type):
    # the listing is written row by row; it must still be the canonical
    # json.dumps(sort_keys=True) text, field for field the old dict tree's
    text = _listing(build_root_system(lie_type), "json")
    assert json.dumps(json.loads(text), sort_keys=True) + "\n" == text
    assert text == roots_listing_by_json_dumps(build_root_system(lie_type))


def test_count_only_and_over_cap_leave_the_listing_memo_alone():
    over = MAX_BUILD_RANK + 1
    misses = _listing.cache_info().misses
    for argv, code in (
        (["roots", "--type", "D64", "--count-only"], 0),
        (["roots", "--type", "D64", "--count-only", "--format", "json"], 0),
        (["roots", "--type", "A", "--rank", str(over), "--count-only"], 0),
        (["roots", "--type", "A", "--rank", str(over)], 2),
        (["roots", "--type", f"D{over}", "--format", "json"], 2),
    ):
        assert _run(argv).exit_code == code
    assert _listing.cache_info().misses == misses


#: every valid type the fuzz test builds; larger ones are above the build cap
_SMALL_TYPES = lie_types_up_to(8)


@st.composite
def _type_args(draw):
    """(argv, rank): mostly a valid type of rank <= 8, else a bad family, a
    bad rank or a rank above the build cap."""
    kind = draw(st.sampled_from(["valid", "valid", "valid", "bad", "big"]))
    if kind == "valid":
        lie_type = draw(st.sampled_from(_SMALL_TYPES))
        family, rank = lie_type.family, lie_type.rank
    else:
        family = draw(st.sampled_from(["A", "B", "D", "E", "g", "Z", ""]))
        # bounded just above the cap, so a broken cap costs seconds, not memory
        rank = draw(st.integers(-2, 9) if kind == "bad"
                    else st.integers(MAX_BUILD_RANK + 1, MAX_BUILD_RANK + 4))
    if draw(st.booleans()):
        return ["--type", family, "--rank", str(rank)], rank
    return ["--type", f"{family}{rank}"], rank


_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "tsv"], ["--format", "xml"]])


@st.composite
def _sos_text(draw, rank, node):
    """Mostly the simple root alpha_node, a valid B, else arbitrary text over
    the characters of the syntax."""
    if draw(st.booleans()) and 1 <= node <= rank <= 8:
        return ",".join("1" if k == node - 1 else "0" for k in range(rank))
    return draw(st.text(alphabet="0123-,|a ", max_size=16))


@st.composite
def _cli_argv(draw):
    """argv for roots, orbit or tables --id; "{out}" stands for the output path."""
    command = draw(st.sampled_from(["roots", "orbit", "tables"]))
    if command == "tables":
        table_id = draw(st.sampled_from(TABLE_IDS + ("nope", "")))
        return ["tables", "--id", table_id, "--out", "{out}", *draw(_FORMAT)]
    type_args, rank = draw(_type_args())
    if command == "roots":
        count_only = draw(st.sampled_from([[], ["--count-only"]]))
        return ["roots", *type_args, *count_only, *draw(_FORMAT)]
    node = draw(st.integers(1, max(rank, 1)) | st.integers(-1, 10))
    sos = ["--sos", draw(_sos_text(rank, node))]
    mode = draw(st.sampled_from([["--chain", "auto"], sos, [], ["--chain", "auto", *sos]]))
    return ["orbit", *type_args, "--node", str(node), *mode, *draw(_FORMAT)]


@given(_cli_argv(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exit_codes_and_no_traceback(argv, out_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if out_is_file:
            with open(out, "w") as fh:
                fh.write("a file, not a directory")
        res = _run([out if a == "{out}" else a for a in argv])
    assert res.exit_code in (0, 2, 3, 4), (argv, res.output)
    assert "Traceback" not in res.output


#: the installed console script, else the package run as a module
_CONSOLE = [shutil.which("hodgeorbit") or sys.executable]
if _CONSOLE[0] == sys.executable:
    _CONSOLE.extend(["-m", "hodgeorbit"])


@given(_cli_argv())
@settings(max_examples=20, deadline=None)
def test_console_script_fuzz_exit_codes_and_no_traceback(argv):
    # a fresh process: exit codes and stderr as a shell sees them
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run(
            _CONSOLE + [out if a == "{out}" else a for a in argv],
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=60,
        )
    assert proc.returncode in (0, 2, 3, 4), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr

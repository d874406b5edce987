import contextlib
import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbox_spectra
from sbox_spectra import cli, closed_forms, spectra
from sbox_spectra.cli import build_parser, load_table_map, main
from sbox_spectra.errors import SpectraError, UnparsableElementError, WrongLengthError
from sbox_spectra.fields import make_field, parse_field_spec
from sbox_spectra.spectra import (
    PowerMap,
    TableMap,
    fbct_property_check,
    sozd_table,
    write_table_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emitted(capsys, obj) -> str:
    """The JSON text the CLI writes for obj."""
    cli._emit(obj)
    return capsys.readouterr().out


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "p=2;n=6", "--power", "11")
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 64
    assert d["modulus"] == [1, 1, 0, 1, 1, 0, 1]
    assert d["power"] == {"d": 11, "gcd": 1, "is_permutation": True}


def test_solve_trinomial(capsys):
    code, out, _ = run(
        capsys, "solve", "trinomial", "--field", "p=2;n=6",
        "--k", "2", "--a", "0x01", "--b", "0x00", "--roots",
    )
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "subspace" and d["count"] == 4
    assert 0 in d["roots"] and len(d["roots"]) == 4


def test_solve_trinomial_unique_root(capsys):
    # x^4 + 2x + 5 over F_{2^6}: x -> x^4 + 2x is one to one
    f = make_field(2, 6)
    code, out, _ = run(capsys, "solve", "trinomial", "--field", "p=2;n=6",
                       "--k", "2", "--a", "0x02", "--b", "0x05")
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "unique" and d["count"] == 1
    roots = [x for x in range(64) if f.add(f.add(f.pow(x, 4), f.mul(2, x)), 5) == 0]
    assert roots == [d["root"]] and d["root_text"] == f.format_element(d["root"])


def test_solve_affine(capsys):
    code, out, _ = run(
        capsys, "solve", "affine", "--field", "p=2;n=4",
        "--coeffs", "1,0,0,0", "--b", "9",
    )
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_spectra_csv_and_properties(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11",
        "--full", "--csv", str(csv), "--check-properties",
    )
    assert code == 0
    d = json.loads(out)
    assert d["uniformity"] == 8 and d["properties"]["ok"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "SOZD,2,6,11"
    assert len(lines) == 65


@pytest.mark.parametrize("kind,field,d,extra", [
    *(pytest.param(kind, field, 11, [], id=f"{kind}-{field}")
      for field in ("p=2;n=6", "p=2;n=6;mod=1,1,0,0,0,0,1", "p=3;n=3")
      for kind in ("ddt", "sozd")),
    *(pytest.param("sozd", field, 11, ["--check-properties"], id=f"sozd-{field}-check-properties")
      for field in ("p=2;n=6", "p=2;n=6;mod=1,1,0,0,0,0,1")),
    # row 0 of the DDT of x^67 over F_{2^8} (q = 256) is wider than row 1;
    # x^3 is not a permutation of F_{2^4}.  The power path writes row 1's
    # cells u = 0 and u = 1 apart from its other tokens, at b = 0 and
    # b = a^scale of line a: over F_2 (q = 2) a line is just those two cells;
    # in every SOZD table line a = q - 1 ends with its u = 1 cell; the DDT of
    # x^19 over F_{2^8} has one wide count in row 1, DDT(1, 1) = 16 (every
    # other is at most 4), as x^67 over F_{2^12} has DDT(1, 1) = 64
    *(pytest.param(kind, field, d, [], id=f"{kind}-{field}-x{d}")
      for field, d, kinds in [("p=2;n=8", 67, ("fbct", "sozd", "ddt")),
                              ("p=2;n=4", 3, ("fbct", "ddt")), ("p=2;n=1", 1, ("fbct", "ddt")),
                              ("p=2;n=1", 3, ("ddt", "sozd")), ("p=3;n=4", 7, ("sozd", "ddt")),
                              ("p=5;n=2", 3, ("sozd", "ddt")), ("p=3;n=5", 7, ("sozd",)),
                              ("p=2;n=8", 19, ("ddt",))]
      for kind in kinds),
])
def test_streamed_csv_equals_bruteforce_csv(tmp_path, capsys, field, kind, d, extra):
    # the power path gathers every line from the text of rows 0 and 1, the
    # brute force formats every kernel row: the bytes must be equal
    outs = []
    for method in ("auto", "bruteforce"):
        csv = tmp_path / f"{method}.csv"
        code, out, _ = run(capsys, "spectra", kind, "--field", field, "--power", str(d),
                           "--full", "--method", method, "--csv", str(csv), *extra)
        assert code == 0
        outs.append((out, csv.read_bytes()))
    assert outs[0] == outs[1]


def test_full_csv_formats_a_power_maps_rows_0_and_1_only(tmp_path, capsys, monkeypatch):
    """`spectra --full --csv` of a power map turns counts into text for its
    rows 0 and 1 only, and a table map's rows are formatted one block of
    rows at a time."""
    calls = []
    count_text = spectra._count_text

    def spy(counts):
        lookup, marks = count_text(counts)
        calls.append(counts.size)
        return lookup, marks

    monkeypatch.setattr(spectra, "_count_text", spy)
    sbox = tmp_path / "sbox.txt"
    sbox.write_text("".join(f"{(5 * x + 3) % 64}\n" for x in range(64)))
    for map_args, formatted in [(["--power", "11"], [64, 62]),  # row 1 less u = 0 and 1
                                (["--table", str(sbox)], [64 * 64])]:  # one block of 64 rows
        calls.clear()
        code, _, _ = run(capsys, "spectra", "fbct", "--field", "p=2;n=6", *map_args,
                         "--full", "--csv", str(tmp_path / "t.csv"))
        assert code == 0 and calls == formatted


def test_bruteforce_check_needs_no_power_rows(tmp_path, capsys, monkeypatch):
    # the reference path checks the kernel's rows, not the fast path's
    outs = []
    for method in ("auto", "bruteforce"):
        if method == "bruteforce":
            monkeypatch.setattr(cli, "power_rows", lambda *args: pytest.fail("power_rows"))
        csv = tmp_path / f"{method}.csv"
        code, out, _ = run(capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11",
                           "--full", "--method", method, "--csv", str(csv), "--check-properties")
        assert code == 0
        outs.append((out, csv.read_bytes()))
    assert outs[0] == outs[1]


def test_bruteforce_check_reads_the_kernel_rows(tmp_path, capsys, monkeypatch):
    kernel_blocks = cli.kernel_blocks

    def row_1_corrupted(field, fmap, kind):
        for a, block in kernel_blocks(field, fmap, kind):
            if a <= 1 < a + len(block):
                block[1 - a, 5] += 2
            yield a, block

    monkeypatch.setattr(cli, "kernel_blocks", row_1_corrupted)
    csv = tmp_path / "t.csv"
    code, out, _ = run(capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11",
                       "--full", "--method", "bruteforce", "--csv", str(csv),
                       "--check-properties")
    assert code == 1
    props = json.loads(out)["properties"]
    assert not props["ok"] and props["counts"]["multiplicity-mod-4"] == 63
    assert {"property": "multiplicity-mod-4", "a": 1, "b": 5} in [
        {k: v[k] for k in ("property", "a", "b")} for v in props["violations"]]
    assert csv.read_text().splitlines()[2].split(",")[5] == "6"  # x^11: FBCT(1, 5) = 4


@pytest.mark.parametrize("argv", [
    ["ddt", "--field", "p=2;n=12", "--power", "67"],
    ["sozd", "--field", "p=3;n=5", "--power", "7"],
    ["sozd", "--field", "p=3;n=5", "--power", "7", "--method", "bruteforce"],
])
def test_check_properties_is_validated_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_table_work(*args):
        pytest.fail("spectrum computed before the parameter check")

    monkeypatch.setattr(spectra, "_sozd_rows", no_table_work)
    monkeypatch.setattr(spectra, "_ddt_rows", no_table_work)
    csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "spectra", *argv, "--full", "--csv", str(csv),
                         "--check-properties")
    assert code == 2 and out == "" and "applies to FBCT tables (p = 2)" in err
    assert not csv.exists()


def test_f2_fbct_check_properties_pass(capsys):
    # every F_2 FBCT entry is 2 = q, on the trivial cells only
    code, out, _ = run(capsys, "spectra", "fbct", "--field", "p=2;n=1", "--power", "3",
                       "--full", "--check-properties")
    d = json.loads(out)
    assert code == 0 and d["properties"]["ok"] and not any(d["properties"]["counts"].values())


def run_within_one_gib(*argv):
    """The CLI in a fresh process whose address space is limited to 1 GiB."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(sbox_spectra.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sbox_spectra", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit_address_space, timeout=300)


def test_full_fbct_f2_14_within_one_gib():
    # q = 2^14: a q x q int64 table alone would take 2 GiB
    proc = run_within_one_gib("spectra", "fbct", "--field", "p=2;n=14", "--power", "67",
                              "--full", "--check-properties")
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["properties"]["ok"]
    assert sum(c for _, c in d["histogram"]) == 4**14


def test_table_map_check_past_memory_exits_2(tmp_path):
    # q = 2^16: the table map's q x q check needs 32 GiB; exit 1 would read
    # as a violated property
    sbox = tmp_path / "sbox16.txt"
    sbox.write_text("".join(f"{i}\n" for i in range(1 << 16)))
    proc = run_within_one_gib("spectra", "fbct", "--field", "p=2;n=16", "--table", str(sbox),
                              "--full", "--check-properties")
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr


def test_memory_error_exits_2(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(cli, "power_rows", no_memory)
    code, out, err = run(capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11", "--full")
    assert code == 2 and out == ""
    assert "error: out of memory: Unable to allocate 32.0 GiB" in err


def test_spectra_deterministic_across_jobs(tmp_path, capsys):
    outs = []
    for jobs in ("1", "8"):
        csv = tmp_path / f"t{jobs}.csv"
        code, _, _ = run(
            capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11",
            "--full", "--csv", str(csv), "--jobs", jobs,
        )
        assert code == 0
        outs.append(csv.read_bytes())
    assert outs[0] == outs[1]


def test_spectra_row_mode(capsys):
    code, out, _ = run(
        capsys, "spectra", "fbct", "--field", "p=2;n=6", "--power", "11", "--row",
    )
    assert code == 0
    d = json.loads(out)
    assert d["uniformity"] == 8 and d["row"] == "a=1"


@pytest.mark.parametrize("kind", ["ddt", "fbct"])
def test_row_mode_reads_row_1_alone(tmp_path, capsys, monkeypatch, kind):
    """--row calls the row kernel for a = 1 and never power_rows, which
    would allocate row 0 only to drop it."""
    f = make_field(2, 10)
    row = spectra.power_rows(f, "ddt" if kind == "ddt" else "sozd", 7)[1]
    monkeypatch.setattr(cli, "power_rows", lambda *args: pytest.fail("power_rows"))
    monkeypatch.setattr(spectra, "power_rows", lambda *args: pytest.fail("power_rows"))
    csv = tmp_path / "row.csv"
    code, out, _ = run(capsys, "spectra", kind, "--field", "p=2;n=10", "--power", "7", "--row",
                       "--csv", str(csv))
    assert code == 0
    assert csv.read_text().splitlines()[1] == ",".join(map(str, row.tolist()))
    assert json.loads(out)["histogram"] == [[int(v), int(c)] for v, c in
                                            zip(*np.unique(row, return_counts=True))]


def test_spectra_table_map_round_trip(tmp_path, capsys):
    f = make_field(2, 4)
    table_file = tmp_path / "identity.txt"
    table_file.write_text("\n".join(str(i) for i in range(16)) + "\n")
    code, out_table, _ = run(
        capsys, "spectra", "sozd", "--field", "p=2;n=4", "--table", str(table_file),
    )
    assert code == 0
    code, out_power, _ = run(
        capsys, "spectra", "sozd", "--field", "p=2;n=4", "--power", "1",
    )
    assert code == 0
    assert json.loads(out_table)["histogram"] == json.loads(out_power)["histogram"]


def test_table_map_check_properties(tmp_path, capsys, monkeypatch):
    # the q x q check of a table map, through the CLI
    f = make_field(2, 6)
    images = np.random.default_rng(15).integers(0, 64, 64).tolist()
    table_file = tmp_path / "sbox.txt"
    table_file.write_text("".join(f"{v}\n" for v in images))
    table = sozd_table(f, TableMap(tuple(images)))
    expected_csv = io.BytesIO()
    write_table_csv(f, "sozd", "table", table.entries, expected_csv)
    argv = ["spectra", "fbct", "--field", "p=2;n=6", "--table", str(table_file), "--full",
            "--check-properties", "--csv"]

    code, out, _ = run(capsys, *argv, str(tmp_path / "clean.csv"))
    assert code == 0
    assert json.loads(out)["properties"] == json.loads(emitted(capsys, fbct_property_check(table)))
    assert (tmp_path / "clean.csv").read_bytes() == expected_csv.getvalue()

    sozd_rows = spectra._sozd_rows

    def cell_3_7_corrupted(field, tab, a):
        block = sozd_rows(field, tab, a)
        block[a == 3, 7] += 1
        return block

    monkeypatch.setattr(spectra, "_sozd_rows", cell_3_7_corrupted)
    code, out, _ = run(capsys, *argv, str(tmp_path / "corrupted.csv"))
    assert code == 1
    props = json.loads(out)["properties"]
    flagged = {v["property"] for v in props["violations"] if (v["a"], v["b"]) == (3, 7)}
    assert flagged == {"symmetry", "multiplicity-mod-4", "translate-equality"}
    lines = (tmp_path / "corrupted.csv").read_text().splitlines()
    assert len(lines) == 65 and int(lines[4].split(",")[7]) == table.entries[3, 7] + 1


@pytest.mark.parametrize("kind,p,n,d,extra", [
    ("fbct", 2, 6, 11, ["--check-properties"]),
    ("sozd", 3, 4, 7, []),
    ("ddt", 3, 4, 7, []),
    ("fbct", 2, 1, 1, ["--check-properties"]),
])
def test_power_map_prints_what_the_same_map_as_a_table_prints(tmp_path, capsys, kind, p, n, d,
                                                              extra):
    """The power path (rows 0 and 1, the row check) and the table path
    (kernel blocks, the block summary, the q x q check) read the domain
    through different code, and print the same summary and report."""
    f = make_field(p, n)
    table_file = tmp_path / "power.txt"
    table_file.write_text("".join(f"{f.pow(x, d)}\n" for x in range(f.order)))
    field = f"p={p};n={n}"
    power = run(capsys, "spectra", kind, "--field", field, "--power", str(d), "--full", *extra)
    table = run(capsys, "spectra", kind, "--field", field, "--table", str(table_file), *extra)
    assert power[0] == table[0] == 0
    assert power[1] == table[1]


def test_load_table_map_errors(tmp_path):
    f = make_field(2, 4)
    short = tmp_path / "short.txt"
    short.write_text("\n".join(str(i) for i in range(15)) + "\n")
    with pytest.raises(WrongLengthError):
        load_table_map(f, str(short))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["zz"] + [str(i) for i in range(15)]) + "\n")
    with pytest.raises(UnparsableElementError):
        load_table_map(f, str(bad))


def test_cli_error_exit_codes(capsys, tmp_path):
    # unparsable field spec: configuration error, exit 2
    code, _, err = run(capsys, "field-info", "--field", "bogus")
    assert code == 2 and "error:" in err
    # fbct over odd characteristic
    code, _, err = run(capsys, "spectra", "fbct", "--field", "p=3;n=2", "--power", "4")
    assert code == 2
    # argparse usage error
    code, _, _ = run(capsys, "spectra", "nosuch", "--field", "p=2;n=4", "--power", "3")
    assert code == 2
    # missing table file
    code, _, _ = run(capsys, "spectra", "sozd", "--field", "p=2;n=4",
                     "--table", str(tmp_path / "absent.txt"))
    assert code == 2
    # a row past the exp/log table cap, inside the element bound
    code, _, err = run(capsys, "spectra", "ddt", "--field", "p=2;n=21", "--power", "7", "--row")
    assert code == 2 and "exp/log tables not built for order 2097152 > 1048576" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["sozd", "--table", "{}/identity.txt"], id="row-of-a-table-map"),
    pytest.param(["fbct", "--power", "3", "--check-properties"], id="row-check-properties"),
])
def test_row_usage_errors_write_nothing(capsys, tmp_path, argv):
    (tmp_path / "identity.txt").write_text("".join(f"{i}\n" for i in range(16)))
    csv = tmp_path / "t.csv"
    code, out, err = run(capsys, "spectra", *[a.format(tmp_path) for a in argv],
                         "--field", "p=2;n=4", "--row", "--csv", str(csv))
    assert code == 2 and out == "" and "error:" in err
    assert not csv.exists()


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t3",
                       "--p", "3", "--k", "1", "--n", "3")
    assert code == 0
    assert json.loads(out)["mismatch_count"] == 0
    code, out, _ = run(capsys, "verify", "--theorem", "t3",
                       "--p", "3", "--k", "1", "--n", "3", "--condition", "stated")
    assert code == 1
    assert json.loads(out)["mismatch_count"] > 0
    code, out, _ = run(capsys, "verify", "--theorem", "t4", "--n", "2")
    assert code == 0


def test_verify_t3_checks_parameters_before_computing(capsys, monkeypatch):
    def no_table_work(*args):
        pytest.fail("spectrum computed before the parameter check")

    monkeypatch.setattr(spectra, "_sozd_rows", no_table_work)
    code, out, err = run(capsys, "verify", "--theorem", "t3", "--p", "3", "--k", "7", "--n", "7")
    assert code == 2 and out == "" and "k=7 outside [1, n)" in err
    code, out, err = run(capsys, "verify", "--theorem", "t3", "--p", "2", "--k", "1", "--n", "5")
    assert code == 2 and out == "" and "needs odd p" in err


@pytest.mark.parametrize("argv,missing", [
    (["--theorem", "t1"], "m"),
    (["--theorem", "t3", "--p", "3", "--k", "1"], "n"),
    (["--theorem", "t4"], "n"),
], ids=["t1", "t3", "t4"])
def test_verify_without_its_parameter_exits_2(capsys, argv, missing):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and f"needs parameter '{missing}'" in err


def test_registry_row_keys_in_order(capsys):
    keys = ["name", "pattern", "p", "n", "d", "params", "expected"]
    rows = json.loads(run(capsys, "registry")[1])["rows"]
    assert all(list(r) == keys for r in rows)
    rows = json.loads(run(capsys, "verify", "--registry", "--max-size", "64")[1])["rows"]
    assert {tuple(r) for r in rows} == {(*keys, "status", "actual"), (*keys, "actual", "status")}
    assert all(list(r)[-2:] == (["status", "actual"] if r["actual"] is None else
                                ["actual", "status"]) for r in rows)


@pytest.mark.parametrize("argv,code", [
    (["--theorem", "t1", "--m", "8"], 1),
    (["--theorem", "t2", "--m", "4"], 1),
    (["--theorem", "t3", "--p", "3", "--k", "1", "--n", "3"], 0),
    (["--theorem", "t3", "--p", "3", "--k", "1", "--n", "3", "--condition", "stated"], 1),
    (["--theorem", "t4", "--n", "4"], 0),
], ids=["t1-m8", "t2-m4", "t3-exact", "t3-stated", "t4-n4"])
def test_verify_makes_no_scalar_prediction(capsys, monkeypatch, argv, code):
    # verification reads each claim's vectorised encoding on rows 0 and 1
    def no_scalar_prediction(*args):
        pytest.fail("scalar predictor called during verification")

    for name in ("predict_fbct_2m3", "predict_fbct_2m5", "predict_sozd_pk1", "predict_ddt_x4_f3n"):
        monkeypatch.setattr(closed_forms, name, no_scalar_prediction)
        monkeypatch.setattr(sbox_spectra, name, no_scalar_prediction)
    assert run(capsys, "verify", *argv)[0] == code


def test_verify_t1_m8_within_two_gib():
    # q = 2^16: a q x q table would take 32 GiB, rows 0 and 1 take O(q)
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(sbox_spectra.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sbox_spectra", "verify", "--theorem", "t1", "--m", "8"],
        capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    d = json.loads(proc.stdout)
    assert d["matches"] + d["mismatch_count"] == 2**32
    assert d["uniformity_actual"] == 256


def test_verify_t2_m3_flags_agreement(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--theorem", "t2", "--m", "3",
                       "--json", str(path))
    d = json.loads(out)
    assert d["agrees"] is True and d["uniformity_actual"] == 8
    assert code == 0
    assert json.loads(path.read_text()) == d


def test_verify_registry_reports_known_defects(capsys):
    code, out, _ = run(capsys, "verify", "--registry", "--max-size", "256")
    d = json.loads(out)
    # the three defective published rows are all within this bound
    assert code == 1
    bad = {(r["name"], r["n"]) for r in d["rows"] if r["status"] == "mismatch"}
    assert bad == {("inverse", 5), ("x7-char2", 5), ("x5-oddp", 2)}


@pytest.mark.parametrize("kind", ["sozd", "ddt"])
def test_odd_p_row_above_2048_elements(capsys, kind):
    code, out, _ = run(capsys, "spectra", kind, "--field", "p=3;n=7", "--power", "7", "--row")
    assert code == 0
    d = json.loads(out)
    assert sum(c for _, c in d["histogram"]) == 3**7


def test_spectra_row_over_a_large_prime_field(tmp_path, capsys):
    # p >= 2^15: a digit does not fit in int16
    p, csv = 40009, tmp_path / "row.csv"
    code, _, _ = run(capsys, "spectra", "sozd", "--field", f"p={p};n=1;mod=0,1", "--power", "3",
                     "--row", "--csv", str(csv))
    assert code == 0
    row = [int(c) for c in csv.read_text().splitlines()[1].split(",")]
    assert len(row) == p
    for b in (0, 1, 2, 20000, p - 1):  # SOZD(1, b) of x^3 from its definition
        assert row[b] == sum(
            (pow(x + 1 + b, 3, p) - pow(x + 1, 3, p) - pow(x + b, 3, p) + pow(x, 3, p)) % p == 0
            for x in range(p))


def test_verify_t4_over_f3_7(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t4", "--n", "7")
    assert code == 0
    assert json.loads(out)["uniformity_actual"] == 1


# sha256 of stdout, recorded when each report still had a hand-written dict
# builder: key order and layout are part of the output, which json.loads
# alone does not see
PINNED_STDOUT = [
    ('spectra fbct --field "p=2;n=6" --power 11 --full --check-properties', 0,
     "74f63c1e6390d8f8c05179cb7b360906d4de03a848096c6ce0648cb7c7a64e14"),
    ('spectra ddt --field "p=3;n=3" --power 4 --row', 0,
     "d21f53c43022613f6e0de964842db9b530d7eb7967fc416d9f72387ab39a99d3"),
    ("verify --theorem t1 --m 4", 1,
     "86d4a0ec94c14da5d28ccae5189e2ffb06b76fe1cc15ae188082a949aad5436d"),
    ("verify --theorem t3 --p 3 --k 1 --n 3 --condition stated", 1,
     "1968e94a84c465c301afcba3b3daac4c3e3817976c91049833cd71bbcf9693f9"),
    ("verify --registry --max-size 64", 1,  # skipped and computed rows
     "1953f9fd1633ac9235f0620f61c0a537cbcccc9f274bc489dcd9fc3b8c370025"),
    ("registry", 0,
     "0670c6adf80dd9e3c2ccc1e1d30c9d4eb90911473310027c60f0834f983bb72d"),
]


@pytest.mark.parametrize("command,code,digest", PINNED_STDOUT,
                         ids=[c for c, _, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, command, code, digest):
    got, out, _ = run(capsys, *shlex.split(command))
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the CSV, recorded before a power map's row 1 cells u = 0 and
# u = 1 were written apart from its other tokens
PINNED_CSV = [
    ('spectra fbct --field "p=2;n=10" --power 67 --full --check-properties', 0,
     "db8981e82b56627446a7bd29d21af7417cdab73d4a1faeacf29e4906e20885c1"),
    ('spectra ddt --field "p=2;n=10" --power 67 --full', 0,
     "e77e49eb9d2d55e081ac4ac4309ab7e98147b2cf0e277a4d1256ab23b40dd007"),
    ('spectra sozd --field "p=3;n=6" --power 7 --full', 0,
     "9b7c39e87dfa3446c4bbe6088bc5617c697a3f7fd6d99a89f64571af87c184d3"),
]


@pytest.mark.parametrize("command,code,digest", PINNED_CSV, ids=[c for c, _, _ in PINNED_CSV])
def test_csv_bytes_are_pinned(tmp_path, capsys, command, code, digest):
    csv = tmp_path / "t.csv"
    got, _, _ = run(capsys, *shlex.split(command), "--csv", str(csv))
    assert got == code
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


def write_syscalls() -> int:
    """The write syscalls this process has made (syscw of /proc/self/io)."""
    with open("/proc/self/io") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("syscw:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_csv_reaches_the_kernel_in_256_kib_writes(tmp_path):
    """The 2.1 MB FBCT CSV of x^35 over F_{2^10} goes out in a few writes
    of 2^18 bytes, not one write per line (1025)."""
    csv = tmp_path / "t.csv"
    argv = ["spectra", "fbct", "--field", "p=2;n=10", "--power", "35", "--full",
            "--csv", str(csv)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        before = write_syscalls()
        code = main(argv)
        writes = write_syscalls() - before
    assert code == 0
    assert writes <= 2 * -(-csv.stat().st_size // (1 << 18)) + 4


FBCT_X35 = ["spectra", "fbct", "--field", "p=2;n=10", "--power", "35", "--full"]


def fresh_csv(tmp_path, argv) -> bytes:
    path = tmp_path / "fresh.csv"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--csv", str(path)]) == 0
    return path.read_bytes()


def test_csv_over_a_longer_file_is_a_fresh_write(tmp_path, capsys):
    """--csv truncates an existing file on open: over a longer file it
    leaves exactly the bytes of a fresh write, no tail of the old file."""
    csv = tmp_path / "t.csv"
    code, _, _ = run(capsys, *FBCT_X35, "--csv", str(csv))
    assert code == 0
    code, _, _ = run(capsys, "spectra", "fbct", "--field", "p=2;n=8", "--power", "67", "--full",
                     "--csv", str(csv))
    assert code == 0
    want = fresh_csv(tmp_path, ["spectra", "fbct", "--field", "p=2;n=8", "--power", "67",
                                "--full"])
    assert csv.read_bytes() == want and len(want) < 2**21


def test_csv_to_the_null_device(capsys):
    code, out, _ = run(capsys, *FBCT_X35, "--csv", os.devnull)
    assert code == 0 and json.loads(out)["histogram"]


def _run_to(stdout, *argv):
    """argv run in a fresh interpreter whose stdout is `stdout` (an open
    file, or subprocess.PIPE), its stderr captured."""
    src = os.path.dirname(os.path.dirname(sbox_spectra.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sbox_spectra", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_csv_on_the_regular_file_of_stdout_exits_2(tmp_path):
    """`--csv /dev/stdout > out.txt` would write the JSON report over the CSV:
    it is refused before the file is opened, and so is the file's own path."""
    out = tmp_path / "out.txt"
    for path in ("/dev/stdout", str(out)):
        with open(out, "wb") as fh:
            proc = _run_to(fh, "spectra", "fbct", "--field", "p=2;n=4", "--power", "3", "--full",
                           "--csv", path)
        assert proc.returncode == 2, proc.stderr
        assert b"stdout" in proc.stderr and out.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_csv_on_a_pipe_of_stdout_is_written(tmp_path):
    """A pipe on stdout is no regular file: the CSV goes down it, then the
    JSON report."""
    argv = ["spectra", "fbct", "--field", "p=2;n=4", "--power", "3", "--full"]
    proc = _run_to(subprocess.PIPE, *argv, "--csv", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    csv = fresh_csv(tmp_path, argv)
    assert proc.stdout.startswith(csv)
    assert json.loads(proc.stdout[len(csv):])["histogram"]


def test_a_writer_that_raises_leaves_only_the_bytes_it_wrote(tmp_path, capsys, monkeypatch):
    """An exception mid-table still flushes the file on close: it ends at
    the header and row 0, the bytes written before row 1's formatter
    raised, with no tail of the longer file it was written over."""
    csv = tmp_path / "t.csv"
    csv.write_bytes(b"9," * 10**6 + b"\n")
    count_text = spectra._count_text

    def fail_on_row_1(counts):
        if counts.size != 1024:
            raise SpectraError("formatter failed")
        return count_text(counts)

    monkeypatch.setattr(spectra, "_count_text", fail_on_row_1)
    code, _, err = run(capsys, *FBCT_X35, "--csv", str(csv))
    assert code == 2 and "formatter failed" in err
    monkeypatch.undo()
    head = b"".join(fresh_csv(tmp_path, FBCT_X35).splitlines(keepends=True)[:2])
    assert csv.read_bytes() == head and head.startswith(b"SOZD,2,10,35\n1024,")


def test_property_report_with_violations_bytes_are_pinned(capsys):
    table = sozd_table(make_field(2, 6), PowerMap(11))
    e = table.entries
    e[3, 5] += 1  # symmetry, multiplicity and translate
    e[0, 7] = 0  # a fixed value in row 0
    e[9, 9] = 2  # a fixed value at b = a
    e[12, 40] += 4  # symmetry and translate only
    report = fbct_property_check(table)
    assert report.counts == {"symmetry": 6, "fixed-values": 2, "multiplicity-mod-4": 1,
                             "translate-equality": 6}
    assert len(report.violations) == 15
    assert hashlib.sha256(emitted(capsys, report).encode()).hexdigest() == (
        "41af69adfdc86aeaa8b33fee5dfee6b96adde2b81985034539af1c8d0b6b8275")


def test_registry_listing(capsys):
    code, out, _ = run(capsys, "registry")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {"name", "pattern", "p", "n", "d", "expected"} <= set(rows[0])
    assert len(rows) == 55


# (argv after "spectra", the canonical line it prints); "{}" is the test's
# directory, which holds sbox.txt, a 16-entry permutation S-box
CANONICAL_RUNS = [
    pytest.param(
        ["fbct", "--field", "p=2;n=6", "--power", "11", "--csv", "{}/out.csv",
         "--check-properties"],
        ["fbct", "--field", "p=2;n=6;mod=1,1,0,1,1,0,1", "--power", "11", "--full",
         "--method", "auto", "--jobs", "1", "--csv", "{}/out.csv", "--check-properties"],
        id="fbct-power-defaults-csv-check"),
    pytest.param(
        ["ddt", "--field", "p=3;n=2", "--power", "4", "--row", "--method", "bruteforce",
         "--jobs", "4", "--csv", "{}/out.csv"],
        ["ddt", "--field", "p=3;n=2;mod=2,2,1", "--power", "4", "--row",
         "--method", "bruteforce", "--jobs", "4", "--csv", "{}/out.csv"],
        id="ddt-power-row-bruteforce-jobs4-csv"),
    pytest.param(
        ["sozd", "--field", "p=3;n=3", "--power", "5", "--jobs", "4", "--method", "auto"],
        ["sozd", "--field", "p=3;n=3;mod=1,2,0,1", "--power", "5", "--full",
         "--method", "auto", "--jobs", "4"],
        id="sozd-power-auto-jobs4"),
    pytest.param(
        ["ddt", "--field", "p=2;n=5", "--power", "7", "--row"],
        ["ddt", "--field", "p=2;n=5;mod=1,0,1,0,0,1", "--power", "7", "--row",
         "--method", "auto", "--jobs", "1"],
        id="ddt-power-row-auto"),
    pytest.param(
        ["sozd", "--field", "p=2;n=4", "--table", "{}/sbox.txt", "--full", "--csv",
         "{}/out.csv"],
        ["sozd", "--field", "p=2;n=4;mod=1,1,0,0,1", "--table", "{}/sbox.txt", "--full",
         "--method", "auto", "--jobs", "1", "--csv", "{}/out.csv"],
        id="sozd-table-csv"),
    pytest.param(
        ["fbct", "--field", "p=2;n=4;mod=1,1,0,0,1", "--check-properties", "--table",
         "{}/sbox.txt", "--method", "bruteforce", "--jobs", "4"],
        ["fbct", "--field", "p=2;n=4;mod=1,1,0,0,1", "--table", "{}/sbox.txt", "--full",
         "--method", "bruteforce", "--jobs", "4", "--check-properties"],
        id="fbct-table-bruteforce-jobs4-check"),
]


@pytest.mark.parametrize("argv,canonical", CANONICAL_RUNS)
def test_canonical_command_reproduces_the_run(tmp_path, capsys, argv, canonical):
    # the first stderr line spells out every option in one order; parsing it
    # gives the same line back, and running it again the same stdout and CSV
    (tmp_path / "sbox.txt").write_text("".join(f"{(5 * x + 3) % 16}\n" for x in range(16)))
    argv = [a.format(tmp_path) for a in argv]
    code, out, err = run(capsys, "spectra", *argv)
    assert code == 0, err
    line = err.splitlines()[0]
    assert line == "# " + shlex.join(["spectra", *(a.format(tmp_path) for a in canonical)])
    args = build_parser().parse_args(shlex.split(line[2:]))
    assert cli._canonical_command(args, parse_field_spec(args.field)) == line[2:]
    csv = tmp_path / "out.csv"
    csv_bytes = csv.read_bytes() if "--csv" in argv else None
    if csv_bytes is not None:
        csv.unlink()
    again = run(capsys, *shlex.split(line[2:]))
    assert (again[0], again[1], again[2].splitlines()[0]) == (code, out, line)
    assert (csv.read_bytes() if csv.exists() else None) == csv_bytes


def run_alone(argv):
    """Exit code and stdout bytes of argv run alone, in a fresh interpreter."""
    proc = _run_to(subprocess.PIPE, *argv)
    return proc.returncode, proc.stdout


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # one parser serves every main call of the process; each call must write
    # what the same argv writes alone
    assert build_parser() is build_parser()
    power = ["--field", "p=2;n=6", "--power", "11"]
    runs = [
        ["spectra", "fbct", *power, "--row", "--csv", "{}/row.csv"],
        ["spectra", "fbct", *power, "--full", "--csv", "{}/full.csv"],
        ["spectra", "fbct", *power, "--full", "--check-properties", "--csv", "{}/props.csv"],
        ["spectra", "fbct", *power, "--full", "--csv", "{}/plain.csv"],
        ["verify", "--theorem", "t4", "--n", "3"],
        ["spectra", "ddt", "--field", "p=2;n=6", "--row"],  # usage error: no map
        ["verify", "--theorem", "t4", "--n", "3"],
        ["spectra", "sozd", "--field", "p=3;n=3", "--power", "7", "--full", "--csv", "{}/odd.csv"],
    ]
    for name in ("in", "alone"):
        (tmp_path / name).mkdir()
    results = {"in": [], "alone": []}
    for argv in runs:
        code = main([a.format(tmp_path / "in") for a in argv])
        results["in"].append((code, capsys.readouterr().out.encode()))
        results["alone"].append(run_alone([a.format(tmp_path / "alone") for a in argv]))
    assert [code for code, _ in results["in"]] == [0, 0, 0, 0, 0, 2, 0, 0]
    assert results["in"] == results["alone"]
    csvs = sorted(p.name for p in (tmp_path / "in").iterdir())
    assert csvs == ["full.csv", "odd.csv", "plain.csv", "props.csv", "row.csv"]
    for csv in csvs:
        assert (tmp_path / "in" / csv).read_bytes() == (tmp_path / "alone" / csv).read_bytes()


# -- the JSON writer: json.dumps(obj, indent=2, default=vars)'s text ---------------------

def _stdlib_text(obj) -> str:
    return json.dumps(obj, indent=2, default=vars)


_TRICKY_TEXT = st.text(alphabet=st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t aé €\U0001f600'))
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
_SCALAR_VALUES = (st.text() | _TRICKY_TEXT | st.integers() | st.integers(-10**40, 10**40)
                  | st.booleans() | st.none() | _FLOATS)
_KEYS = st.text() | _TRICKY_TEXT | st.integers() | st.booleans() | st.none() | _FLOATS
_REPORTS = (
    st.builds(spectra.PropertyViolation, st.text(), st.integers(), st.integers(), _TRICKY_TEXT)
    | st.builds(spectra.SpectrumSummary, st.integers(),
                st.lists(st.tuples(st.integers(), st.integers())).map(tuple), st.text())
)
_JSON_VALUES = st.recursive(
    _SCALAR_VALUES | _REPORTS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text() | st.integers(), inner)
                   | st.dictionaries(_KEYS, inner)
                   | st.builds(spectra.PropertyReport, st.booleans(),
                               st.dictionaries(st.text(), st.integers()), st.lists(inner))),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_is_the_stdlib_text(obj):
    assert cli._json(obj) == _stdlib_text(obj)


def test_json_writer_on_each_report_type(capsys, tmp_path):
    """One instance of each report the CLI writes, and the --json file."""
    f = make_field(2, 6)
    row = spectra.power_rows(f, "sozd", 11)[1]
    table = sozd_table(f, PowerMap(11))
    table.entries[3, 5] += 1
    report = closed_forms.verify_fbct_2m5(3)
    report.mismatches = [[1, 9, [0, 16], 20], [2, 3, 4, 8]]  # a bound is listed as [lo, hi]
    assert report.extras["value_histogram"]  # int keys
    objs = [spectra.power_row_summary(f, "sozd", row), fbct_property_check(table), report,
            closed_forms.verify_registry(max_size=64), {"rows": closed_forms.registry_cases()}]
    assert objs[1].violations
    for obj in objs:
        assert emitted(capsys, obj) == _stdlib_text(obj) + "\n"
    path = tmp_path / "t1.json"
    code, out, _ = run(capsys, "verify", "--theorem", "t1", "--m", "3", "--json", str(path))
    assert code == 1 and out == path.read_text() == _stdlib_text(json.loads(out)) + "\n"


@pytest.mark.parametrize("argv,module,spied", [
    (["verify", "--theorem", "t1", "--m", "3"], closed_forms, "power_rows"),
    (["verify", "--registry"], closed_forms, "sozd_row_power"),
    (["registry"], cli, "registry_cases"),
], ids=["verify-t1", "verify-registry", "registry"])
def test_unopenable_json_path_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv,
                                                      module, spied):
    """--json is opened first, as a shell redirect would be: a path that
    cannot be opened exits 2 with nothing on stdout and nothing computed."""
    calls = []
    real = getattr(module, spied)
    monkeypatch.setattr(module, spied, lambda *a, **k: calls.append(a) or real(*a, **k))
    code, out, err = run(capsys, *argv, "--json", str(tmp_path / "missing" / "x.json"))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error:")

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria assert the published per-entry values verbatim.  Three of them
(C1, C2, C3) are contradicted by the exhaustive brute-force computation this
suite itself performs: the degenerate / subfield-coset / cube classes match
the published closed forms exactly, but the residual class, where the
published case analysis proves only an upper bound, splits between 0 and
that bound.  Those tests fail by design rather than encode values the
computation refutes; the failure detail carries the verified distribution.
The same applies to two registry rows in C7 (inverse map at odd n, x^5 over
F_25).  See test_closed_forms.py for the package's own frozen-truth tests.
"""

import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from sbox_spectra import (
    PowerMap,
    TableMap,
    affine_root_count,
    ddt_table,
    differential_uniformity,
    fbct_property_check,
    make_field,
    solve_linearized_trinomial,
    solve_quadratic,
    sozd_table,
    sozd_uniformity,
    verify_fbct_2m5,
    verify_registry,
    verify_sozd_pk1,
    write_table_csv,
)
from sbox_spectra.closed_forms import (
    predicted_fbct_2m3_table,
    predicted_fbct_2m5_table,
    predicted_sozd_pk1_table,
)


def report(cid, ok, desc, detail="", elapsed=None):
    line = f"[{cid}] {'PASS' if ok else 'FAIL'} {desc}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, f"{cid}: {desc} :: {detail}"


def hist(entries):
    return dict(Counter(np.asarray(entries).ravel().tolist()))


@pytest.fixture(scope="module")
def x11_brute():
    f = make_field(2, 6)
    return f, sozd_table(f, PowerMap(11), method="bruteforce")


@pytest.fixture(scope="module")
def x13_table():
    f = make_field(2, 6)
    return f, sozd_table(f, PowerMap(13), method="bruteforce")


@pytest.fixture(scope="module")
def x19_tables():
    f = make_field(2, 8)
    t0 = time.time()
    fast = sozd_table(f, PowerMap(19), method="auto")
    fast_elapsed = time.time() - t0
    t0 = time.time()
    brute = sozd_table(f, PowerMap(19), method="bruteforce")
    brute_elapsed = time.time() - t0
    return f, fast, brute, fast_elapsed, brute_elapsed


@pytest.fixture(scope="module")
def x21_table():
    f = make_field(2, 8)
    return f, sozd_table(f, PowerMap(21))


@pytest.fixture(scope="module")
def x37_table():
    f = make_field(2, 10)
    return f, sozd_table(f, PowerMap(37))


def test_c01_fbct_x11_exact_reproduction(x11_brute):
    t0 = time.time()
    f, table = x11_brute
    predicted = predicted_fbct_2m3_table(f)
    mismatches = int((table.entries != predicted).sum())
    h = hist(table.entries)
    elapsed = time.time() - t0
    expected_hist = {64: 190, 8: 378, 4: 3528}
    ok = mismatches == 0 and h == expected_hist and elapsed < 1.0
    report(
        "C1", ok,
        "FBCT of x^11 over F_2^6 matches the per-entry closed form "
        "(64@190 / 8@378 / 4@3528)",
        detail=f"mismatches={mismatches}, histogram={h}",
        elapsed=elapsed,
    )


def test_c02_fbct_x19_exact_reproduction(x19_tables):
    f, fast, brute, fast_elapsed, brute_elapsed = x19_tables
    same = np.array_equal(fast.entries, brute.entries)
    predicted = predicted_fbct_2m3_table(f)
    mismatches = int((brute.entries != predicted).sum())
    h = hist(brute.entries)
    expected_hist = {256: 766, 16: 3570, 4: 61200}
    ok = (
        same and mismatches == 0 and h == expected_hist
        and fast_elapsed < 1.0 and brute_elapsed < 30.0
    )
    report(
        "C2", ok,
        "FBCT of x^19 over F_2^8: fast path == brute-force oracle and values "
        "exactly 256/16/4",
        detail=(
            f"fast==brute: {same}, mismatches={mismatches}, histogram={h}, "
            f"fast {fast_elapsed:.2f}s, oracle {brute_elapsed:.2f}s"
        ),
    )


def test_c03_fbct_2m5_examples(x21_table, x37_table):
    t0 = time.time()
    f8, t21 = x21_table
    f10, t37 = x37_table
    pred21, iv21 = predicted_fbct_2m5_table(f8)
    pred37, iv37 = predicted_fbct_2m5_table(f10)
    assert not iv21.any() and not iv37.any()  # m >= 4: all predictions exact
    mm21 = int((t21.entries != pred21).sum())
    mm37 = int((t37.entries != pred37).sum())
    elapsed = time.time() - t0
    ok = mm21 == 0 and mm37 == 0 and elapsed < 10.0
    report(
        "C3", ok,
        "x^21/F_2^8 (256/16/0) and x^37/F_2^10 (1024/32/16/4) match the "
        "per-entry closed form",
        detail=(
            f"m=4 mismatches={mm21} values={sorted(hist(t21.entries))}, "
            f"m=5 mismatches={mm37} values={sorted(hist(t37.entries))}"
        ),
        elapsed=elapsed,
    )


def test_c04_m3_anomaly_probe(x13_table, tmp_path):
    t0 = time.time()
    f, table = x13_table
    rerun = verify_fbct_2m5(3)
    actual_max = sozd_uniformity(table).uniformity
    recorded = tmp_path / "sozd_x13_f2_6.csv"
    with open(recorded, "wb") as fh:
        write_table_csv(f, table.kind, table.map_label, table.entries, fh)
    elapsed = time.time() - t0
    ok = (
        rerun.uniformity_actual == actual_max
        and rerun.uniformity_claimed == 8
        and rerun.agrees == (actual_max == 8)
        and "value_histogram" in rerun.extras
        and recorded.stat().st_size > 0
    )
    report(
        "C4", ok,
        "x^13 over F_2^6 probe: report records the actual maximum and flags "
        "agreement with the claimed 8",
        detail=(
            f"actual max={actual_max}, claimed=8, "
            f"flag={'agree' if rerun.agrees else 'disagree'}, "
            f"histogram={rerun.extras['value_histogram']}"
        ),
        elapsed=elapsed,
    )


def test_c05_pk1_entries_match_vanishing_condition():
    t0 = time.time()
    cases = [(3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2), (5, 1, 3), (7, 1, 2)]
    failures = []
    discrepancy_sizes = {}
    for p, k, n in cases:
        f = make_field(p, n)
        table = sozd_table(f, PowerMap(p**k + 1), method="bruteforce")
        values = set(np.unique(table.entries).tolist())
        if not values <= {0, p**n}:
            failures.append((p, k, n, "values", sorted(values)))
        predicted = predicted_sozd_pk1_table(f, k, "exact")
        mm = int((table.entries != predicted).sum())
        if mm:
            failures.append((p, k, n, "mismatches", mm))
        stated = verify_sozd_pk1(p, k, n, condition="stated")
        discrepancy_sizes[(p, k, n)] = stated.extras["stated_vs_exact_discrepancies"]
    elapsed = time.time() - t0
    ok = not failures and elapsed < 5.0
    report(
        "C5", ok,
        "x^(p^k+1) spectra: every entry is p^n or 0 and equals the vanishing "
        "condition on all pairs; stated-condition discrepancy sets emitted",
        detail=f"failures={failures}, stated-condition discrepancies={discrepancy_sizes}",
        elapsed=elapsed,
    )


def test_c06_ddt_x4_f3n():
    t0 = time.time()
    failures = []
    for n in (1, 2, 3, 4, 5):
        f = make_field(3, n)
        table = ddt_table(f, PowerMap(4))
        u = differential_uniformity(f, table=table).uniformity
        want = 1 if n % 2 else 3
        if u != want:
            failures.append((n, "uniformity", u, want))
        if n % 2 and not (table.entries[1:, :] == 1).all():
            failures.append((n, "permutation-rows", False))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 5.0
    report(
        "C6", ok,
        "DDT of x^4 over F_3^n: uniformity 1 for n in {1,3,5}, 3 for n in "
        "{2,4}; odd-n rows are permutation rows",
        detail=f"failures={failures}",
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def registry_report():
    t0 = time.time()
    rep = verify_registry(max_size=1024)
    return rep, time.time() - t0


NAMED_ROWS = [
    ("inverse", 2, 5, 2),
    ("inverse", 2, 6, 4),
    ("gold", 2, 6, 64),
    ("x7-char2", 2, 6, 4),
    ("x7-char3", 3, 3, 3),
    ("x5-oddp", 5, 2, 3),
    ("x3-oddp", 5, 2, 1),
    ("x4-oddp", 5, 2, 2),
]


@pytest.mark.parametrize("name,p,n,expected", NAMED_ROWS,
                         ids=[f"{r[0]}-p{r[1]}n{r[2]}" for r in NAMED_ROWS])
def test_c07_registry_named_rows(registry_report, name, p, n, expected):
    rep, _ = registry_report
    row = next(
        r for r in rep.rows
        if r["name"] == name and r["p"] == p and r["n"] == n
        and (name != "gold" or r["params"].get("k") == 2)
    )
    ok = row["status"] == "match" and row["expected"] == expected
    report(
        "C7", ok,
        f"registry row {name} over F_{p}^{n} matches published value {expected}",
        detail=f"computed={row['actual']}",
    )


def test_c07_registry_at_least_eight_rows(registry_report):
    rep, elapsed = registry_report
    ok = rep.matched >= 8 and elapsed < 60.0
    report(
        "C7", ok,
        "registry: at least 8 instantiated rows match the published values",
        detail=f"matched={rep.matched}, mismatched={rep.mismatched}, skipped={rep.skipped}",
        elapsed=elapsed,
    )


def test_c08_solver_oracle_equivalence():
    t0 = time.time()
    failures = 0
    # trinomial solver vs exhaustive evaluation, all (k, a != 0, b), n = 2..8
    for n in range(2, 9):
        f = make_field(2, n)
        N = f.order
        xs = f.xs()
        for k in range(n):
            frob = f.pow_vec(xs, 1 << k)
            for a in range(1, N):
                counts = np.bincount(frob ^ f.mul_vec(np.int64(a), xs), minlength=N)
                for b in range(N):
                    res = solve_linearized_trinomial(f, k, a, b)
                    if res.count != counts[b]:
                        failures += 1
    trinomial_elapsed = time.time() - t0

    # affine root counter vs exhaustive evaluation, >= 1000 random instances
    t1 = time.time()
    rng = np.random.default_rng(20240810)
    for n in range(2, 7):
        f = make_field(2, n)
        xs = f.xs()
        frobs = [f.pow_vec(xs, 1 << i) for i in range(n)]
        for _ in range(200):
            coeffs = [int(rng.integers(0, f.order)) for _ in range(n)]
            b = int(rng.integers(0, f.order))
            acc = np.full(f.order, b, dtype=np.int64)
            for i, c in enumerate(coeffs):
                acc ^= f.mul_vec(np.int64(c), frobs[i])
            if affine_root_count(f, coeffs, b) != int(np.count_nonzero(acc == 0)):
                failures += 1
    affine_elapsed = time.time() - t1

    # quadratic solver vs exhaustive evaluation, all instances
    t2 = time.time()
    for p, n in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 2)):
        f = make_field(p, n)
        N = f.order
        xs = f.xs()
        for a2 in range(1, N):
            for a1 in range(N):
                vals = f.add_vec(
                    f.mul_vec(np.int64(a2), f.mul_vec(xs, xs)),
                    f.mul_vec(np.int64(a1), xs),
                )
                counts = np.bincount(vals, minlength=N)
                for a0 in range(N):
                    res = solve_quadratic(f, a2, a1, a0)
                    if res.count != counts[f.neg(a0)]:
                        failures += 1
    quad_elapsed = time.time() - t2
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 120.0
    report(
        "C8", ok,
        "solver oracle equivalence: trinomial (n=2..8, all k,a,b), affine "
        "(1000 random), quadratic (all instances, F_3^n n<=4 and F_5^2)",
        detail=(
            f"failures={failures}; trinomial {trinomial_elapsed:.1f}s, "
            f"affine {affine_elapsed:.1f}s, quadratic {quad_elapsed:.1f}s"
        ),
        elapsed=elapsed,
    )


def test_c09_structural_properties(x11_brute, x13_table, x19_tables, x21_table, x37_table):
    t0 = time.time()
    tables = [x11_brute[1], x13_table[1], x19_tables[1], x21_table[1], x37_table[1]]
    violations = {}
    for t in tables:
        r = fbct_property_check(t)
        if not r.ok:
            violations[f"power-{t.map_label}-n{t.field.n}"] = r.counts
    f25 = make_field(2, 5)
    rng = np.random.default_rng(9)
    for i in range(20):
        tm = TableMap(tuple(int(v) for v in rng.integers(0, 32, 32)))
        r = fbct_property_check(sozd_table(f25, tm))
        if not r.ok:
            violations[f"random-{i}"] = r.counts
    elapsed = time.time() - t0
    ok = not violations
    report(
        "C9", ok,
        "structural FBCT identities hold with zero violations on all computed "
        "tables and 20 random 5-bit S-boxes",
        detail=f"violations={violations}",
        elapsed=elapsed,
    )


def test_c10_byte_deterministic_csv(tmp_path):
    t0 = time.time()
    blobs = []
    for jobs in ("1", "8"):
        path = tmp_path / f"c1-jobs{jobs}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "sbox_spectra", "spectra", "fbct",
                "--field", "p=2;n=6", "--power", "11", "--full",
                "--method", "bruteforce", "--csv", str(path), "--jobs", jobs,
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(path.read_bytes())
    elapsed = time.time() - t0
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(
        "C10", ok,
        "criterion-1 CSV byte-identical across --jobs 1 and --jobs 8",
        detail=f"{len(blobs[0])} bytes",
        elapsed=elapsed,
    )

#!/usr/bin/env python3
"""Recompute every closed-form cross-check at desk scale and print a summary.

Runs the four verification families (x^(2^m+3) and x^(2^m+5) over F_{2^2m},
x^(p^k+1) over odd characteristic, the DDT of x^4 over F_{3^n}) and the full
registry, printing claimed-versus-computed uniformities and the per-entry
mismatch counts.  Mismatch counts greater than zero flag places where a
published per-entry value is only an upper bound (or plain wrong); the
uniformity column is the headline claim.

Usage: python scripts/reproduce_results.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbox_spectra import (  # noqa: E402
    verify_ddt_x4,
    verify_fbct_2m3,
    verify_fbct_2m5,
    verify_registry,
    verify_sozd_pk1,
)


def line(report):
    flag = "agree" if report.agrees else "DISAGREE"
    print(
        f"  {report.target} {report.params}: uniformity {report.uniformity_actual} "
        f"(claimed {report.uniformity_claimed}, {flag}); "
        f"per-entry mismatches {report.mismatch_count} of "
        f"{report.matches + report.mismatch_count}"
    )


def main():
    t0 = time.time()

    print("x^(2^m+3) family:")
    for m in (3, 4, 5):
        line(verify_fbct_2m3(m))

    print("x^(2^m+5) family:")
    for m in (3, 4, 5):
        line(verify_fbct_2m5(m))

    print("x^(p^k+1) family (vanishing condition):")
    for p, k, n in ((3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2), (5, 1, 3), (7, 1, 2)):
        rep = verify_sozd_pk1(p, k, n)
        line(rep)
        print(
            f"      stated-condition discrepancies: "
            f"{rep.extras['stated_vs_exact_discrepancies']}"
        )

    print("DDT of x^4 over F_3^n:")
    for n in (1, 2, 3, 4, 5):
        line(verify_ddt_x4(n))

    print("registry:")
    reg = verify_registry(max_size=1024)
    for row in reg.rows:
        mark = {"match": "ok      ", "mismatch": "MISMATCH", "skipped": "skipped "}[
            row["status"]
        ]
        actual = "-" if row["actual"] is None else row["actual"]
        print(
            f"  {mark} {row['name']:16s} d={row['d']:<5d} F_{row['p']}^{row['n']}"
            f"  expected {row['expected']:<5d} computed {actual}"
        )
    print(
        f"registry totals: {reg.matched} matched, {reg.mismatched} mismatched, "
        f"{reg.skipped} skipped"
    )
    print(f"total time {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

"""The four workloads: inputs made from the seed, the operations of one
round, the result entries each operation yields, and the output checks.

Every check compares the program's output with `gfref`, which shares no
code with the program.  Checks run after timing ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gfref

SAMPLES = 256  # seeded (a, b) cells recomputed from the definition per CSV
# x^10 + x^3 + 1: primitive, and not the Conway polynomial of F_{2^10}
ALT_MODULUS_2_10 = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
REGISTRY_MAX_SIZE = 1024  # the CLI's default --max-size for verify --registry

# Operation groups that fail on every run because of one fault: the odd-p
# kernels in spectra.py need the q x q Field.add_matrix, capped at 2048
# elements, so F_{3^7} (2187 elements) exits 2 although it is far below the
# 2^24 field bound.
GROUP_ROWS_3_7 = "rows-F3^7-add-matrix-cap"
GROUP_T4_N7 = "verify-t4-n7-add-matrix-cap"
FAILURE_GROUPS = {
    GROUP_ROWS_3_7: "sozd and ddt rows over F_{3^7} exit 2: addition table for order "
                    "2187 exceeds cap 2048",
    GROUP_T4_N7: "verify --theorem t4 --n 7 (DDT of x^4 over F_{3^7}) exits 2: addition "
                 "table for order 2187 exceeds cap 2048",
}


def field_spec(p: int, n: int, modulus=None) -> str:
    text = f"p={p};n={n}"
    return text + ";mod=" + ",".join(map(str, modulus)) if modulus else text


@dataclass
class Op:
    name: str
    argv: list[str]
    entries: int  # result entries when the operation succeeds
    info: dict = field(default_factory=dict)  # what the checks need
    group: str | None = None  # named failure group, if it belongs to one


@dataclass
class Outcome:
    rc: int | None  # None when the call raised
    stdout: str
    stderr: str

    @property
    def failed(self) -> bool:
        return self.rc is None or self.rc == 2


def run_cli(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a crash is a failed operation; the round goes on
        return Outcome(None, out.getvalue(), err.getvalue() + traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue())


class References:
    """Reference fields and power-map images, built once per check pass."""

    def __init__(self):
        self._fields = {}

    def field(self, p: int, n: int, modulus=None) -> gfref.RefField:
        key = (p, n, tuple(modulus) if modulus else None)
        if key not in self._fields:
            self._fields[key] = gfref.RefField(p, n, modulus)
        return self._fields[key]

    def images(self, ref: gfref.RefField, info: dict) -> np.ndarray:
        if "table" in info:
            return np.asarray(info["table"], dtype=np.int64)
        return ref.power_images(info["d"])


def read_csv(path: str | Path, header: str, rows: int, cols: int) -> np.ndarray:
    """Parse a CSV the program wrote, refusing any deviation in shape."""
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[0] != header:
        raise ValueError(f"{path}: header {lines[0]!r}, expected {header!r}")
    body = lines[1:]
    if len(body) != rows + 1 or body[-1] != "":
        raise ValueError(f"{path}: {len(body) - 1} rows, expected {rows}")
    out = np.empty((rows, cols), dtype=np.int64)
    for i, line in enumerate(body[:-1]):
        vals = np.fromstring(line, dtype=np.int64, sep=",")
        if vals.size != cols:
            raise ValueError(f"{path}: row {i} has {vals.size} entries, expected {cols}")
        out[i] = vals
    return out


def fbct_property_problems(name: str, mat: np.ndarray) -> list[str]:
    """The structural FBCT identities, recomputed from the table itself."""
    q = mat.shape[0]
    xs = np.arange(q)
    problems = []
    if not (mat == mat.T).all():
        problems.append(f"{name}: table is not symmetric")
    if not ((mat[0] == q).all() and (mat[:, 0] == q).all() and (mat[xs, xs] == q).all()):
        problems.append(f"{name}: first row, first column or diagonal is not {q}")
    if (mat % 4).any():
        problems.append(f"{name}: an entry is not 0 mod 4")
    if not (mat[xs[:, None], xs[:, None] ^ xs[None, :]] == mat).all():
        problems.append(f"{name}: FBCT(a, b) != FBCT(a, a+b)")
    return problems


class Workload:
    """One workload: operations, set-up fields, checks."""

    name = ""
    tag = 0  # mixes into the seed so workloads draw independent streams

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, self.tag])
        self.check_rng = np.random.default_rng([seed, self.tag, 1])

    def setup_fields(self) -> list[tuple]:
        raise NotImplementedError

    def prepare(self, sbox) -> None:
        """Work before timing that a user would not repeat per operation."""

    def run_round(self, sbox, probe) -> tuple[list[float], list[float], list]:
        """Run every part once, calling `probe` before the first part and
        after each; returns the parts' wall times, the probed paces (one
        more than the parts) and the outcomes."""
        raise NotImplementedError

    def attempted(self, outcomes) -> int:
        return len(outcomes)

    def failures(self, outcomes) -> list[dict]:
        raise NotImplementedError

    def entries(self, outcomes) -> int:
        raise NotImplementedError

    def check(self, outcomes) -> list[str]:
        raise NotImplementedError

    def same_outputs(self, first, later) -> bool:
        raise NotImplementedError

    def op_names(self) -> list[str]:
        """Names of the timed parts of a round, in order."""
        raise NotImplementedError


class CliWorkload(Workload):
    """Operations are CLI runs through sbox_spectra.cli.main, in process."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.refs = References()
        self.ops = self.build_ops()

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def run_round(self, sbox, probe):
        times, paces, outcomes = [], [probe()], []
        for op in self.ops:
            start = perf_counter()
            outcomes.append(run_cli(sbox.cli.main, op.argv))
            times.append(perf_counter() - start)
            paces.append(probe())
        return times, paces, outcomes

    def failures(self, outcomes):
        return [
            {"op": op.name, "group": op.group, "rc": out.rc, "error": out.stderr.strip()[-300:]}
            for op, out in zip(self.ops, outcomes)
            if out.failed
        ]

    def entries(self, outcomes):
        return sum(self.op_entries(op, out)
                   for op, out in zip(self.ops, outcomes) if not out.failed)

    def op_entries(self, op: Op, outcome: Outcome) -> int:
        return op.entries

    def same_outputs(self, first, later):
        return all((a.rc, a.stdout) == (b.rc, b.stdout) for a, b in zip(first, later))

    def op_names(self):
        return [op.name for op in self.ops]

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def sample_cells(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        return self.check_rng.integers(0, q, (2, SAMPLES))


# -- tables -------------------------------------------------------------------

class Tables(CliWorkload):
    name, tag = "tables", 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.ddt_cache = {}

    def build_ops(self):
        sbox8 = self.rng.permutation(256)
        sbox35 = self.rng.permutation(243)
        for fname, table in (("sbox8.txt", sbox8), ("sbox35.txt", sbox35)):
            with open(self.path(fname), "w") as fh:
                fh.write("\n".join(map(str, table.tolist())) + "\n")
        alt = field_spec(2, 10, ALT_MODULUS_2_10)
        specs = [
            # name, kind, p, n, modulus, map args, extra args, map info
            ("fbct-x67-F2^12", "fbct", 2, 12, None, ["--power", "67"],
             ["--check-properties"], {"d": 67}),
            ("ddt-x67-F2^12", "ddt", 2, 12, None, ["--power", "67"], [], {"d": 67}),
            ("fbct-x35-F2^10-conway", "fbct", 2, 10, None, ["--power", "35"], [], {"d": 35}),
            ("fbct-x35-F2^10-alt-modulus", "fbct", 2, 10, ALT_MODULUS_2_10,
             ["--power", "35"], [], {"d": 35}),
            ("fbct-sbox8-jobs1", "fbct", 2, 8, None, ["--table", self.path("sbox8.txt")],
             ["--check-properties", "--jobs", "1"], {"table": sbox8, "map": "sbox8"}),
            ("fbct-sbox8-jobs2", "fbct", 2, 8, None, ["--table", self.path("sbox8.txt")],
             ["--check-properties", "--jobs", "2"], {"table": sbox8, "map": "sbox8"}),
            ("sozd-x7-F3^6", "sozd", 3, 6, None, ["--power", "7"], [], {"d": 7}),
            ("sozd-sbox-F3^5-bruteforce", "sozd", 3, 5, None,
             ["--table", self.path("sbox35.txt")], ["--method", "bruteforce"],
             {"table": sbox35, "map": "sbox35"}),
        ]
        ops = []
        for name, kind, p, n, mod, map_args, extra, info in specs:
            csv = self.path(f"{name}.csv")
            spec = alt if mod else field_spec(p, n)
            argv = ["spectra", kind, "--field", spec, *map_args, "--full", "--csv", csv, *extra]
            label = str(info["d"]) if "d" in info else "table"
            info = {"map": f"x^{label}", **info, "kind": "ddt" if kind == "ddt" else "sozd",
                    "p": p, "n": n, "modulus": mod, "csv": csv, "label": label}
            ops.append(Op(name, argv, (p**n) ** 2, info))
        return ops

    def setup_fields(self):
        return [(2, 12), (2, 10), (2, 10, ALT_MODULUS_2_10), (2, 8), (3, 6), (3, 5)]

    def ddt_table(self, ref, images, key) -> np.ndarray:
        """Reference DDT of a map, shared by the ops that use the same map."""
        if key not in self.ddt_cache:
            self.ddt_cache[key] = np.stack([ref.ddt_row(images, a) for a in range(ref.q)])
        return self.ddt_cache[key]

    def check(self, outcomes):
        problems = []
        by_name = {}
        for op, out in zip(self.ops, outcomes):
            by_name[op.name] = out
            if out.failed:
                continue
            try:
                problems += self.check_op(op, out)
            except (ValueError, KeyError, OSError) as exc:
                problems.append(f"{op.name}: unreadable output: {exc}")
        a, b = by_name["fbct-sbox8-jobs1"], by_name["fbct-sbox8-jobs2"]
        if not (a.failed or b.failed):
            csv1, csv2 = (self.path(f"fbct-sbox8-jobs{j}.csv") for j in (1, 2))
            if Path(csv1).read_bytes() != Path(csv2).read_bytes() or a.stdout != b.stdout:
                problems.append("--jobs 1 and --jobs 2 outputs differ")
        a, b = by_name["fbct-x35-F2^10-conway"], by_name["fbct-x35-F2^10-alt-modulus"]
        if not (a.failed or b.failed):
            if json.loads(a.stdout)["histogram"] != json.loads(b.stdout)["histogram"]:
                problems.append("x^35 histograms differ between the two moduli of F_{2^10}")
        return problems

    def check_op(self, op: Op, out: Outcome) -> list[str]:
        info, problems = op.info, []
        kind, p, n = info["kind"], info["p"], info["n"]
        q = p**n
        if out.rc != 0:
            problems.append(f"{op.name}: exit code {out.rc}")
        report = json.loads(out.stdout)
        header = f"{kind.upper()},{p},{n},{info['label']}"
        mat = read_csv(info["csv"], header, q, q)
        ref = self.refs.field(p, n, info["modulus"])
        images = self.refs.images(ref, info)
        a, b = self.sample_cells(q)
        entry = ref.ddt_entries if kind == "ddt" else ref.sozd_entries
        bad = np.flatnonzero(entry(images, a, b) != mat[a, b])
        if bad.size:
            i = bad[0]
            problems.append(f"{op.name}: {bad.size}/{SAMPLES} sampled cells differ, "
                            f"e.g. ({a[i]}, {b[i]})")
        ddt = self.ddt_table(ref, images, (p, n, info["modulus"], info["map"]))
        if kind == "ddt":
            if not (mat == ddt).all():
                problems.append(f"{op.name}: table differs from the reference DDT")
            if not (mat.sum(axis=1) == q).all():
                problems.append(f"{op.name}: a row does not sum to q")
        else:
            if not (mat.sum(axis=1) == (ddt**2).sum(axis=1)).all():
                problems.append(f"{op.name}: sum_b SOZD(a, b) != sum_c DDT(a, c)^2")
            if p == 2:
                problems += fbct_property_problems(op.name, mat)
        if report["uniformity"] != gfref.uniformity(kind, p, mat):
            problems.append(f"{op.name}: uniformity {report['uniformity']} disagrees with the CSV")
        if report["histogram"] != gfref.histogram(mat):
            problems.append(f"{op.name}: histogram disagrees with the CSV")
        if "--check-properties" in op.argv:
            props = report.get("properties", {})
            if not props.get("ok") or any(props.get("counts", {}).values()):
                problems.append(f"{op.name}: property check reports violations")
        return problems


# -- verify -------------------------------------------------------------------

T3_CASES = ((3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2), (5, 1, 3), (7, 1, 2), (3, 1, 5))


class Verify(CliWorkload):
    name, tag = "verify", 2

    def build_ops(self):
        ops = []
        for theorem in ("t1", "t2"):
            for m in range(3, 7):
                argv = ["verify", "--theorem", theorem, "--m", str(m)]
                ops.append(Op(f"verify-{theorem}-m{m}", argv, 4 ** (2 * m)))
        cases = [(p, k, n, c) for p, k, n in T3_CASES for c in ("exact", "stated")]
        for p, k, n, cond in cases + [(5, 1, 4, "exact")]:
            argv = ["verify", "--theorem", "t3", "--p", str(p), "--k", str(k), "--n", str(n),
                    "--condition", cond]
            ops.append(Op(f"verify-t3-{p}-{k}-{n}-{cond}", argv, p ** (2 * n)))
        for n in range(1, 8):
            ops.append(Op(f"verify-t4-n{n}", ["verify", "--theorem", "t4", "--n", str(n)],
                          9**n, group=GROUP_T4_N7 if n == 7 else None))
        ops.append(Op("verify-registry", ["verify", "--registry"], 0))
        return ops

    def setup_fields(self):
        return ([(2, n) for n in (4, 5, 6, 7, 8, 10, 12)] + [(3, n) for n in range(1, 8)]
                + [(5, n) for n in range(1, 5)] + [(7, 1), (7, 2), (11, 1), (11, 2)])

    def op_entries(self, op, outcome):
        if op.name != "verify-registry":
            return op.entries
        rows = json.loads(outcome.stdout)["rows"]
        return sum((r["p"] ** r["n"]) ** 2 for r in rows if r["p"] ** r["n"] <= REGISTRY_MAX_SIZE)

    def check(self, outcomes):
        problems = []
        for op, out in zip(self.ops, outcomes):
            if out.failed:
                continue
            try:
                report = json.loads(out.stdout)
                if op.name == "verify-registry":
                    problems += self.check_registry(report, out.rc)
                else:
                    problems += self.check_report(op, report, out.rc)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{op.name}: unreadable report: {exc}")
        return problems

    def reference_row(self, kind: str, p: int, n: int, d: int):
        ref = self.refs.field(p, n)
        images = ref.power_images(d)
        row = ref.ddt_row(images, 1) if kind == "ddt" else ref.sozd_row(images, 1)
        return ref, images, row

    def check_report(self, op: Op, rep: dict, rc: int) -> list[str]:
        problems = []
        kv = dict(part.split("=", 1) for part in rep["field"].split(";"))
        p, n = int(kv["p"]), int(kv["n"])
        if tuple(int(c) for c in kv["mod"].split(",")) != gfref.CONWAY[(p, n)]:
            problems.append(f"{op.name}: modulus {kv['mod']} is not the Conway polynomial")
        q = p**n
        kind = "ddt" if rep["target"] == "t4" else "sozd"
        ref, images, row = self.reference_row(kind, p, n, rep["params"]["d"])
        if rep["matches"] + rep["mismatch_count"] != q * q:
            problems.append(f"{op.name}: matches + mismatches != q^2")
        proven = rep["target"] == "t3" and rep["params"]["condition"] == "exact"
        if proven and rep["mismatch_count"]:
            problems.append(f"{op.name}: mismatches under the proven x-free condition")
        listed = rep["mismatches"]
        if listed:
            a = np.array([m[0] for m in listed])
            b = np.array([m[1] for m in listed])
            entry = ref.ddt_entries if kind == "ddt" else ref.sozd_entries
            actual = entry(images, a, b)
            for (ma, mb, pred, act), want in zip(listed, actual.tolist()):
                genuine = (not pred[0] <= act <= pred[1]) if isinstance(pred, list) else pred != act
                if act != want or not genuine:
                    problems.append(f"{op.name}: listed mismatch ({ma}, {mb}) actual {act}, "
                                    f"reference {want}, predicted {pred}")
                    break
        u = gfref.row_uniformity(kind, p, row)
        if rep["uniformity_actual"] != u:
            problems.append(f"{op.name}: uniformity {rep['uniformity_actual']}, reference {u}")
        if rep["agrees"] != (rep["uniformity_claimed"] == u):
            problems.append(f"{op.name}: wrong agreement verdict")
        ok = rep["mismatch_count"] == 0 and rep["agrees"]
        if rc != (0 if ok else 1):
            problems.append(f"{op.name}: exit code {rc} does not match the report")
        return problems

    def check_registry(self, rep: dict, rc: int) -> list[str]:
        problems, tally = [], {"match": 0, "mismatch": 0, "skipped": 0}
        for row in rep["rows"]:
            p, n, d = row["p"], row["n"], row["d"]
            label = f"registry {row['name']} p={p} n={n}"
            if p**n > REGISTRY_MAX_SIZE:
                want = "skipped"
            else:
                _, _, ref_row = self.reference_row("sozd", p, n, d)
                u = gfref.row_uniformity("sozd", p, ref_row)
                if row["actual"] != u:
                    problems.append(f"{label}: actual {row['actual']}, reference {u}")
                want = "match" if u == row["expected"] else "mismatch"
            if row["status"] != want:
                problems.append(f"{label}: status {row['status']}, expected {want}")
            tally[want] += 1
        if (rep["matched"], rep["mismatched"], rep["skipped"]) != tuple(tally.values()):
            problems.append("registry: totals disagree with the rows")
        if rc != (0 if tally["mismatch"] == 0 else 1):
            problems.append(f"registry: exit code {rc} does not match the report")
        return problems


# -- rows ---------------------------------------------------------------------

class Rows(CliWorkload):
    name, tag = "rows", 3

    def build_ops(self):
        cases = [("ddt", 2, n) for n in (16, 18, 20)]
        cases += [(kind, 2, n) for n in (10, 11, 12, 13) for kind in ("fbct", "ddt")]
        cases += [(kind, p, n) for p, n in ((3, 5), (3, 6), (5, 4), (7, 3), (3, 7))
                  for kind in ("sozd", "ddt")]
        ops = []
        for kind, p, n in cases:
            name = f"{kind}-row-x7-F{p}^{n}"
            csv = self.path(f"{name}.csv")
            argv = ["spectra", kind, "--field", field_spec(p, n), "--power", "7", "--row",
                    "--csv", csv]
            info = {"kind": "ddt" if kind == "ddt" else "sozd", "p": p, "n": n, "d": 7, "csv": csv}
            ops.append(Op(name, argv, p**n, info, GROUP_ROWS_3_7 if (p, n) == (3, 7) else None))
        return ops

    def setup_fields(self):
        return ([(2, n) for n in (10, 11, 12, 13, 16, 18, 20)]
                + [(3, 5), (3, 6), (5, 4), (7, 3), (3, 7)])

    def check(self, outcomes):
        problems = []
        for op, out in zip(self.ops, outcomes):
            if out.failed:
                continue
            try:
                problems += self.check_op(op, out)
            except (ValueError, KeyError, OSError) as exc:
                problems.append(f"{op.name}: unreadable output: {exc}")
        return problems

    def check_op(self, op: Op, out: Outcome) -> list[str]:
        info, problems = op.info, []
        kind, p, n = info["kind"], info["p"], info["n"]
        q = p**n
        if out.rc != 0:
            problems.append(f"{op.name}: exit code {out.rc}")
        report = json.loads(out.stdout)
        row = read_csv(info["csv"], f"{kind.upper()},{p},{n},7", 1, q)[0]
        ref = self.refs.field(p, n)
        images = ref.power_images(7)
        ddt_row = ref.ddt_row(images, 1)
        if kind == "ddt":
            if not (row == ddt_row).all():
                problems.append(f"{op.name}: row differs from the reference DDT row")
            if row.sum() != q:
                problems.append(f"{op.name}: row does not sum to q")
        else:
            bs = np.arange(q) if q <= SAMPLES else self.check_rng.integers(0, q, SAMPLES)
            want = ref.sozd_entries(images, np.ones_like(bs), bs)
            if not (want == row[bs]).all():
                problems.append(f"{op.name}: sampled entries differ from the definition")
            if row.sum() != (ddt_row**2).sum():
                problems.append(f"{op.name}: sum_b SOZD(1, b) != sum_c DDT(1, c)^2")
            if p == 2 and not (row[0] == q and row[1] == q and not (row % 4).any()):
                problems.append(f"{op.name}: row[0], row[1] != q or an entry is not 0 mod 4")
        if report.get("row") != "a=1":
            problems.append(f"{op.name}: report is not for the a = 1 row")
        if report["uniformity"] != gfref.row_uniformity(kind, p, row):
            problems.append(f"{op.name}: uniformity {report['uniformity']} disagrees with the CSV")
        if report["histogram"] != gfref.histogram(row):
            problems.append(f"{op.name}: histogram disagrees with the CSV")
        return problems


# -- solvers ------------------------------------------------------------------

TRINOMIAL_N = 10
TRINOMIAL_A_PER_K = 8
QUADRATIC_FIELDS = ((3, 6), (7, 3))
QUADRATIC_PER_FIELD = 20_000
AFFINE_N = 8
AFFINE_COUNT = 2_000


@dataclass
class SolverOutcomes:
    trinomial: list
    quadratic: dict
    affine: list
    errors: list  # (family, instance, traceback)

    def __len__(self):
        return (len(self.trinomial) + sum(len(v) for v in self.quadratic.values())
                + len(self.affine))


class Solvers(Workload):
    """Seeded calls through the Python API on one Field per size."""

    name, tag = "solvers", 4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        q = 2**TRINOMIAL_N
        self.tri_a = [self.rng.choice(np.arange(1, q), TRINOMIAL_A_PER_K, replace=False).tolist()
                      for _ in range(TRINOMIAL_N)]
        self.quad = {}
        for p, n in QUADRATIC_FIELDS:
            order = p**n
            a2 = self.rng.integers(1, order, QUADRATIC_PER_FIELD)
            a1, a0 = self.rng.integers(0, order, (2, QUADRATIC_PER_FIELD))
            self.quad[(p, n)] = np.stack([a2, a1, a0], axis=1)
        # half dense, half with two nonzero coefficients, so rank-deficient
        # maps (root counts 0 or 2^k) occur as well as bijective ones
        coeffs = self.rng.integers(0, 2**AFFINE_N, (AFFINE_COUNT, AFFINE_N))
        sparse = np.zeros_like(coeffs[: AFFINE_COUNT // 2])
        for row in sparse:
            idx = self.rng.choice(AFFINE_N, 2, replace=False)
            row[idx] = self.rng.integers(1, 2**AFFINE_N, 2)
        coeffs[: AFFINE_COUNT // 2] = sparse
        self.affine = coeffs
        self.affine_b = self.rng.integers(0, 2**AFFINE_N, AFFINE_COUNT)
        self.fields = {}

    def setup_fields(self):
        return [(2, TRINOMIAL_N), *QUADRATIC_FIELDS, (2, AFFINE_N)]

    def prepare(self, sbox):
        for spec in self.setup_fields():
            fld = sbox.make_field(*spec)
            fld.generator
            self.fields[spec] = fld
        self.quad_lists = {spec: v.tolist() for spec, v in self.quad.items()}
        self.affine_lists = list(zip(self.affine.tolist(), self.affine_b.tolist()))

    def run_round(self, sbox, probe):
        solve_tri = sbox.solve_linearized_trinomial
        solve_quad = sbox.solve_quadratic
        affine = sbox.affine_root_count
        out = SolverOutcomes([], {}, [], [])
        times, paces = [], [probe()]
        start = perf_counter()
        f2 = self.fields[(2, TRINOMIAL_N)]
        for k in range(TRINOMIAL_N):
            for a in self.tri_a[k]:
                for b in range(f2.order):
                    try:
                        out.trinomial.append(solve_tri(f2, k, a, b))
                    except Exception:  # a failed call is counted, the round goes on
                        out.trinomial.append(None)
                        out.errors.append(("trinomial", (k, a, b), traceback.format_exc(limit=2)))
        times.append(perf_counter() - start)
        paces.append(probe())
        for spec, instances in self.quad_lists.items():
            start = perf_counter()
            fld, results = self.fields[spec], []
            for a2, a1, a0 in instances:
                try:
                    results.append(solve_quad(fld, a2, a1, a0))
                except Exception:
                    results.append(None)
                    out.errors.append(("quadratic", (spec, a2, a1, a0),
                                       traceback.format_exc(limit=2)))
            out.quadratic[spec] = results
            times.append(perf_counter() - start)
            paces.append(probe())
        start = perf_counter()
        f8 = self.fields[(2, AFFINE_N)]
        for coeffs, b in self.affine_lists:
            try:
                out.affine.append(affine(f8, coeffs, b))
            except Exception:
                out.affine.append(None)
                out.errors.append(("affine", (coeffs, b), traceback.format_exc(limit=2)))
        times.append(perf_counter() - start)
        paces.append(probe())
        return times, paces, out

    def op_names(self):
        return ["trinomial", *(f"quadratic-F{p}^{n}" for p, n in QUADRATIC_FIELDS), "affine"]

    def failures(self, outcomes):
        return [{"op": fam, "group": None, "instance": repr(inst), "error": tb.strip()[-300:]}
                for fam, inst, tb in outcomes.errors]

    def entries(self, outcomes):
        return len(outcomes) - len(outcomes.errors)

    def same_outputs(self, first, later):
        def key(r):
            return None if r is None else (r.kind, r.count, r.roots, r.representative, r.direction)

        return ([key(r) for r in first.trinomial] == [key(r) for r in later.trinomial]
                and all([key(r) for r in first.quadratic[s]] == [key(r) for r in later.quadratic[s]]
                        for s in first.quadratic)
                and first.affine == later.affine)

    def check(self, outcomes):
        return self.check_trinomial(outcomes) + self.check_quadratic(outcomes) \
            + self.check_affine(outcomes)

    def check_trinomial(self, out) -> list[str]:
        ref = gfref.RefField(2, TRINOMIAL_N)
        q = ref.q
        results = iter(out.trinomial)
        bad = 0
        for k in range(TRINOMIAL_N):
            frob = ref.power_images(2**k)
            for a in self.tri_a[k]:
                lin = frob ^ ref.mul(a, ref.xs)  # L(x) = x^(2^k) + a x for every x
                counts = np.bincount(lin, minlength=q)
                for b in range(q):
                    r = next(results)
                    if r is None:
                        continue
                    ok = r.count == counts[b]
                    if r.kind == "unique":
                        ok = ok and lin[r.roots[0]] == b
                    elif r.kind == "subspace":
                        x0, tau = r.representative, r.direction
                        ok = ok and tau != 0 and lin[x0] == b and lin[x0 ^ tau] == b
                    elif r.kind != "none":
                        ok = False
                    bad += not ok
        return [f"trinomial: {bad} results disagree with exhaustive evaluation"] if bad else []

    def check_quadratic(self, out) -> list[str]:
        problems = []
        for spec, inst in self.quad.items():
            ref = gfref.RefField(*spec)
            q = ref.q
            xs = ref.xs
            # counts[c, t] = #{x : x^2 + c x = t}, by evaluating every x for every c
            vals = ref.add(ref.mul(xs, xs)[None, :], ref.mul(xs[:, None], xs[None, :]))
            counts = np.zeros((q, q), dtype=np.int64)
            np.add.at(counts, (np.repeat(xs, q), vals.ravel()), 1)
            a2, a1, a0 = inst.T
            c = ref.div(a1, a2)
            t = ref.sub(0, ref.div(a0, a2))
            want = counts[c, t]
            bad = 0
            for i, r in enumerate(out.quadratic[spec]):
                if r is None:
                    continue
                roots = np.array(r.roots, dtype=np.int64)
                ok = r.count == want[i] == len(set(r.roots))
                if roots.size:
                    lhs = ref.add(ref.add(ref.mul(a2[i], ref.mul(roots, roots)),
                                          ref.mul(a1[i], roots)), a0[i])
                    ok = ok and not lhs.any()
                bad += not ok
            if bad:
                problems.append(f"quadratic over F_{spec[0]}^{spec[1]}: {bad} results disagree "
                                f"with exhaustive evaluation")
        return problems

    def check_affine(self, out) -> list[str]:
        ref = gfref.RefField(2, AFFINE_N)
        frob = [ref.power_images(2**i) for i in range(AFFINE_N)]
        total = np.broadcast_to(self.affine_b[:, None], (AFFINE_COUNT, ref.q)).copy()
        for i in range(AFFINE_N):
            total ^= ref.mul(self.affine[:, i, None], frob[i][None, :])
        want = (total == 0).sum(axis=1)
        bad = sum(1 for r, w in zip(out.affine, want.tolist()) if r is not None and r != w)
        return [f"affine: {bad} root counts disagree with exhaustive evaluation"] if bad else []


WORKLOADS = {cls.name: cls for cls in (Tables, Verify, Rows, Solvers)}


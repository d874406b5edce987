"""Command-line interface.

Subcommands: field-info, solve (trinomial | affine), spectra (ddt | fbct |
sozd), verify (--theorem t1..t4 | --registry) and registry.  Machine output
goes to stdout (JSON; CSV via --csv), human-readable progress to stderr.
The JSON text is json.dumps(obj, indent=2)'s, a tuple written as a list and
a dataclass as its fields, in declared order; a --json file is opened first.

Exit codes: 0 success, 1 verification mismatch or property violation (the
report is always written first), 2 usage or configuration error, or a size
that does not fit in memory.  Output is byte-deterministic for a fixed
configuration.  --jobs is accepted for compatibility with existing command
lines and changes neither output nor work.

The argument parser is built once per process (build_parser is cached), so
repeated in-process calls to `main` do not rebuild the argparse tree.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import os
import shlex
import stat
import sys
from json.encoder import encode_basestring_ascii

from .closed_forms import registry_cases, verify_registry, verify_theorem
from .errors import SpectraError, WrongLengthError
from .fields import Field, parse_field_spec
from .spectra import (
    PowerMap,
    RunningSummary,
    TableMap,
    ddt_row_power,
    fbct_property_check,
    fbct_row_property_check,
    kernel_blocks,
    map_label,
    power_row_summary,
    power_rows,
    power_table_summary,
    row_scale,
    sozd_row_power,
    sozd_table,
    table_blocks,
    uses_power_rows,
    write_row_csv,
    write_table_csv,
)


def load_table_map(field: Field, path: str) -> TableMap:
    """Read a lookup table: one image encoding per line, enumeration order."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != field.order:
        raise WrongLengthError(
            f"{path}: {len(lines)} entries, field has {field.order}"
        )
    return TableMap(tuple(field.parse_element(ln) for ln in lines))


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; one per process, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sbox-spectra",
        description="DDT / FBCT / second-order zero differential spectra over F_{p^n}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("field-info", help="describe a field spec")
    p_info.add_argument("--field", required=True, help="p=<p>;n=<n>;mod=<c0,...,cn>")
    p_info.add_argument("--power", type=int, help="also report gcd facts for x^d")

    p_solve = sub.add_parser("solve", help="root solvers over F_{2^n}")
    solve_sub = p_solve.add_subparsers(dest="solver", required=True)
    p_tri = solve_sub.add_parser("trinomial", help="roots of x^(2^k) + a x + b")
    p_tri.add_argument("--field", required=True)
    p_tri.add_argument("--k", type=int, required=True)
    p_tri.add_argument("--a", required=True)
    p_tri.add_argument("--b", required=True)
    p_tri.add_argument("--roots", action="store_true", help="enumerate all roots")
    p_aff = solve_sub.add_parser("affine", help="root count of sum a_i x^(2^i) + b")
    p_aff.add_argument("--field", required=True)
    p_aff.add_argument("--coeffs", required=True, help="c0,...,c_{n-1} encodings")
    p_aff.add_argument("--b", required=True)

    p_spec = sub.add_parser("spectra", help="compute a spectrum table")
    p_spec.add_argument("table_kind", choices=("ddt", "fbct", "sozd"))
    p_spec.add_argument("--field", required=True)
    group = p_spec.add_mutually_exclusive_group(required=True)
    group.add_argument("--power", type=int, help="power map exponent d")
    group.add_argument("--table", help="lookup table file, one image per line")
    mode = p_spec.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true", help="full table (default)")
    mode.add_argument("--row", action="store_true", help="row at a = 1 (power maps)")
    p_spec.add_argument("--method", choices=("auto", "bruteforce"), default="auto")
    p_spec.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; output and work do not depend on it")
    p_spec.add_argument("--csv", help="write the table as CSV to this path")
    p_spec.add_argument("--check-properties", action="store_true",
                        help="check structural FBCT identities (p = 2)")

    p_ver = sub.add_parser("verify", help="diff closed-form claims against computation")
    what = p_ver.add_mutually_exclusive_group(required=True)
    what.add_argument("--theorem", choices=("t1", "t2", "t3", "t4"))
    what.add_argument("--registry", action="store_true")
    p_ver.add_argument("--m", type=int, help="t1/t2 parameter")
    p_ver.add_argument("--p", type=int, help="t3 characteristic")
    p_ver.add_argument("--k", type=int, help="t3 exponent parameter")
    p_ver.add_argument("--n", type=int, help="t3/t4 degree")
    p_ver.add_argument("--condition", choices=("exact", "stated"), default="exact")
    p_ver.add_argument("--max-size", type=int, default=1024, help="registry size bound")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; output and work do not depend on it")
    p_ver.add_argument("--json", help="also write the report to this path")

    p_reg = sub.add_parser("registry", help="list the cross-check registry")
    p_reg.add_argument("--json", help="also write the report to this path")

    return parser


_CSV_BUFFER = 1 << 18


def _open_csv(path: str):
    """A --csv file, binary, buffered so that its bytes reach the kernel in
    writes of _CSV_BUFFER (256 KiB), not one write per line.  It is
    truncated on open, so a run killed mid-write leaves a short file."""
    return open(path, "wb", buffering=_CSV_BUFFER)


def _refuse_csv_on_stdout(path: str) -> None:
    """Refuse --csv on the regular file stdout writes to (--csv /dev/stdout
    > out.txt), which the JSON report would overwrite; a pipe passes."""
    try:
        csv, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no such file yet, or stdout has no descriptor
        return
    if stat.S_ISREG(out.st_mode) and os.path.samestat(csv, out):
        raise SpectraError(f"--csv {path} is the file stdout writes to")


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, default=vars), each container in one join;
    pad is the newline and indent that obj starts at.  A float, a key other
    than str or int and a subclass go through json.dumps itself, re-indented."""
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    inner = pad + "  "
    if kind is list or kind is tuple:
        try:  # a list of scalars, with no call per item
            items = [_SCALARS[type(x)](x) for x in obj]
        except KeyError:
            items = [_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if kind is dict:
        items = []
        for k, v in obj.items():
            if type(k) is not str and type(k) is not int:
                break
            f = _SCALARS.get(type(v))
            items.append(encode_basestring_ascii(str(k)) + ": " + (f(v) if f else _json(v, inner)))
        else:
            return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (str, int, float, list, tuple, dict)):
        return json.dumps(obj, indent=2, default=vars).replace("\n", pad)
    return _json(vars(obj), pad)


def _emit(obj, json_file=None) -> None:
    """Write obj as JSON (_json) to stdout, and the same text to json_file if given."""
    text = _json(obj) + "\n"
    sys.stdout.write(text)
    if json_file is not None:
        json_file.write(text)


def _json_file(path: str | None):
    """The --json file, opened before any work, as a shell redirect would."""
    return open(path, "w") if path else contextlib.nullcontext()


def _cmd_field_info(args) -> int:
    field = parse_field_spec(args.field)
    out = {
        "spec": field.spec_string(),
        "p": field.p,
        "n": field.n,
        "order": field.order,
        "modulus": list(field.modulus),
    }
    if args.power is not None:
        facts = field.power_facts(args.power)
        out["power"] = {
            "d": args.power,
            "gcd": facts.g,
            "is_permutation": facts.is_permutation,
        }
    _emit(out)
    return 0


def _cmd_solve(args) -> int:
    field = parse_field_spec(args.field)
    from . import solvers

    if args.solver == "trinomial":
        res = solvers.solve_linearized_trinomial(
            field, args.k, field.parse_element(args.a), field.parse_element(args.b),
            enumerate_roots=args.roots,
        )
        out = {"kind": res.kind, "count": res.count}
        if res.kind == "unique":
            out["root"] = res.root
            out["root_text"] = field.format_element(res.root)
        if res.kind == "subspace":
            out["representative"] = res.representative
            out["direction"] = res.direction
        if res.roots is not None:
            out["roots"] = list(res.roots)
    else:
        coeffs = [field.parse_element(c) for c in args.coeffs.split(",")]
        count = solvers.affine_root_count(field, coeffs, field.parse_element(args.b))
        out = {"count": count}
    _emit(out)
    return 0


def _canonical_command(args, field: Field) -> str:
    """The spectra run as one command line, every option spelled out;
    running it again reproduces the run."""
    argv = ["spectra", args.table_kind, "--field", field.spec_string()]
    if args.power is not None:
        argv += ["--power", str(args.power)]
    if args.table is not None:
        argv += ["--table", args.table]
    argv += ["--row" if args.row else "--full", "--method", args.method, "--jobs", str(args.jobs)]
    if args.csv is not None:
        argv += ["--csv", args.csv]
    if args.check_properties:
        argv += ["--check-properties"]
    return shlex.join(argv)


def _cmd_spectra(args) -> int:
    field = parse_field_spec(args.field)
    if args.table_kind == "fbct" and field.p != 2:
        raise SpectraError("fbct requires characteristic 2; use sozd for odd p")
    kind = "ddt" if args.table_kind == "ddt" else "sozd"
    fmap = PowerMap(args.power) if args.power is not None else load_table_map(field, args.table)
    if args.csv:
        _refuse_csv_on_stdout(args.csv)
    print(f"# {_canonical_command(args, field)}", file=sys.stderr)

    if args.row:
        if args.power is None:
            raise SpectraError("--row needs a power map")
        if args.check_properties:
            raise SpectraError("--check-properties needs the full table")
        row = (ddt_row_power if kind == "ddt" else sozd_row_power)(field, args.power)
        if args.csv:
            with _open_csv(args.csv) as fh:
                write_row_csv(field, kind, str(args.power), row, fh)
        _emit({"row": "a=1", **vars(power_row_summary(field, kind, row))})
        return 0

    if args.check_properties and (kind == "ddt" or field.p != 2):
        raise SpectraError("--check-properties applies to FBCT tables (p = 2)")
    if uses_power_rows(fmap, args.method):
        summary, report = _power_table(args, field, kind, fmap.d)
    else:
        summary, report = _kernel_table(args, field, kind, fmap)
    out = dict(vars(summary))
    exit_code = 0
    if report is not None:
        out["properties"] = report
        if not report.ok:
            exit_code = 1
    _emit(out)
    return exit_code


def _power_table(args, field: Field, kind: str, d: int):
    """Summary, property report and CSV of the table of x^d, all from its
    rows 0 and 1 in O(q) memory."""
    rows = power_rows(field, kind, d)
    if args.csv:
        with _open_csv(args.csv) as fh:
            write_table_csv(field, kind, str(d), rows, fh, scale=row_scale(kind, d))
    report = fbct_row_property_check(field, rows) if args.check_properties else None
    return power_table_summary(field, kind, rows), report


def _kernel_table(args, field: Field, kind: str, fmap):
    """The same from the row kernel, streamed one block of rows a at a time
    (kernel_blocks).  A power map's property check reads rows 0 and 1 from
    the first blocks the kernel yields, which then stream on with the rest,
    so the check reads the rows it writes.  A table map's check holds the
    whole table, the one q x q path, because it reads columns."""
    report = None
    if args.check_properties and not isinstance(fmap, PowerMap):
        table = sozd_table(field, fmap, method=args.method)
        report = fbct_property_check(table)
        blocks = table_blocks(table.entries)
    else:
        blocks = kernel_blocks(field, fmap, kind)
        if args.check_properties:
            head = list(itertools.islice(blocks, 2))  # rows 0 and 1 are in the first two
            report = fbct_row_property_check(field, [row for _, b in head for row in b][:2])
            blocks = itertools.chain(head, blocks)
    running = RunningSummary(field, kind)
    rows = (running.add(block, a) for a, block in blocks)
    if args.csv:
        with _open_csv(args.csv) as fh:
            write_table_csv(field, kind, map_label(fmap), rows, fh)
    else:
        collections.deque(rows, maxlen=0)
    return running.summary(), report


def _cmd_verify(args) -> int:
    with _json_file(args.json) as json_file:
        if args.registry:
            report = verify_registry(max_size=args.max_size)
            line = (f"registry: {report.matched} matched, {report.mismatched} mismatched, "
                    f"{report.skipped} skipped")
        else:
            # verify_theorem reports a missing parameter as BadParametersError
            params = {k: v for k in ("m", "p", "k", "n") if (v := getattr(args, k)) is not None}
            report = verify_theorem(args.theorem, condition=args.condition, **params)
            line = (f"{report.target} {report.params}: "
                    f"uniformity claimed={report.uniformity_claimed} "
                    f"actual={report.uniformity_actual} agrees={report.agrees} "
                    f"mismatches={report.mismatch_count}")
        _emit(report, json_file)
    print(line, file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_registry(args) -> int:
    with _json_file(args.json) as json_file:
        _emit({"rows": registry_cases()}, json_file)
    return 0


_COMMANDS = {"field-info": _cmd_field_info, "solve": _cmd_solve, "spectra": _cmd_spectra,
             "verify": _cmd_verify, "registry": _cmd_registry}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SpectraError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # exit 1 would read as a refuted claim
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

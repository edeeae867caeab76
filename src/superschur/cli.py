"""Command-line surface: catalog ingestion, dispatch, deterministic reports.

Subcommands: check, invariants, multiplier, bounds, verify, identity,
free.  Catalog input comes from a positional path or standard input
("-"); with no path the shipped catalog is used.  Exit codes: 0 ok,
1 usage or parse error, 2 assertion or identity failure.  All numbers in
reports are produced by the underlying modules; this layer only formats.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass

from .bounds import BoundError, BoundViolation, check_bound
from .catalog import CatalogError, builtin_algebras, parse_catalog
from .exactla import SparseEchelon, SubspaceError
from .freenilp import GeneratorSpec, build_free_nilpotent, hilbert_check, rewrite_identity_residual
from .multiplier import (
    witness_tuple_positions,
    witness_tensor,
    schur_multiplier_cohomology,
    schur_multiplier_hopf,
    verify_top_step_identity,
    verify_telescoped_identity,
)
from .superalg import AlgebraError, SuperDim

FORMAT_ENV = "SUPERSCHUR_FORMAT"
FORMATS = ("human", "json", "csv")
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
# the sweeps to arity 8, 9 and 10 took 0.92, 3.5 and 12.3 s (whole command,
# one run each, Python 3.11, one core of an Intel Xeon whose cores switch
# speed): each arity costs about four times the one before
IDENTITY_ARITY_MAX = 10
# the cochain route eliminates one row per triple touching a nonzero bracket:
# free (2|1) class 6 has 67,581 and took 1.28 and 1.19 s, class 7 has 491,585
# and took 34.1 s, free (3|3) class 4 has 266,285 (the route alone, one run
# each, Python 3.11.7, one core of an Intel Xeon whose cores switch speed)
COCHAIN_TRIPLES_MAX = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


@dataclass
class Report:
    command: str
    records: list[dict]
    ok: bool

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self._render_json()
        if fmt == "csv":
            return self._render_csv()
        return self._render_human()

    def _render_human(self) -> str:
        lines = [f"command: {self.command}"]
        for rec in self.records:
            items = list(rec.items())
            head_key, head_val = items[0]
            lines.append(f"{head_key} {fmt_value(head_val)}")
            for key, val in items[1:]:
                lines.append(f"  {key} = {fmt_value(val)}")
        lines.append(f"status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"

    def _render_json(self) -> str:
        payload = {
            "command": self.command,
            "results": [
                {k: fmt_value(v) for k, v in rec.items()} for rec in self.records
            ],
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2) + "\n"

    def _render_csv(self) -> str:
        columns: list[str] = []
        for rec in self.records:
            for key in rec:
                if key not in columns:
                    columns.append(key)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in self.records:
            writer.writerow(
                ["" if key not in rec else str(fmt_value(rec[key])) for key in columns]
            )
        return buf.getvalue()


def fmt_value(v):
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, SuperDim):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [fmt_value(x) for x in v]
    return str(v)


def _load_algebras(args) -> list:
    path = getattr(args, "catalog", None)
    if path is None:
        algebras = builtin_algebras()
    else:
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except UnicodeDecodeError as exc:
            source = "standard input" if path == "-" else path
            raise CatalogError(
                f"{source} is not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        algebras = parse_catalog(text)
    wanted = getattr(args, "algebra", None)
    if wanted:
        by_name = {a.name: a for a in algebras}
        missing = [w for w in wanted if w not in by_name]
        if missing:
            raise UsageError(f"unknown algebra name(s): {', '.join(missing)}")
        algebras = [by_name[w] for w in wanted]
    return algebras


# -- subcommands -------------------------------------------------------------------


def cmd_check(args) -> Report:
    records = []
    for alg in _load_algebras(args):
        records.append(
            {
                "algebra": alg.name,
                "dim": alg.sdim,
                "valid": alg.validate().ok,
            }
        )
    return Report("check", records, all(r["valid"] for r in records))


def cmd_invariants(args) -> Report:
    records = []
    for alg in _load_algebras(args):
        rec = {"algebra": alg.name, "dim": alg.sdim}
        series = alg.lower_central_series()
        rec["nilpotent"] = alg.is_nilpotent()
        rec["series_dims"] = [alg.superdim(gs) for gs in series]
        if alg.is_nilpotent():
            rec["class"] = alg.nilpotency_class()
            rec["generator_dims"] = alg.minimal_generator_dims()
        rec["center_dim"] = alg.superdim(alg.center())
        records.append(rec)
    return Report("invariants", records, True)


def cmd_multiplier(args) -> Report:
    records = []
    ok = True
    algebras = _load_algebras(args)
    if args.method in ("cohomology", "both"):
        for alg in algebras:
            # each touching triple is a nonzero pair plus one more index, so
            # the triples are counted only when that bound exceeds the limit
            if len(alg.nonzero_pairs()) * alg.dim <= COCHAIN_TRIPLES_MAX:
                continue
            count = sum(1 for _ in alg.touching_triples())
            if count > COCHAIN_TRIPLES_MAX:
                raise UsageError(
                    f"{alg.name} has {count} triples for the cochain route, over the "
                    f"limit of {COCHAIN_TRIPLES_MAX}; use --method hopf"
                )
    for alg in algebras:
        rec = {"algebra": alg.name, "dim": alg.sdim}
        if not alg.is_nilpotent():
            rec["status"] = "skipped (not nilpotent)"
            records.append(rec)
            continue
        if args.method in ("hopf", "both"):
            rec["multiplier_hopf"] = schur_multiplier_hopf(alg)
        if args.method in ("cohomology", "both"):
            rec["multiplier_cohomology"] = schur_multiplier_cohomology(alg)
        if args.method == "both":
            agree = rec["multiplier_hopf"] == rec["multiplier_cohomology"]
            rec["methods_agree"] = agree
            ok = ok and agree
        records.append(rec)
    return Report("multiplier", records, ok)


def cmd_bounds(args) -> Report:
    records = []
    ok = True
    for alg in _load_algebras(args):
        rec = {"algebra": alg.name}
        if not alg.is_nilpotent():
            rec["status"] = "skipped (not nilpotent)"
            records.append(rec)
            continue
        try:
            report = check_bound(alg)
        except BoundError:
            rec["status"] = "hypotheses not met (r+s=0)"
            records.append(rec)
            continue
        except BoundViolation as exc:
            rec.update(exc.report.as_dict())
            rec["status"] = "BOUND VIOLATED"
            ok = False
            records.append(rec)
            continue
        rec.update(report.as_dict())
        rec["status"] = "tight" if report.tight_main else f"slack {report.slack_main}"
        records.append(rec)
    return Report("bounds", records, ok)


def _tensor_rank(tensors) -> int:
    ech = SparseEchelon()
    for t in tensors:
        ech.insert(t)
    return ech.rank


def cmd_verify(args) -> Report:
    records = []
    ok = True
    for alg in _load_algebras(args):
        rec = {"algebra": alg.name}
        c = alg.nilpotency_class() if alg.is_nilpotent() else None
        if c is None or c < 2:
            rec["status"] = "skipped (not nilpotent)" if c is None else "skipped (class < 2)"
            records.append(rec)
            continue
        gens = alg.minimal_generator_dims().total
        r21 = verify_top_step_identity(alg)
        rec["top_step_identity"] = f"{r21.lhs} = {r21.rhs}"
        rec["top_step_identity_ok"] = r21.ok
        r24 = verify_telescoped_identity(alg)
        rec["telescoped_identity"] = f"{r24.lhs} = {r24.rhs}"
        rec["telescoped_identity_ok"] = r24.ok
        kernel_bounds_ok = True
        for i in range(2, c + 1):
            kern = r24.parts[f"bracket_kernel_{i}"]
            lower = max(gens - i, 0)
            rec[f"bracket_kernel_{i}"] = kern
            rec[f"bracket_kernel_{i}_lower"] = lower
            kernel_bounds_ok = kernel_bounds_ok and kern >= lower
        rec["kernel_bounds_ok"] = kernel_bounds_ok
        witnesses_ok = True
        checked = 0
        for i in range(2, min(c, gens) + 1):
            z_pos, y_pos = witness_tuple_positions(alg, i)
            tensors = []
            for y in y_pos:
                wit = witness_tensor(alg, i, z_pos + (y,))
                witnesses_ok = witnesses_ok and wit.in_kernel and wit.nonzero
                tensors.append(wit.tensor)
                checked += 1
            if tensors:
                witnesses_ok = witnesses_ok and _tensor_rank(tensors) == len(tensors)
        rec["witness_tensors_checked"] = checked
        rec["witnesses_ok"] = witnesses_ok
        rec_ok = r21.ok and r24.ok and kernel_bounds_ok and witnesses_ok
        rec["status"] = "ok" if rec_ok else "FAILED"
        ok = ok and rec_ok
        records.append(rec)
    return Report("verify", records, ok)


def cmd_identity(args) -> Report:
    records = []
    ok = True
    if args.arity_max < 3:
        raise UsageError("--arity-max must be at least 3")
    if args.arity_max > IDENTITY_ARITY_MAX:
        raise UsageError(
            f"--arity-max {args.arity_max} exceeds the limit of {IDENTITY_ARITY_MAX}"
        )
    for i in range(3, args.arity_max + 1):
        cases = 0
        bad = 0
        for parities in itertools.product((0, 1), repeat=i + 1):
            cases += 1
            if rewrite_identity_residual(i, parities):
                bad += 1
        records.append(
            {"arity": i, "parity_cases": cases, "nonzero_residuals": bad}
        )
        ok = ok and bad == 0
    return Report("identity", records, ok)


def cmd_free(args) -> Report:
    spec = GeneratorSpec(args.even, args.odd, args.class_bound)
    f = build_free_nilpotent(spec)
    rec = {
        "generators": SuperDim(spec.even, spec.odd),
        "class_bound": spec.class_bound,
        "degree_dims": f.degree_dims(),
        "total_dims": f.total_dims,
    }
    ok = True
    if args.hilbert:
        mismatches = hilbert_check(f)
        rec["hilbert_ok"] = not mismatches
        if mismatches:
            rec["hilbert_mismatches"] = mismatches
            ok = False
    return Report("free", [rec], ok)


# -- dispatch ------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-level omission from clobbering the
    # top-level value, so --format works on either side of the subcommand
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=argparse.SUPPRESS,
        help="report format (env SUPERSCHUR_FORMAT sets the default)",
    )
    parser = _Parser(prog="superschur", description=__doc__)
    parser.add_argument(
        "--format",
        choices=FORMATS,
        help="report format (env SUPERSCHUR_FORMAT sets the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_catalog_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("catalog", nargs="?", default=None,
                       help="catalog path or '-' for stdin; omit for the shipped catalog")
        p.add_argument("--algebra", action="append",
                       help="restrict to a named algebra (repeatable)")
        p.set_defaults(func=func)
        return p

    add_catalog_command("check", cmd_check, "validate every catalog record")
    add_catalog_command("invariants", cmd_invariants,
                        "series, center, class and generator dimensions")
    p_mult = add_catalog_command("multiplier", cmd_multiplier,
                                 "multiplier dimensions per algebra")
    p_mult.add_argument("--method", choices=("hopf", "cohomology", "both"),
                        default="both")
    add_catalog_command("bounds", cmd_bounds, "compare bounds against computed dimensions")
    add_catalog_command("verify", cmd_verify,
                        "dimension identities, kernel lower bounds, witness tensors")

    p_id = sub.add_parser("identity", help="sweep the bracket rewriting identity",
                          parents=[common])
    p_id.add_argument("--arity-max", type=int, default=4)
    p_id.set_defaults(func=cmd_identity)

    p_free = sub.add_parser("free", help="build a truncated free superalgebra",
                            parents=[common])
    p_free.add_argument("--even", type=int, required=True)
    p_free.add_argument("--odd", type=int, required=True)
    p_free.add_argument("--class", dest="class_bound", type=int, required=True)
    p_free.add_argument("--hilbert", action="store_true",
                        help="cross-check dimensions against the counting oracle")
    p_free.set_defaults(func=cmd_free)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse checks an explicit --format; the environment is checked here
        args.format = args.format or os.environ.get(FORMAT_ENV) or "human"
        if args.format not in FORMATS:
            raise UsageError(f"{FORMAT_ENV}={args.format!r} is not one of {', '.join(FORMATS)}")
        report = args.func(args)
    except (UsageError, CatalogError, OSError, AlgebraError, BoundError, SubspaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(report.render(args.format))
    return EXIT_OK if report.ok else EXIT_ASSERTION


if __name__ == "__main__":
    raise SystemExit(main())

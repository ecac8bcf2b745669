"""Command-line entry point and reproducible experiment bundles.

Field specs use the compact grammar  kind:freq-vector:amplitude  with kind
in {cos, sin}, the frequency vector comma-separated over the real axes
(x_1, y_1, ..., x_n, y_n), and terms joined by '+' or ';'.  Example for
n = 2:  "cos:1,0,0,0:0.5+sin:0,0,0,1:0.25".  A constant offset is a zero
frequency cosine: "cos:0,0,0,0:1".

Configuration may come from a JSON file (--config) of string and number
values: its keys are spliced into argv as --key=value flags right after the
subcommand, so one parse types and checks every setting and an explicit
flag, coming later, wins.  All outputs land under --out, and this module
alone knows their formats: _doc writes every field of a report's
dataclass, through dicts, lists and tuples, but those named in _UNWRITTEN,
so wall-clock timings are printed and never written; newton_trace.jsonl is
one _doc line per Newton record.  A non-finite float is written as null,
so every file is strict JSON (RFC 8259).  The echoed resolved_config.json
holds every setting with a value (one whose default the library writes is
absent unless given), not the subcommand and the output path, so it is
itself a valid --config and it reproduces every output file bit-exactly.
Only verify-cone draws random numbers, so only it takes --seed; it has no
thread setting, and its report is the same on any core count.

Exit codes: 0 success, 1 convergence failure, 2 input error (an --out that
cannot be made a directory among them).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .envelope import msh_envelope
from .errors import InputError
from .experiments import (
    default_density_terms,
    default_direction_terms,
    mms_study,
)
from .geometry import MetricField, ScalarField, TorusGrid, make_field, write_field
from .inequalities import (
    StabilityRecord,
    laplacian_gradient_ratio,
    stability_sweep,
    sublevel_volume_decay,
)
from .solver import SolverConfig, solve_exponential, solve_normalized
from .symfunc import verify_cone_inequalities

_SUBCOMMANDS = ("verify-cone", "solve", "normalized", "envelope", "mms",
                "stability-sweep", "decay")


def parse_field_spec(spec):
    """Parse the kind:freqs:amplitude grammar into terms for make_field, which checks them."""
    terms = []
    for chunk in spec.replace(";", "+").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise InputError(f"bad field term {chunk!r} (want kind:freqs:amplitude)")
        kind, freqs, amp = parts
        try:
            kvec = tuple(int(x) for x in freqs.split(","))
            amp = float(amp)
        except ValueError as exc:
            raise InputError(f"bad field term {chunk!r}") from exc
        if kind == "cos":
            terms.append((kvec, amp, 0.0))
        elif kind == "sin":
            terms.append((kvec, 0.0, amp))
        else:
            raise InputError(f"unknown field kind {kind!r}")
    if not terms:
        raise InputError("empty field spec")
    return terms


def _parse_list(text, kind):
    """A comma-separated list of finite numbers of type ``kind``."""
    try:
        values = [kind(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"bad number list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"number list {text!r} is not finite")
    return values


def _given(args, **dests):
    """The set dests as keyword=dest; an unset one keeps the callee's own default."""
    return {key: getattr(args, dest) for key, dest in dests.items()
            if getattr(args, dest) is not None}


def _solver_config(args):
    return SolverConfig(**_given(args, newton_tol="newton_tol", t_steps="t_steps"))


def _echo_config(args, outdir):
    _write_json(outdir, "resolved_config.json", {
        k: v for k, v in vars(args).items()
        if k not in ("command", "out", "config", "func") and v is not None
    })


def _write_json(outdir, name, doc):
    text = json.dumps(_doc(doc), indent=2, sort_keys=True, allow_nan=False)
    (outdir / name).write_text(text + "\n")


def _write_csv(outdir, name, header, rows):
    """Write the header and the rows as CSV, each value as its str, lines ending in \\n."""
    with open(outdir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_UNWRITTEN = ("wallclock", "trace")  # fields no output file carries


def _doc(value):
    """JSON-ready data of a report: a dataclass becomes the dict of its
    fields but those named in _UNWRITTEN, dicts keep their keys, lists and
    tuples become lists, and a non-finite float becomes None (null)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _doc(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name not in _UNWRITTEN}
    if isinstance(value, dict):
        return {k: _doc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_doc(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _grid_metric(args):
    grid = TorusGrid(args.n, args.N, **_given(args, memory_cap="memory_cap"))
    return grid, MetricField.flat(grid, **_given(args, scale="metric_scale"))


def _write_trace(outdir, reports):
    """newton_trace.jsonl: the Newton records of the reports, in order, one
    line each."""
    (outdir / "newton_trace.jsonl").write_text("".join(
        json.dumps(_doc(rec), sort_keys=True, allow_nan=False) + "\n"
        for rep in reports for rec in rep.trace))


def _cmd_verify_cone(args, outdir):
    report = verify_cone_inequalities(args.n, args.m, args.samples, args.seed)
    _write_json(outdir, "report.json", report)
    ok = report.all_pass()
    print(f"verify-cone n={args.n} m={args.m}: "
          f"{'all pass' if ok else 'VIOLATIONS'}, theta_hat={report.theta_hat:.6g}")
    return 0 if ok else 1


def _cmd_solve(args, outdir):
    grid, omega = _grid_metric(args)
    H = make_field(grid, parse_field_spec(args.H))
    u, report = solve_exponential(H, omega, args.m, _solver_config(args))
    write_field(outdir / "u.field", u, kind="u")
    _write_trace(outdir, [report])
    # diagnostic only: the second-order-vs-gradient constant is unknown
    _write_json(outdir, "report.json",
                _doc(report) | {"laplacian_gradient_ratio": laplacian_gradient_ratio(u)})
    print(f"solve: converged={report.converged} sup_u={report.sup_u:.6g} "
          f"inf_u={report.inf_u:.6g} wallclock={report.wallclock:.2f}s")
    return 0 if report.converged else 1


def _cmd_normalized(args, outdir):
    grid, omega = _grid_metric(args)
    f = make_field(grid, parse_field_spec(args.f))
    u, c, report = solve_normalized(
        f, omega, args.m, _parse_list(args.eps_schedule, float), _solver_config(args)
    )
    write_field(outdir / "u.field", u, kind="u")
    _write_json(outdir, "report.json", _doc(report) | {"c": c})
    _write_trace(outdir, [rep for _, rep in report.eps_path])
    print(f"normalized: converged={report.converged} c={c:.8g} "
          f"mismatch={report.final_mismatch:.3g} wallclock={report.wallclock:.2f}s")
    return 0 if report.converged else 1


def _cmd_envelope(args, outdir):
    grid, omega = _grid_metric(args)
    h = make_field(grid, parse_field_spec(args.h))
    w, report = msh_envelope(
        h, omega, args.m, _parse_list(args.eps_schedule, float), _solver_config(args)
    )
    write_field(outdir / "w.field", w, kind="w")
    _write_json(outdir, "report.json", report)
    _write_trace(outdir, [rep for _, rep in report.eps_path])
    print(f"envelope: converged={report.converged} "
          f"contact_fraction={report.contact_fraction:.4f} "
          f"wallclock={report.wallclock:.2f}s")
    return 0 if report.converged else 1


def _cmd_mms(args, outdir):
    rows, orders = mms_study(
        args.n, args.m, _parse_list(args.N_list, int),
        cfg=_solver_config(args), **_given(args, amplitude="amplitude"),
    )
    _write_json(outdir, "report.json", {"rows": rows, "observed_orders": orders})
    for r in rows:
        print(f"mms N={r.N}: sup_error={r.sup_error:.6e} "
              f"residual={r.final_residual:.2e} converged={r.converged}")
    if orders:
        print("observed orders: " + ", ".join(f"{o:.3f}" for o in orders))
    return 0 if all(r.converged for r in rows) else 1


def _cmd_stability_sweep(args, outdir):
    grid, omega = _grid_metric(args)
    f_terms = (parse_field_spec(args.f) if args.f
               else default_density_terms(grid.n))
    psi_terms = (parse_field_spec(args.psi) if args.psi
                 else default_direction_terms(grid.n))
    f = make_field(grid, f_terms)
    psi = make_field(grid, psi_terms)
    schedule = _given(args, eps_schedule="eps_schedule")  # unset: the sweep's own
    records = stability_sweep(
        f, psi, _parse_list(args.deltas, float), args.p, args.a,
        omega, args.m, _solver_config(args),
        **{key: _parse_list(text, float) for key, text in schedule.items()},
    )
    _write_csv(outdir, "records.csv",
               [f.name for f in dataclasses.fields(StabilityRecord)],
               [dataclasses.astuple(r) for r in records])
    ratios = [r.ratio for r in records if r.ratio > 0]
    _write_json(outdir, "summary.json", {
        "records": records,
        "max_ratio": max(ratios) if ratios else 0.0,
        "min_ratio": min(ratios) if ratios else 0.0,
    })
    for r in records:
        print(f"delta={r.delta:g}: lhs={r.lhs:.4e} rhs={r.rhs:.4e} ratio={r.ratio:.4f} "
              f"newton_steps={r.newton_steps}"
              f"{'' if r.converged else ' (solve not converged)'}")
    return 0 if all(r.converged for r in records) else 1


def _cmd_decay(args, outdir):
    grid, omega = _grid_metric(args)
    phi = make_field(grid, parse_field_spec(args.phi))
    data = phi.data - float(np.max(phi.data))  # normalize sup = 0
    report = sublevel_volume_decay(
        ScalarField(grid, data), _parse_list(args.t_list, float), omega, args.m
    )
    _write_csv(outdir, "table.csv", ["t", "fraction", "t_fraction"], report.rows)
    _write_json(outdir, "summary.json", report)
    print(f"decay: bounded={report.bounded} ratio={report.bound_ratio:.4f}")
    return 0 if report.bounded else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hessianlab",
        description="Numerical laboratory for complex m-Hessian equations "
                    "on flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: a config key such as "eps" must not pass for --eps-schedule
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")

    def grid_flags(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--metric-scale", dest="metric_scale", type=float, default=None)
        p.add_argument("--memory-cap", dest="memory_cap", type=int, default=None)

    def solver_flags(p):
        p.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
        p.add_argument("--t-steps", dest="t_steps", type=int, default=None)

    p = command("verify-cone", help="randomized cone inequality suite")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_cone)

    p = command("solve", help="exponential-type equation log sigma = u + H")
    common(p); grid_flags(p); solver_flags(p)
    p.add_argument("--H", required=True, help="field spec for H")
    p.set_defaults(func=_cmd_solve)

    p = command("normalized", help="sigma_m(u) = c f with sup u = 0")
    common(p); grid_flags(p); solver_flags(p)
    p.add_argument("--f", required=True, help="field spec for f (> 0)")
    p.add_argument("--eps-schedule", dest="eps_schedule",
                   default="1,0.3,0.1,0.03,0.01")
    p.set_defaults(func=_cmd_normalized)

    p = command("envelope", help="penalized m-subharmonic envelope")
    common(p); grid_flags(p); solver_flags(p)
    p.add_argument("--h", required=True, help="field spec for the obstacle")
    p.add_argument("--eps-schedule", dest="eps_schedule",
                   default="1,0.3,0.1,0.03,0.01")
    p.set_defaults(func=_cmd_envelope)

    p = command("mms", help="manufactured-solution convergence study")
    common(p); solver_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N-list", dest="N_list", default="8,16")
    p.add_argument("--amplitude", type=float, default=None)
    p.set_defaults(func=_cmd_mms)

    p = command("stability-sweep", help="perturbation stability ratios")
    common(p); grid_flags(p); solver_flags(p)
    p.add_argument("--f", default=None)
    p.add_argument("--psi", default=None)
    p.add_argument("--deltas", default="0.1,0.01,0.001")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--eps-schedule", dest="eps_schedule", default=None)
    p.set_defaults(func=_cmd_stability_sweep)

    p = command("decay", help="sublevel volume decay table")
    common(p); grid_flags(p)
    p.add_argument("--phi", required=True)
    p.add_argument("--t-list", dest="t_list", default="0.1,0.3,1,3")
    p.set_defaults(func=_cmd_decay)

    return parser


def _config_flags(argv):
    """The --config file named in argv as --key=value flags; an underscore in
    a key stands for a hyphen."""
    finder = argparse.ArgumentParser(prog="hessianlab", add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # missing or unreadable, or not JSON
        raise InputError(f"config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    flags = []
    for key, value in doc.items():
        # bool is an int, but no flag takes true or false
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise InputError(f"config key {key!r} takes a string or a number")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _parse_args(argv):
    """One parse of argv with the config file's flags ahead of the explicit ones."""
    if argv[:1] and argv[0] in _SUBCOMMANDS:
        argv = argv[:1] + _config_flags(argv[1:]) + argv[1:]
    return build_parser().parse_args(argv)


def main(argv=None):
    created = []  # the directories main makes for --out, deepest first
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        outdir = Path(args.out)
        created = list(itertools.takewhile(lambda p: not p.exists(), [outdir, *outdir.parents]))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise InputError(f"cannot create output directory {outdir}: {exc}") from exc
        code = args.func(args, outdir)
        _echo_config(args, outdir)
        return code
    except SystemExit as exc:  # argparse: 2 for a bad setting, 0 for --help
        return int(exc.code or 0)
    except InputError as exc:
        for path in created:  # an input fault leaves no empty directory behind
            try:
                path.rmdir()
            except OSError:  # not empty, or never made
                pass
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Parses line-oriented model-spec files, dispatches solve / sweep / verify /
exact-diagonalization runs, and emits deterministic machine-readable result
documents (no timestamps, floats at 17 significant digits, complex numbers as
(re, im) pairs).

Exit codes: 0 success, 1 usage error or validation failure, 2 convergence
failure, 3 verification failure, 4 a solve-dicke enumeration short of its
sector (the document is written, and verify passes its residuals).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, algebra, dicke, ed_oracle, rg_core, solver
from .errors import (
    ConvergenceError,
    GaudinError,
    SpecFormatError,
    ValidationError,
    VerificationError,
)

log = logging.getLogger("gaudin")

MODES = ("solve-rg", "solve-dicke", "sweep-xi", "verify", "ed-spectrum")
# the exit code of a document that holds fewer states than its sector
SHORT_COUNT = 4
FORMATS = ("structured-text", "tabular-text")

# keys accepted per model type in spec files
_DICKE_KEYS = {"model", "epsilons", "spins", "G", "hbar_omega", "N"}
_RG_KEYS = {"model", "kind", "etas", "spins", "degeneracies", "g", "N"}


def _fmt(x):
    """17-significant-digit float formatting, fixed across runs."""
    return "%.17g" % float(x)


def _fmt_complex(z):
    z = complex(z)
    return "(%s, %s)" % (_fmt(z.real), _fmt(z.imag))


def _parse_value(text, line_no):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise SpecFormatError("unterminated list", line=line_no)
        inner = text[1:-1].strip()
        if not inner:
            return []
        try:
            return [float(t) for t in inner.split(",")]
        except ValueError:
            raise SpecFormatError(f"non-numeric list entry in {text!r}", line=line_no)
    return text


def parse_kv_lines(lines):
    """Parse 'key = value' lines with # comments and [section] headers.

    Returns a list of (section, key, value) triples in file order; the section
    is None before the first header.
    """
    triples = []
    section = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise SpecFormatError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        triples.append((section, key.strip(), _parse_value(value, line_no)))
    return triples


def parse_spec(path):
    """Read a model-spec file into a DickeSpec or ModelSpec."""
    with open(path) as fh:
        triples = parse_kv_lines(fh)
    kv = {}
    for section, key, value in triples:
        if section is not None:
            continue
        if key in kv:
            raise SpecFormatError(f"duplicate key {key!r}")
        kv[key] = value
    return _spec_from_dict(kv)


def _list(kv, key):
    value = kv[key]
    if not isinstance(value, list):
        raise SpecFormatError(f"key {key!r} expects a list, got {value!r}")
    return tuple(value)


def _number(kv, key):
    value = kv[key]
    if isinstance(value, list):
        raise SpecFormatError(f"key {key!r} expects a number, got a list")
    try:
        return float(value)
    except ValueError:
        raise SpecFormatError(f"key {key!r} expects a number, got {value!r}")


def _integer(kv, key):
    value = _number(kv, key)
    if not value.is_integer():
        raise SpecFormatError(f"key {key!r} expects an integer, got {kv[key]!r}")
    return int(value)


def _spec_from_dict(kv):
    model = kv.get("model")
    if model == "dicke":
        unknown = set(kv) - _DICKE_KEYS
        if unknown:
            raise SpecFormatError(f"unknown keys for model=dicke: {sorted(unknown)}")
        for req in ("epsilons", "spins", "G", "hbar_omega", "N"):
            if req not in kv:
                raise SpecFormatError(f"model=dicke requires key {req!r}")
        return rg_core.DickeSpec(
            _list(kv, "epsilons"),
            _list(kv, "spins"),
            _number(kv, "G"),
            _number(kv, "hbar_omega"),
            _integer(kv, "N"),
        )
    if model == "rg":
        unknown = set(kv) - _RG_KEYS
        if unknown:
            raise SpecFormatError(f"unknown keys for model=rg: {sorted(unknown)}")
        for req in ("kind", "etas", "g", "N"):
            if req not in kv:
                raise SpecFormatError(f"model=rg requires key {req!r}")
        etas = _list(kv, "etas")
        if "spins" in kv and "degeneracies" in kv:
            levels = algebra.LevelSet(etas, _list(kv, "spins"), _list(kv, "degeneracies"))
        elif "spins" in kv:
            levels = algebra.LevelSet.from_spins(etas, _list(kv, "spins"))
        elif "degeneracies" in kv:
            levels = algebra.LevelSet.from_degeneracies(etas, _list(kv, "degeneracies"))
        else:
            raise SpecFormatError("model=rg requires 'spins' or 'degeneracies'")
        return rg_core.ModelSpec(
            levels, str(kv["kind"]), _integer(kv, "N"), _number(kv, "g")
        )
    raise SpecFormatError(f"model must be 'dicke' or 'rg', got {model!r}")


def emit_spec(spec):
    """Render a spec back to its file format; parse(emit(s)) == s."""
    lines = []
    if isinstance(spec, rg_core.DickeSpec):
        lines.append("model = dicke")
        lines.append("epsilons = [%s]" % ", ".join(_fmt(e) for e in spec.epsilons))
        lines.append("spins = [%s]" % ", ".join(_fmt(s) for s in spec.spins))
        lines.append("G = %s" % _fmt(spec.coupling_G))
        lines.append("hbar_omega = %s" % _fmt(spec.hbar_omega))
        lines.append("N = %d" % spec.n_excitations)
    elif isinstance(spec, rg_core.ModelSpec):
        lines.append("model = rg")
        lines.append("kind = %s" % spec.kind)
        lines.append("etas = [%s]" % ", ".join(_fmt(e) for e in spec.levels.etas))
        lines.append("spins = [%s]" % ", ".join(_fmt(s) for s in spec.levels.spins))
        lines.append("g = %s" % _fmt(spec.coupling_g))
        lines.append("N = %d" % spec.n_excitations)
    else:
        raise ValidationError(f"cannot emit spec of type {type(spec).__name__}")
    return "\n".join(lines) + "\n"


@dataclass
class RunConfig:
    mode: str
    spec_path: str
    out_path: str | None = None
    out_format: str = "structured-text"
    xi_steps: int = 1
    newton_tol: float = 1e-10
    boson_cutoff: int | None = None
    branch: int | None = None
    occupation: list | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.out_format not in FORMATS:
            raise ValidationError(f"unknown format {self.out_format!r}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ValidationError(
                f"--newton-tol must be finite and positive, got {self.newton_tol}"
            )
        if self.xi_steps < 1 or 1.0 / self.xi_steps < solver.MIN_STEP:
            raise ValidationError(
                f"--xi-steps must be >= 1 with a step 1/xi-steps >= {solver.MIN_STEP}, "
                f"got {self.xi_steps}"
            )
        # options the chosen mode would ignore
        for flag, given, modes in (
            ("--format tabular-text", self.out_format == "tabular-text", ("sweep-xi",)),
            ("--branch", self.branch is not None, ("solve-dicke",)),
            ("--occupation", self.occupation is not None,
             ("solve-rg", "solve-dicke", "sweep-xi")),
        ):
            if given and self.mode not in modes:
                raise ValidationError(f"{flag} applies only to --mode {' or '.join(modes)}")


def _policy(config):
    return solver.ContinuationPolicy(config.newton_tol, 1.0 / config.xi_steps)


def _boson_cutoff(config, spec):
    """--boson-cutoff, or N + 12 photons by default."""
    return spec.n_excitations + 12 if config.boson_cutoff is None else config.boson_cutoff


def _header(config, extra=()):
    lines = [
        "# gaudin result document",
        "format = %s" % config.out_format,
        "version = %s" % __version__,
        "mode = %s" % config.mode,
        "newton_tol = %s" % _fmt(config.newton_tol),
    ]
    lines.extend(extra)
    return lines


def _spec_section(spec):
    return ["[spec]"] + emit_spec(spec).rstrip("\n").split("\n")


def _environment_section(config):
    return [
        "[environment]",
        "package = gaudin %s" % __version__,
        "tolerance_newton = %s" % _fmt(config.newton_tol),
    ]


def run_solve_rg(config, spec):
    if not isinstance(spec, rg_core.ModelSpec):
        raise ValidationError("solve-rg needs a model=rg spec")
    final, report, trace = solver.solve_rg(spec, _policy(config),
                                           occupation=config.occupation)
    lines = _header(config)
    lines += [""] + _spec_section(spec)
    lines += ["", "[branch 0]"]
    if config.occupation is not None:
        lines.append("occupation = [%s]" % ", ".join(str(i) for i in config.occupation))
    for a, v in enumerate(final.values):
        lines.append("rapidity_%d = %s" % (a, _fmt_complex(v)))
    lines.append("residual_max_abs = %s" % _fmt(report.max_abs))
    lines.append("trace_points = %d" % len(trace.path))
    lines.append("trace_status = %s" % trace.status)
    lines += [""] + _environment_section(config)
    return "\n".join(lines) + "\n", 0


def _dicke_branch_records(spec, branches):
    """The [branch] records, each state checked against ED on its sector.

    The Bethe vectors and H's sector-N block are exact at any boson cutoff
    >= N, and both come from the sector tables 0 .. N of one
    dicke.bethe_ladder, whatever --boson-cutoff says: no product basis is
    built.  H's block is composed from the ladder's top step
    (dicke.sector_hamiltonian); the vectors are built
    (dicke.bethe_coefficients) and checked (eigencheck) a batch at a time,
    each (d, batch) block of at most ed_oracle.BLOCK_ELEMENTS entries, d the
    sector's dimension (one state at least)."""
    if not branches:
        return []
    ladder = dicke.bethe_ladder(spec)
    ham = dicke.sector_hamiltonian(spec, ladder)
    states = [dicke.BetheProductState(spec, b["rapidities"]) for b in branches]
    batch = max(1, ed_oracle.BLOCK_ELEMENTS // ladder.top.total_dim)
    checks = [ed_oracle.eigencheck(
        ham, dicke.bethe_coefficients(states[i:i + batch], spec.n_excitations, ladder)[0])
        for i in range(0, len(states), batch)]
    rayleigh, rel = (np.concatenate(parts) for parts in zip(*checks))
    lines = []
    for idx, b in enumerate(branches):
        lines += ["", "[branch %d]" % idx]
        if "evb_start" in b:
            lines.append("evb_start = [%s]" % ", ".join(str(k) for k in b["evb_start"]))
        else:
            lines.append("occupation = [%s]" % ", ".join(str(i) for i in b["occupation"]))
        for a, v in enumerate(b["rapidities"].values):
            lines.append("rapidity_%d = %s" % (a, _fmt_complex(v)))
        lines.append("residual_max_abs = %s" % _fmt(b["report"].max_abs))
        lines.append("rayleigh_energy = %s" % _fmt(rayleigh[idx]))
        lines.append("oracle_residual = %s" % _fmt(rel[idx]))
    return lines


def run_solve_dicke(config, spec):
    if not isinstance(spec, rg_core.DickeSpec):
        raise ValidationError("solve-dicke needs a model=dicke spec")
    policy = _policy(config)
    # the records do not depend on the cutoff; the header keeps it, for an
    # ed-spectrum run of the same spec to read
    header = ["boson_cutoff = %d" % _boson_cutoff(config, spec)]
    code = 0
    if config.occupation is not None:
        final, report, trace = solver.solve_dicke_branch(
            spec, config.occupation, policy=policy
        )
        branches = [
            {"occupation": config.occupation, "rapidities": final, "report": report}
        ]
    else:
        branches = solver.enumerate_dicke_branches(spec, policy=policy)
        expected = spec.sector_dimension()
        header += ["branches_expected = %d" % expected,
                   "branches_found = %d" % len(branches)]
        if len(branches) < expected:
            log.warning("solve-dicke found %d of %d states with N = %d",
                        len(branches), expected, spec.n_excitations)
            code = SHORT_COUNT
    if config.branch is not None:
        if not 0 <= config.branch < len(branches):
            raise ValidationError(
                f"branch index {config.branch} out of range for {len(branches)} branches"
            )
        branches = [branches[config.branch]]
    lines = _header(config, header)
    lines += [""] + _spec_section(spec)
    lines += _dicke_branch_records(spec, branches)
    lines += [""] + _environment_section(config)
    return "\n".join(lines) + "\n", code


def run_sweep_xi(config, spec):
    if not isinstance(spec, rg_core.ModelSpec):
        raise ValidationError("sweep-xi needs a model=rg spec")
    seeds = solver.solve_tda(spec, occupation=config.occupation)
    trace = solver.continue_in_xi(spec, _policy(config), seeds)
    rows = []
    for p in trace.path:
        cells = [_fmt(p.xi)]
        for v in p.rapidities.values:
            cells += [_fmt(v.real), _fmt(v.imag)]
        cells.append(_fmt(p.max_abs))
        rows.append("  ".join(cells))
    n = spec.n_excitations
    cols = ["xi"]
    for a in range(n):
        cols += ["re_x%d" % a, "im_x%d" % a]
    cols.append("residual_max_abs")
    if config.out_format == "tabular-text":
        text = "# " + "  ".join(cols) + "\n" + "\n".join(rows) + "\n"
    else:
        lines = _header(config, ["trace_status = %s" % trace.status])
        lines += [""] + _spec_section(spec)
        lines += ["", "[trace]", "columns = " + ", ".join(cols)]
        lines += ["row = " + r for r in rows]
        lines += [""] + _environment_section(config)
        text = "\n".join(lines) + "\n"
    code = 0 if trace.status == "converged" else 2
    return text, code


def run_ed_spectrum(config, spec):
    lines = _header(config)
    if isinstance(spec, rg_core.DickeSpec):
        cutoff = _boson_cutoff(config, spec)
        lines[-1:] = [lines[-1], "boson_cutoff = %d" % cutoff]
        basis = ed_oracle.HilbertBasis.dicke(spec, cutoff)
        ham = ed_oracle.realize(dicke.build_dicke_hamiltonian(spec), basis)
        lines += [""] + _spec_section(spec)
        lines += ["", "[spectrum]", "columns = sector, eigenvalue"]
        for m_val in sorted(set(basis.excitation_numbers())):
            for ev in ed_oracle.sector_spectrum(ham, m_val):
                lines.append("row = %d  %s" % (m_val, _fmt(ev)))
    else:
        charges = ed_oracle.realize_rg_charges(spec, 1.0)
        sectors = sorted(set(charges[0].basis.excitation_numbers()))
        lines += [""] + _spec_section(spec)
        lines += ["", "[spectrum]", "columns = charge, eigenvalue"]
        for i, op in enumerate(charges):
            evs = np.concatenate([ed_oracle.sector_spectrum(op, m) for m in sectors])
            for ev in np.sort(evs):
                lines.append("row = %d  %s" % (i, _fmt(ev)))
    lines += [""] + _environment_section(config)
    return "\n".join(lines) + "\n", 0


def _parse_complex_pair(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise SpecFormatError(f"expected (re, im) pair, got {text!r}")
    re_s, _, im_s = text[1:-1].partition(",")
    return complex(float(re_s), float(im_s))


def run_verify(config):
    """Re-read a result document and re-assert its residuals and energies.

    A rapidity tampered at the 1e-3 level drives the recomputed Bethe residual
    far above the acceptance threshold, so verification is discriminating; a
    smaller tamper still raises it above the recorded residual_max_abs by
    more than --newton-tol.  A solve-dicke document whose branches_found is
    below its branches_expected, every residual passing, reads `verdict =
    short` and exits SHORT_COUNT.
    """
    with open(config.spec_path) as fh:
        triples = parse_kv_lines(fh)
    spec_kv = {k: v for s, k, v in triples if s == "spec"}
    if not spec_kv:
        raise VerificationError("result document has no [spec] section")
    spec = _spec_from_dict(spec_kv)
    branch_ids = sorted(
        {s for s, _, _ in triples if s is not None and s.startswith("branch ")},
        key=lambda s: int(s.split()[1]),
    )
    if not branch_ids:
        raise VerificationError("result document has no branch records")
    failures = []
    checked = 0
    for bid in branch_ids:
        kv = {k: v for s, k, v in triples if s == bid}
        raps = []
        a = 0
        while "rapidity_%d" % a in kv:
            raps.append(_parse_complex_pair(kv["rapidity_%d" % a]))
            a += 1
        if not raps:
            failures.append((bid, "no rapidities recorded", None))
            continue
        if isinstance(spec, rg_core.DickeSpec):
            r = rg_core.RapiditySet(tuple(raps), rg_core.DICKE_X)
            report = rg_core.dicke_rg_residual(spec, r, jacobian=False)
        else:
            r = rg_core.RapiditySet(tuple(raps), rg_core.RG_ETA)
            report = rg_core.rg_residual(spec, r, jacobian=False)
        checked += 1
        if report.max_abs > 1e-6:
            worst = int(np.argmax(np.abs(report.residuals)))
            failures.append((bid, "residual %s" % _fmt(report.max_abs), worst))
            continue
        # the recorded residual was taken on the same 17-digit rapidities, so
        # the two differ by round-off only
        recorded = kv.get("residual_max_abs")
        if recorded is not None and report.max_abs > float(recorded) + config.newton_tol:
            failures.append((bid, "residual grew beyond recorded value", None))
    lines = _header(config)
    lines += ["", "[verify]"]
    lines.append("branches_checked = %d" % checked)
    lines.append("failures = %d" % len(failures))
    for bid, why, eq in failures:
        tail = "" if eq is None else " at equation %d" % eq
        lines.append("failure = %s: %s%s" % (bid, why, tail))
    header = {k: int(v) for s, k, v in triples if s is None and k.startswith("branches_")}
    short = header.get("branches_found", 0) < header.get("branches_expected", 0)
    verdict, code = ("fail", 3) if failures else ("short", SHORT_COUNT) if short else ("pass", 0)
    lines.append("verdict = %s" % verdict)
    lines += [""] + _environment_section(config)
    return "\n".join(lines) + "\n", code


def run(config):
    """Dispatch one run; returns (document text, exit code)."""
    if config.mode == "verify":
        return run_verify(config)
    spec = parse_spec(config.spec_path)
    if config.mode == "solve-rg":
        return run_solve_rg(config, spec)
    if config.mode == "solve-dicke":
        return run_solve_dicke(config, spec)
    if config.mode == "sweep-xi":
        return run_sweep_xi(config, spec)
    return run_ed_spectrum(config, spec)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every later
    one: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gaudin",
        description="Richardson-Gaudin / Dicke solver suite",
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--spec", required=True,
                        help="model-spec file (or result document for verify)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="structured-text", choices=FORMATS)
    parser.add_argument("--xi-steps", type=int, default=1,
                        help="cap continuation steps at 1/xi-steps (default 1: no cap); "
                             "the Dicke outer leg steps at most 0.1 at any value")
    parser.add_argument("--newton-tol", type=float, default=1e-10)
    parser.add_argument("--boson-cutoff", type=int, default=None)
    parser.add_argument("--branch", type=int, default=None,
                        help="emit only this branch index")
    parser.add_argument("--occupation", default=None,
                        help="comma-separated secular-root indices")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error on stderr
        return 0 if exc.code == 0 else 1
    level = os.environ.get("GAUDIN_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO),
                            stream=sys.stderr)
    occupation = None
    if args.occupation is not None:
        try:
            occupation = [int(t) for t in args.occupation.split(",")]
        except ValueError:
            print("error: --occupation must be comma-separated integers",
                  file=sys.stderr)
            return 1
    try:
        config = RunConfig(
            mode=args.mode,
            spec_path=args.spec,
            out_path=args.out,
            out_format=args.format,
            xi_steps=args.xi_steps,
            newton_tol=args.newton_tol,
            boson_cutoff=args.boson_cutoff,
            branch=args.branch,
            occupation=occupation,
        )
        text, code = run(config)
    except (SpecFormatError, ValidationError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print("convergence failure: %s" % exc, file=sys.stderr)
        return 2
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 3
    except GaudinError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

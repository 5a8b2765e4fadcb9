"""Rebuild the Dicke enumeration tables of ROADMAP's Baseline from their recipes.

Usage, from the root of a checkout:

    PYTHONPATH=src python tools/enumeration_table.py draw
    PYTHONPATH=src python tools/enumeration_table.py scale rand-20-2-0.25 even-24-2-0.25
    PYTHONPATH=src python tools/enumeration_table.py scale

`draw` runs the 80-spec mixed-spin draw, `scale` the spin-1/2 scale rows
named (all of them when none is named; some take minutes).  Each spec is
enumerated in process as solver.enumerate_dicke_branches does it: the EVB
states (solver._evb_branches), then the ladder's fill-in while the sector is
short (solver._ladder_branches).  One line per spec gives the sector size,
the EVB and ladder state counts, the seconds of each, and the orthonormality
error max |V^H V - I| of the states' unit Bethe vectors V on sector N
(dicke.bethe_coefficients): distinct eigenstates of the conserved charges are
orthogonal even where their energies are degenerate.  `draw` ends with the
totals and the specs that needed the ladder.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from gaudin import dicke, solver
from gaudin.rg_core import DickeSpec

# the spin-1/2 scale rows: (levels, m, N, G); "rand" levels are
# sort(default_rng(m).uniform(0.5, 1.5, m)), "even" ones linspace(0.5, 1.5, m)
SCALE_ROWS = (
    ("rand", 16, 2, 0.25), ("rand", 16, 3, 0.25), ("rand", 18, 2, 0.25),
    ("rand", 18, 3, 0.25), ("rand", 20, 1, 0.25), ("rand", 20, 2, 0.25),
    ("rand", 20, 2, 0.1), ("rand", 24, 1, 0.25), ("rand", 24, 2, 0.25),
    ("rand", 32, 1, 0.25), ("even", 20, 2, 0.25), ("even", 24, 2, 0.25),
    ("even", 24, 2, 0.1), ("even", 24, 3, 0.1), ("even", 32, 2, 0.1),
)


def draw_specs():
    """The 80-spec mixed-spin draw: default_rng(2026); per spec, in order, m
    from integers(2, 4), spins from choice([0.5, 1, 1.5, 2, 2.5], m), N from
    integers(1, 4), G from uniform(0.05, 0.5), levels from sort(uniform(0.5,
    1.5, m)) and hbar_omega from uniform(0.5, 1.5), the levels and
    hbar_omega rounded to 5 digits."""
    rng = np.random.default_rng(2026)
    specs = []
    for _ in range(80):
        m = int(rng.integers(2, 4))
        spins = tuple(float(s) for s in rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], m))
        n = int(rng.integers(1, 4))
        coupling = float(rng.uniform(0.05, 0.5))
        eps = tuple(float(e) for e in np.round(np.sort(rng.uniform(0.5, 1.5, m)), 5))
        specs.append(DickeSpec(eps, spins, coupling, round(float(rng.uniform(0.5, 1.5)), 5), n))
    return specs


def scale_spec(levels, m, n, coupling):
    """A spin-1/2 scale row's spec, hbar_omega 1."""
    if levels == "rand":
        eps = np.sort(np.random.default_rng(m).uniform(0.5, 1.5, m))
    else:
        eps = np.linspace(0.5, 1.5, m)
    return DickeSpec(tuple(float(e) for e in eps), (0.5,) * m, coupling, 1.0, n)


def row_name(levels, m, n, coupling):
    return f"{levels}-{m}-{n}-{coupling:g}"


def orthonormality_error(spec, branches):
    """max |V^H V - I| over the unit Bethe vectors of the branches."""
    states = [dicke.BetheProductState(spec, b["rapidities"]) for b in branches]
    v, _ = dicke.bethe_coefficients(states, spec.n_excitations)
    return float(np.max(np.abs(v.conj().T @ v - np.eye(len(states)))))


def enumerate_spec(spec):
    """(sector, EVB states, ladder states, EVB seconds, ladder seconds,
    orthonormality error) of one spec."""
    policy = solver.ContinuationPolicy()
    full = spec.sector_dimension()
    start = time.perf_counter()
    found = solver._evb_branches(spec, policy)
    middle = time.perf_counter()
    added = solver._ladder_branches(spec, policy, found) if len(found) < full else []
    end = time.perf_counter()
    return (full, len(found), len(added), middle - start, end - middle,
            orthonormality_error(spec, found + added))


def report(name, row):
    full, evb, ladder, evb_s, ladder_s, error = row
    print(f"{name:>16} {full:6d} {evb:6d} {ladder:6d} {evb_s:8.2f} {ladder_s:8.2f} "
          f"{error:9.1e}{'' if evb + ladder == full else '  short'}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("table", choices=("draw", "scale"))
    ap.add_argument("rows", nargs="*", help="scale rows to run, e.g. rand-20-2-0.25")
    args = ap.parse_args()
    print(f"{'spec':>16} {'sector':>6} {'evb':>6} {'ladder':>6} {'evb s':>8} "
          f"{'ladder s':>8} {'orth err':>9}")
    if args.table == "draw":
        rows = []
        for i, spec in enumerate(draw_specs()):
            rows.append(enumerate_spec(spec))
            report(f"#{i}", rows[-1])
        full, evb, ladder = (sum(r[k] for r in rows) for k in range(3))
        print(f"total: {evb + ladder} of {full} states, {evb} from EVB, {ladder} from the "
              f"ladder on {[i for i, r in enumerate(rows) if r[2]]}; "
              f"{sum(r[3] + r[4] for r in rows):.2f} s; largest orthonormality error "
              f"{max(r[5] for r in rows):.1e}")
        return
    names = {row_name(*row): row for row in SCALE_ROWS}
    unknown = [name for name in args.rows if name not in names]
    if unknown:
        ap.error(f"unknown rows {unknown}; rows are {list(names)}")
    for name in args.rows or names:
        report(name, enumerate_spec(scale_spec(*names[name])))


if __name__ == "__main__":
    main()

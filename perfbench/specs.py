"""Seeded model specs for the benchmark workloads, and their reference counts.

The shape of every workload (model, number of levels, spins, excitation
number, cutoff) is fixed here; only the values are drawn from the seed, with
Python's own `random` so that the same seed gives byte-identical spec files on
any platform.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("dicke-enum", "rg-large", "ed-oracle")

# dicke-enum base configurations.  Their values were drawn once from
# eps ~ U(0.5, 1.5), G ~ U(0.1, 0.35), hbar_omega ~ U(0.9, 1.1) and rounded,
# and picked among the draws on which the enumerator misses states (5 of 7
# and 5 of 6 at commit d6d30a4), so the known gap shows on every seed, and
# among those for short calls, so that a run holds several repeats.  The seed
# draws the energy unit c (a common scale of eps, G and hbar_omega).  The
# Bethe equations are covariant under it, so the solver takes nearly the same
# path on every seed while every number it prints differs.  Drawing the values
# themselves moved the solver's work by +-30% between seeds even at 1e-3
# relative jitter, more than any bound allows.
DICKE_ENUM_BASES = (
    ("m3-n2", (0.874, 1.054, 1.069), (0.5, 0.5, 0.5), 0.146, 0.916, 2),
    ("m2-n3-spin1", (0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3),
)

ED_BOSON_CUTOFF = 16


class Spec:
    """One generated input: the spec file text and how the workload runs it."""

    def __init__(self, name, mode, text, params, boson_cutoff=None):
        self.name = name
        self.mode = mode
        self.text = text
        self.params = params
        self.boson_cutoff = boson_cutoff

    def argv(self, spec_path, out_path):
        argv = ["--mode", self.mode, "--spec", spec_path, "--out", out_path]
        if self.boson_cutoff is not None:
            argv += ["--boson-cutoff", str(self.boson_cutoff)]
        return argv


def _list(values):
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def dicke_text(eps, spins, G, hbar_omega, n):
    return (
        "model = dicke\n"
        f"epsilons = {_list(eps)}\n"
        f"spins = {_list(spins)}\n"
        f"G = {float(G)!r}\n"
        f"hbar_omega = {float(hbar_omega)!r}\n"
        f"N = {int(n)}\n"
    )


def rg_text(etas, spins, g, n):
    return (
        "model = rg\n"
        "kind = rational\n"
        f"etas = {_list(etas)}\n"
        f"spins = {_list(spins)}\n"
        f"g = {float(g)!r}\n"
        f"N = {int(n)}\n"
    )


def _jittered_grid(rnd, m, lo, hi):
    """m levels on a uniform grid over [lo, hi], each moved by at most a
    quarter of the spacing, so they stay ordered and well separated."""
    h = (hi - lo) / (m - 1)
    return [lo + h * i + rnd.uniform(-0.25, 0.25) * h for i in range(m)]


def _dicke_enum(rnd):
    out = []
    for name, eps, spins, G, hw, n in DICKE_ENUM_BASES:
        c = 2.0 ** rnd.uniform(-0.5, 0.5)
        eps = [c * e for e in eps]
        params = {"epsilons": eps, "spins": list(spins), "G": c * G,
                  "hbar_omega": c * hw, "N": n}
        out.append(Spec(name, "solve-dicke", dicke_text(eps, spins, c * G, c * hw, n),
                        params))
    return out


def _rg_large(rnd):
    out = []
    for m in (32, 48):
        etas = _jittered_grid(rnd, m, 0.6, 1.4)
        g = rnd.uniform(-0.2, -0.08)
        spins = [1.0] * m
        params = {"etas": etas, "spins": spins, "g": g, "N": m // 2}
        out.append(Spec(f"m{m}-n{m // 2}", "solve-rg", rg_text(etas, spins, g, m // 2),
                        params))
    return out


def _ed_oracle(rnd):
    eps = _jittered_grid(rnd, 7, 0.5, 1.5)
    spins = [0.5] * 7
    G, hw = rnd.uniform(0.15, 0.3), rnd.uniform(0.9, 1.1)
    dicke = Spec("dicke-m7-cut16", "ed-spectrum", dicke_text(eps, spins, G, hw, 3),
                 {"epsilons": eps, "spins": spins, "G": G, "hbar_omega": hw, "N": 3},
                 boson_cutoff=ED_BOSON_CUTOFF)
    etas = _jittered_grid(rnd, 9, 0.6, 1.4)
    g = rnd.uniform(-0.2, -0.08)
    spins = [0.5] * 9
    rg = Spec("rg-m9", "ed-spectrum", rg_text(etas, spins, g, 4),
              {"etas": etas, "spins": spins, "g": g, "N": 4})
    return [dicke, rg]


def generate(workload, seed):
    """The workload's specs for this seed, in the order the workload runs them."""
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "dicke-enum":
        return _dicke_enum(rnd)
    if workload == "rg-large":
        return _rg_large(rnd)
    if workload == "ed-oracle":
        return _ed_oracle(rnd)
    raise ValueError(f"unknown workload {workload!r}")


def sector_dim(spins, n, boson_cutoff=None):
    """Number of basis states with n excitations: a boson count b (at most the
    cutoff) plus k_i raisings of spin i (0 <= k_i <= 2 s_i), b + sum k_i = n.

    This is the dimension of the excitation sector, so it is the number of
    Dicke eigenstates with n excitations; it needs no diagonalization.
    """
    count = 0
    ranges = [range(int(round(2 * s)) + 1) for s in spins]
    for ks in itertools.product(*ranges):
        b = n - sum(ks)
        if b >= 0 and (boson_cutoff is None or b <= boson_cutoff):
            count += 1
    return count


def spin_dim(spins):
    """Dimension of the spin tensor product, the size of every RG charge."""
    return math.prod(int(round(2 * s)) + 1 for s in spins)

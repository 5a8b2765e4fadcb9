"""Dicke enumeration in eigenvalue-based variables (gaudin.evb), on levels of
any spin, and the xi-continuation ladder that fills a short sector."""

import functools
import logging
import re

import numpy as np
import pytest

from gaudin import cli, dicke, ed_oracle, evb, rg_core, solver
from gaudin.errors import ConvergenceError, DomainError
from gaudin.rg_core import DICKE_X, DickeSpec, RapiditySet


def _random_spec(m, n, seed):
    eps = np.sort(np.random.default_rng(seed).uniform(0.5, 1.5, m))
    return DickeSpec(tuple(eps), (0.5,) * m, 0.25, 1.0, n)


def _sector(spec, cutoff):
    ham = ed_oracle.realize(dicke.build_dicke_hamiltonian(spec),
                            ed_oracle.HilbertBasis.dicke(spec, cutoff))
    return ham, ed_oracle.sector_spectrum(ham, spec.n_excitations)


def _energy_sum(spec, u):
    """sum_a x_a = N hbar_omega - 2 sum_k s_k U_k."""
    return spec.n_excitations * spec.hbar_omega - 2.0 * np.asarray(u) @ np.asarray(spec.spins)


def _energies(spec, branches):
    return np.array([np.sum(b["rapidities"].as_array().real) + spec.vacuum_energy()
                     for b in branches])


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 6) for n in range(1, 5)])
def test_evb_enumeration_matches_the_ed_sector(m, n):
    spec = _random_spec(m, n, seed=10 * m + n)
    branches = solver.enumerate_dicke_branches(spec)
    ham, sector = _sector(spec, n)
    assert len(branches) == len(sector) == spec.sector_dimension()
    energies = _energies(spec, branches)
    assert np.all(np.diff(energies) >= 0.0)
    assert np.max(np.abs(energies - sector)) < 1e-9
    for b in branches:
        assert b["report"].max_abs <= 1e-10
        assert len(b["evb_start"]) <= m
        v, _ = dicke.bethe_coefficients(dicke.BetheProductState(spec, b["rapidities"]), n)
        assert ed_oracle.eigencheck(ham, v)[1] < 1e-8


def _record_solve(monkeypatch):
    """Keep what every evb.Quadratics.solve returns."""
    runs = []
    solve = evb.Quadratics.solve

    def recording(self):
        out = solve(self)
        runs.append(out)
        return out

    monkeypatch.setattr(evb.Quadratics, "solve", recording)
    return runs


@pytest.mark.parametrize("spec", [
    pytest.param(_random_spec(10, 3, seed=0), id="random-levels"),
    # equally spaced, level 5 in resonance with the photon (eps_5 = hbar_omega)
    pytest.param(DickeSpec(tuple(0.5 + 0.1 * k for k in range(10)), (0.5,) * 10,
                           0.2, 1.0, 3), id="resonant-grid"),
])
def test_evb_m10_finds_all_176_states_from_176_distinct_endpoints(monkeypatch, spec):
    # one path per state of the sector: up to N = 3 of the 10 levels flipped
    runs = _record_solve(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    [(flips, ends, ok)] = runs
    assert flips.shape == ends.shape == (176, 10) and ok.all()
    assert flips.max() == 1 and flips.sum(axis=1).max() == 3
    assert len(evb.duplicates(ends, ok)) == 0
    _, sector = _sector(spec, 20)
    assert len(branches) == len(sector) == spec.sector_dimension() == 176
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


# specs of the 80-spec mixed-spin draw (default_rng(2026), see ROADMAP): the
# split levels and the ladder found 4 of 6 (#26) and 6 of 7 (#65), ran past
# 60 s (#73) and tracked 4096 paths for 4 states (#19); EVB alone comes up
# short on close high-spin levels (#7, #65), and the ladder fills them.
# And 13 spin-1/2 levels at N = 2, of whose 92 states the ladder found 90
SECTOR_SPECS = [
    pytest.param(DickeSpec((1.21783, 1.21879), (0.5, 1.0), 0.1833562480316897, 1.35055, 3),
                 id="mixed-26"),
    pytest.param(DickeSpec((1.08286, 1.29328, 1.32501), (1.5, 1.5, 1.0), 0.3643676337812122,
                           0.84996, 3), id="mixed-73"),
    pytest.param(DickeSpec((0.87214, 0.92019), (2.0, 2.5), 0.32967646683167195, 0.99483, 2),
                 id="mixed-7"),
    pytest.param(DickeSpec((0.91002, 0.91155), (0.5, 2.5), 0.18568913097337125, 1.20007, 3),
                 id="mixed-65"),
    pytest.param(DickeSpec((0.84379, 1.21739, 1.34223), (2.0, 1.5, 2.5), 0.3425747262443108,
                           1.18879, 1), id="mixed-19"),
    pytest.param(_random_spec(13, 2, seed=13), id="half-m13-n2"),
]


@pytest.mark.parametrize("spec", SECTOR_SPECS)
def test_every_state_matches_a_distinct_sector_eigenvalue(spec):
    branches = solver.enumerate_dicke_branches(spec)
    h_n = dicke.sector_hamiltonian(spec, dicke.bethe_ladder(spec))
    sector = np.linalg.eigvalsh(h_n.matrix)
    # both sorted: each state matches its own eigenvalue, with multiplicity
    assert len(branches) == len(sector) == spec.sector_dimension()
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9
    assert all(b["report"].max_abs <= 1e-10 for b in branches)


def test_evb_finds_the_states_the_ladder_missed():
    # the m3-n2 benchmark base, on which the xi-continuation ladder found 5 of 7
    spec = DickeSpec((0.874, 1.054, 1.069), (0.5,) * 3, 0.146, 0.916, 2)
    branches = solver.enumerate_dicke_branches(spec)
    _, sector = _sector(spec, 2)
    assert len(branches) == 7
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-12


def test_evb_endpoints_solve_the_quadratics():
    spec = _random_spec(4, 2, seed=3)
    q = evb.Quadratics(spec)
    flips, starts = q.starts()
    # at t = 0 the coupling vanishes and each level sits on one of its two
    # roots; one start per state of the sector, at most N = 2 levels flipped
    f0, _, _ = q.evaluate(starts, np.zeros(len(starts)))
    assert np.max(np.abs(f0)) < 1e-15
    assert len(set(map(tuple, flips))) == len(flips) == spec.sector_dimension() == 11
    assert flips.sum(axis=1).max() == 2
    _, ends, ok = q.solve()
    assert ok.all()
    f1, _, _ = q.evaluate(ends, np.ones(len(ends)))
    assert np.max(np.abs(f1)) < 1e-12
    # the physical endpoints carry the rapidities: U_k = G^2 sum_a 1/(eps_k - x_a)
    roots, rel = evb.heine_stieltjes(spec, ends)
    physical = rel <= 1e-6
    # every start of the sector reaches a physical endpoint
    assert physical.all()
    eps = np.asarray(spec.epsilons)
    for x, u in zip(roots[physical], ends[physical]):
        assert np.allclose(spec.coupling_G**2 * np.sum(1.0 / (eps[:, None] - x), axis=1),
                           u, atol=1e-9)
    assert np.allclose(_energy_sum(spec, ends[physical]),
                       np.sum(roots[physical], axis=1), atol=1e-9)


def test_evb_tangent_is_the_derivative_along_t():
    spec = _random_spec(3, 2, seed=5)
    q = evb.Quadratics(spec)
    u = np.random.default_rng(0).normal(size=(2, 3)) + 0.3j
    t, h = np.array([0.3, 0.8]), 1e-6
    f, jac, dfdt = q.evaluate(u, t)
    ahead, _, _ = q.evaluate(u, t + h)
    behind, _, _ = q.evaluate(u, t - h)
    assert np.allclose(dfdt, (ahead - behind) / (2 * h), atol=1e-8)
    du = 1e-7 * np.eye(3)
    for k in range(3):
        fk, _, _ = q.evaluate(u + du[k], t)
        assert np.allclose(jac[:, :, k], (fk - f) / 1e-7, atol=1e-6)


def _random_mixed_spec(rng):
    """One to four levels of spins 1/2 to 5/2, N = 1 to 4."""
    m = int(rng.integers(1, 5))
    return DickeSpec(tuple(np.sort(rng.uniform(0.5, 1.5, m))),
                     tuple(float(s) for s in rng.choice([0.5, 1.0, 1.5, 2.0, 2.5], m)),
                     float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.5, 1.5)),
                     int(rng.integers(1, 5)))


def test_the_jacobian_and_the_rate_match_finite_differences_on_mixed_spins():
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = evb.Quadratics(_random_mixed_spec(rng))
        size = len(q.level)
        u = 0.3 * (rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size)))
        t, h = rng.uniform(0.1, 0.9, 3), 1e-6
        f, jac, dfdt = q.evaluate(u, t)
        scale = 1.0 + np.max(np.abs(f))
        ahead, behind = q.evaluate(u, t + h)[0], q.evaluate(u, t - h)[0]
        assert np.max(np.abs(dfdt - (ahead - behind) / (2 * h))) < 1e-7 * scale
        for k in range(size):
            du = np.zeros(size)
            du[k] = h
            fd = (q.evaluate(u + du, t)[0] - q.evaluate(u - du, t)[0]) / (2 * h)
            assert np.max(np.abs(jac[:, :, k] - fd)) < 1e-7 * scale


def test_spin_half_rows_are_the_quadratics_f_k():
    # F_k = N g + (w(t) - eps_k) U_k - U_k^2 - g sum_{j != k} 2 s_j (U_k - U_j)/(eps_j - eps_k)
    rng = np.random.default_rng(12)
    for m in (1, 2, 5, 9):
        spec = _random_spec(m, int(rng.integers(1, 5)), seed=m)
        q = evb.Quadratics(spec)
        u = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
        t = rng.uniform(0.0, 1.0, 4)[:, None]
        g = spec.coupling_G**2 * t * (1.0 + 1j * evb.GAMMA * (1.0 - t))
        w = spec.hbar_omega + 1j * evb.SHIFT * spec.coupling_G**2 * (1.0 - t)
        eps = np.asarray(spec.epsilons)
        diff = eps[None, :] - eps[:, None]
        np.fill_diagonal(diff, 1.0)
        pair = 1.0 / diff
        np.fill_diagonal(pair, 0.0)
        terms = [spec.n_excitations * g, (w - eps) * u, u * u,
                 g * (u * pair.sum(axis=1)), g * (u @ pair.T)]
        want = terms[0] + terms[1] - terms[2] - terms[3] + terms[4]
        f = q.evaluate(u, t[:, 0])[0]
        assert np.max(np.abs(f - want)) <= 1e-15 * max(np.max(np.abs(x)) for x in terms)


def test_the_starts_solve_the_system_at_g_0_one_per_state_of_the_sector():
    rng = np.random.default_rng(13)
    for _ in range(30):
        spec = _random_mixed_spec(rng)
        q = evb.Quadratics(spec)
        flips, starts = q.starts()
        orders = np.rint(2 * np.asarray(spec.spins)).astype(int)
        assert len(flips) == len(starts) == spec.sector_dimension()
        assert len(set(map(tuple, flips))) == len(flips)
        assert np.all((flips >= 0) & (flips <= orders))
        assert np.all(flips.sum(axis=1) <= spec.n_excitations)
        # U_k = p_k a_k(0)/(2 s_k), a_k(0) = w(0) - eps_k
        a = spec.hbar_omega + 1j * evb.SHIFT * spec.coupling_G**2 - np.asarray(spec.epsilons)
        assert np.allclose(starts[:, :spec.m], flips * a / orders, rtol=1e-15, atol=0.0)
        f0, jac, _ = q.evaluate(starts, np.zeros(len(starts)))
        assert np.max(np.abs(f0)) < 1e-14
        # each start is a regular point of the system
        assert np.all(np.abs(np.linalg.det(jac)) > 0.0)


def test_duplicates_flags_both_members_of_a_pair():
    u = np.array([[0.0, 1.0], [0.5, 0.5], [1e-9, 1.0], [2.0, 2.0]], dtype=complex)
    ok = np.array([True, True, True, False])
    assert list(evb.duplicates(u, ok)) == [0, 2]
    assert list(evb.duplicates(u, np.array([True, True, False, True]))) == []


def test_a_duplicate_pair_left_after_the_last_round_keeps_one_member(monkeypatch):
    spec = _random_spec(3, 2, seed=5)
    track = evb.Quadratics.track

    def merging(self, u, max_step):
        # every round, the path of start 1 lands on the endpoint of start 0
        # (the later rounds re-track starts 0 and 1 only)
        ends, ok, capped = track(self, u, max_step)
        ends[1] = ends[0]
        return ends, ok, capped

    monkeypatch.setattr(evb.Quadratics, "track", merging)
    _, ends, ok = evb.Quadratics(spec).solve()
    assert list(evb.duplicates(ends, ok)) == [0, 1]
    # the pair's solution gives one state; the ladder finds the lost one
    evb_states = solver._evb_branches(spec, solver.ContinuationPolicy())
    assert len(evb_states) == spec.sector_dimension() - 1
    branches = solver.enumerate_dicke_branches(spec)
    assert len(branches) == spec.sector_dimension()
    assert sum("occupation" in b for b in branches) == 1
    _, sector = _sector(spec, spec.n_excitations)
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


# two levels 3.6e-4 or 6.3e-4 apart: a rapidity between them puts the Dicke
# residual's round-off floor above the default Newton tolerance of 1e-10
CLOSE_LEVELS = [
    pytest.param(DickeSpec((1.0681290930359935, 1.0684872530229335, 1.1306554981888381),
                           (0.5,) * 3, 0.4, 0.5181827784922527, 2), id="m3-n2"),
    pytest.param(DickeSpec((0.5193838307108201, 0.5263421784711265, 1.424452285328571,
                            1.425079181037499), (0.5,) * 4, 0.25, 0.6852495091330952, 4),
                 id="m4-n4"),
]


@pytest.mark.parametrize("spec", CLOSE_LEVELS)
def test_close_levels_keep_the_states_whose_polish_stalls_at_round_off(spec):
    branches = solver.enumerate_dicke_branches(spec)
    ham, sector = _sector(spec, spec.n_excitations)
    assert len(branches) == len(sector) == spec.sector_dimension()
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9
    # the states whose polish stalled are among them, with their residual
    assert 1e-10 < max(b["report"].max_abs for b in branches) < 1e-8
    for b in branches:
        v, _ = dicke.bethe_coefficients(
            dicke.BetheProductState(spec, b["rapidities"]), spec.n_excitations)
        assert ed_oracle.eigencheck(ham, v)[1] < 1e-8


def test_an_endpoint_where_solutions_nearly_meet_still_gives_its_state(monkeypatch):
    # three levels within 0.0033: one endpoint reads a Heine-Stieltjes
    # residual of 2.9e-6, where spurious endpoints read alike, and its polish
    # still gives its state
    spec = DickeSpec((0.5395928766642029, 0.704952555997677, 0.7051622850873662,
                      0.7082261522634622, 1.4172977047909026),
                     (0.5,) * 5, 0.18214731581500543, 0.8756015297312423, 3)
    runs = _record_solve(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    [(_, ends, ok)] = runs
    _, rel = evb.heine_stieltjes(spec, ends)
    assert np.sum(ok & (rel <= 1e-6)) == spec.sector_dimension() - 1 == 25
    assert np.sum(ok & (rel > 1e-6) & (rel <= 1e-3)) == 1
    _, sector = _sector(spec, 3)
    assert len(branches) == len(sector) == 26
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


def test_three_levels_within_0_018_give_all_57_states():
    # the endpoint of this spec that read 9e-6 behind an Euler predictor reads
    # below 1e-6 behind the Hermite one; all its states still come out
    spec = DickeSpec((0.5770838085005388, 0.6326962975467872, 0.7128309953403343,
                      0.9884492270855239, 1.000356430736871, 1.006064922529373),
                     (0.5,) * 6, 0.1, 0.7950064428055195, 4)
    branches = solver.enumerate_dicke_branches(spec)
    _, sector = _sector(spec, 4)
    assert len(branches) == len(sector) == 57
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


def test_evb_needs_a_coupling():
    with pytest.raises(DomainError):
        solver.enumerate_dicke_branches(DickeSpec((0.8, 1.3), (0.5, 0.5), 0.0, 1.0, 1))


@pytest.mark.parametrize("spins, n, expected", [
    ((0.5,), 1, 2), ((0.5,) * 3, 2, 7), ((0.5,) * 10, 3, 176), ((1.0, 0.5), 3, 6),
    ((1.0,), 1, 2), ((1.5, 1.0), 2, 6), ((0.5,) * 5, 7, 32),
])
def test_sector_dimension_counts_the_ed_sector(spins, n, expected):
    spec = DickeSpec(tuple(0.5 + 0.3 * k for k in range(len(spins))), spins, 0.2, 1.0, n)
    assert spec.sector_dimension() == expected
    if len(spins) <= 5:
        basis = ed_oracle.HilbertBasis.dicke(spec, n)
        assert len(basis.sector_indices(n)) == expected


def _grid_spec(m, n):
    return DickeSpec(tuple(0.5 + 0.07 * k for k in range(m)), (0.5,) * m, 0.2, 1.0, n)


def _tracked_batches(monkeypatch):
    """The number of paths of each Quadratics.track call, in order."""
    sizes, track = [], evb.Quadratics.track

    def counted(self, u, max_step):
        sizes.append(len(u))
        return track(self, u, max_step)

    monkeypatch.setattr(evb.Quadratics, "track", counted)
    return sizes


def test_the_evb_batch_is_bounded_by_the_sector(monkeypatch):
    # one path per state: 13 levels at N = 6 start 2^12 paths, and at N = 1
    # they track their 14 states, not 2^13 subsets, in one batch
    assert len(evb.Quadratics(_grid_spec(13, 6)).starts()[0]) == 2**12
    spec = _grid_spec(13, 1)
    sizes = _tracked_batches(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    assert sizes[0] == len(branches) == spec.sector_dimension() == 14
    assert all("evb_start" in b for b in branches)
    # a batch's (paths, 2, M, M + 2) system matrices hold at most
    # BLOCK_ELEMENTS entries: room for 5 paths of M = 13 tracks 5, 5 and 4
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", 5 * 2 * 13 * 15 + 1)
    sizes.clear()
    evb.Quadratics(spec).solve()
    assert sizes[:3] == [5, 5, 4]
    # a path larger than the bound is a batch of its own
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", 1)
    sizes.clear()
    evb.Quadratics(_grid_spec(3, 1)).solve()
    assert sizes[:4] == [1, 1, 1, 1]


def test_specs_on_each_side_of_the_batch_bound_enumerate(monkeypatch):
    # with room for 8 paths a batch, 7 states fit one batch and 10 take two;
    # both sectors come from EVB alone
    sizes = _tracked_batches(monkeypatch)
    for spec, batches in ((_grid_spec(3, 2), [7]), (_grid_spec(9, 1), [8, 2])):
        size = len(spec.epsilons)
        monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", 8 * 2 * size * (size + 2))
        sizes.clear()
        branches = solver.enumerate_dicke_branches(spec)
        assert sizes[:len(batches)] == batches
        assert len(branches) == spec.sector_dimension()
        assert all("evb_start" in b for b in branches)


def test_a_sector_tracked_in_batches_gives_the_states_of_one_batch(monkeypatch, caplog):
    # M = 6 unknowns, 15 states; room for 4 paths splits them into 4 batches.
    # Batches of other sizes round differently, so the endpoints agree as
    # states, not bit for bit
    spec = DickeSpec((0.62, 0.97, 1.31), (0.5, 1.0, 1.5), 0.2, 1.05, 3)
    whole = solver.enumerate_dicke_branches(spec)
    sizes = _tracked_batches(monkeypatch)
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", 4 * 2 * 6 * 8)
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        split = solver.enumerate_dicke_branches(spec)
    assert sizes[:4] == [4, 4, 4, 3]
    assert "evb round 0: 15 paths" in caplog.text
    assert "; 4 batches of at most 4 paths" in caplog.text
    assert len(whole) == len(split) == spec.sector_dimension() == 15
    assert all("evb_start" in b for b in whole + split)
    assert np.max(np.abs(_energies(spec, whole) - _energies(spec, split))) < 1e-10
    assert sorted(b["evb_start"] for b in whole) == sorted(b["evb_start"] for b in split)
    _, sector = _sector(spec, spec.n_excitations)
    assert np.max(np.abs(_energies(spec, split) - sector)) < 1e-9


SPIN_ONE_SPEC = """\
model = dicke
epsilons = [1.0]
spins = [1.0]
G = 0.5
hbar_omega = 1.0
N = 1
"""

JC_SPEC = SPIN_ONE_SPEC.replace("spins = [1.0]", "spins = [0.5]")

HEADER_KEYS = {"format", "version", "mode", "newton_tol", "boson_cutoff",
               "branches_expected", "branches_found"}


def _document(tmp_path, text, code=0):
    path = tmp_path / "model.spec"
    path.write_text(text)
    doc, got = cli.run(cli.RunConfig("solve-dicke", str(path)))
    assert got == code
    return cli.parse_kv_lines(doc.splitlines())


def test_solve_dicke_document_records_its_counts(tmp_path):
    triples = _document(tmp_path, JC_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    # no key names a method or a level spacing: every spec runs one system
    assert set(header) == HEADER_KEYS
    assert header["branches_expected"] == header["branches_found"] == "2"
    starts = sorted(tuple(v) for s, k, v in triples if k == "evb_start")
    assert starts == [(), (0.0,)]
    assert not any(k == "occupation" for _, k, _ in triples)


def test_spin_one_spec_enumerates_on_its_own_level(tmp_path):
    triples = _document(tmp_path, SPIN_ONE_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    assert header["branches_expected"] == header["branches_found"] == "2"
    assert set(header) == HEADER_KEYS
    # the level is listed once per flip at the start of its path
    starts = sorted(tuple(v) for s, k, v in triples if k == "evb_start")
    assert starts == [(), (0.0,)]
    assert not any(k == "occupation" for _, k, _ in triples)


def test_close_high_spin_levels_run_on_evb():
    # a spin-1 pair 3e-3 apart, and a spin-7 level (14 unknowns): one
    # system each, and every state from its own start
    for spec, states in ((DickeSpec((1.0, 1.003), (1.0, 1.0), 0.2, 1.0, 2), 6),
                         (DickeSpec((1.0,), (7.0,), 0.2, 1.0, 2), 3)):
        branches = solver.enumerate_dicke_branches(spec)
        _, sector = _sector(spec, spec.n_excitations)
        assert len(branches) == len(sector) == spec.sector_dimension() == states
        assert all("evb_start" in b for b in branches)
        assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


CLOSE_SPIN_ONE_PAIR = """\
model = dicke
epsilons = [1.0, 1.001]
spins = [1.0, 1.0]
G = 0.2
hbar_omega = 1.0
N = 1
"""


def test_the_close_spin_one_pair_gives_its_middle_state(tmp_path, caplog):
    # the state whose rapidity sits between the levels 1e-3 apart has an
    # endpoint whose Heine-Stieltjes residual reads above 1e-3, as no
    # physical endpoint does; its polish gives the state all the same
    spec, doc, checked = tmp_path / "pair.spec", tmp_path / "pair.out", tmp_path / "pair.verify"
    spec.write_text(CLOSE_SPIN_ONE_PAIR)
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        assert cli.main(["--mode", "solve-dicke", "--spec", str(spec), "--out", str(doc)]) == 0
    assert _evb_summary(caplog.text)[:-1] == ("3 of 3", "3", "3", "0", "0")
    assert float(_evb_summary(caplog.text)[-1]) > 1e-3
    triples = cli.parse_kv_lines(doc.read_text().splitlines())
    header = {k: v for s, k, v in triples if s is None}
    assert header["branches_expected"] == header["branches_found"] == "3"
    records = [{k: v for s, k, v in triples if s == "branch %d" % i} for i in range(3)]
    middle = records[1]
    assert middle["evb_start"] == [1.0]
    assert float(middle["rayleigh_energy"]) == pytest.approx(-1.0005, abs=1e-6)
    assert max(float(r["oracle_residual"]) for r in records) < 1e-8
    assert cli.main(["--mode", "verify", "--spec", str(doc), "--out", str(checked)]) == 0
    assert "verdict = pass" in checked.read_text().splitlines()


def test_solve_dicke_branch_polishes_by_the_enumerations_rule(monkeypatch):
    # its last point goes through _polish, as every enumerated state does: a
    # polish that stalls at the round-off floor of close levels counts
    tolerances, polish = [], solver._polish

    def counted(residual_fn, w0, tol):
        tolerances.append(tol)
        return polish(residual_fn, w0, tol)

    monkeypatch.setattr(solver, "_polish", counted)
    spec = DickeSpec((1.0, 1.001), (1.0, 1.0), 0.2, 1.0, 1)
    final, report, trace = solver.solve_dicke_branch(spec, [0])
    assert tolerances == [solver.ContinuationPolicy().newton_tol]
    assert trace.final.xi == 0.0 and trace.final.max_abs == report.max_abs <= 1e-10


def _orthonormality_error(spec, branches):
    """max |V^H V - I| over the unit Bethe vectors V of the branches: the
    check that holds where energies are degenerate, since distinct
    eigenstates of the conserved charges are orthogonal."""
    states = [dicke.BetheProductState(spec, b["rapidities"]) for b in branches]
    v, _ = dicke.bethe_coefficients(states, spec.n_excitations)
    return np.max(np.abs(v.conj().T @ v - np.eye(len(states))))


def test_evb_gives_six_states_at_random_m20_n1():
    # 6 of the 21 paths track, and every one of their endpoints reads a
    # Heine-Stieltjes residual above 1e-6; each polishes into its own state
    spec = _random_spec(20, 1, seed=20)
    branches = solver._evb_branches(spec, solver.ContinuationPolicy())
    assert spec.sector_dimension() == 21
    assert len(branches) == 6
    assert _orthonormality_error(spec, branches) < 1e-8


def _mixed_draw():
    """The 80-spec mixed-spin draw of ROADMAP's Baseline: the levels and
    hbar_omega rounded to 5 digits, G not."""
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


def test_the_mixed_spin_draw_is_complete():
    # as enumerate_dicke_branches runs it: EVB, then the ladder's fill-in
    policy = solver.ContinuationPolicy()
    from_evb = from_ladder = 0
    ladder = set()
    for i, spec in enumerate(_mixed_draw()):
        found = solver._evb_branches(spec, policy)
        short = len(found) < spec.sector_dimension()
        added = solver._ladder_branches(spec, policy, found) if short else []
        assert len(found) + len(added) == spec.sector_dimension()
        assert _orthonormality_error(spec, found + added) < 1e-8
        from_evb += len(found)
        from_ladder += len(added)
        if added:
            ladder.add(i)
    assert from_evb + from_ladder == 634
    assert from_evb >= 599
    # EVB completes every spec it completed when only the endpoints whose
    # Heine-Stieltjes residual read up to 1e-3 were polished
    assert ladder <= {7, 17, 19, 42, 50, 65, 66, 78}


# mixed-spin specs; (0.8, 1.2) at spins (5/2, 5/2) and hbar_omega = 1 has a
# degenerate pair at E = -2
MIXED_SPECS = [
    pytest.param(DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3), id="m2-n3-spin1"),
    pytest.param(DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3), id="spin1-half"),
    pytest.param(DickeSpec((1.0,), (2.5,), 0.3, 1.0, 4), id="one-spin5half"),
    pytest.param(DickeSpec((0.8, 1.2), (2.5, 2.5), 0.2, 1.0, 3), id="two-spin5half"),
    pytest.param(DickeSpec((0.6, 1.0, 1.4), (0.5, 1.0, 0.5), 0.25, 1.1, 3), id="half-one-half"),
]


@functools.cache
def _mixed_branches(spec):
    return solver.enumerate_dicke_branches(spec)


@pytest.mark.parametrize("spec", MIXED_SPECS)
def test_mixed_spins_enumerate_the_ed_sector(spec):
    branches = _mixed_branches(spec)
    ham, sector = _sector(spec, spec.n_excitations)
    assert len(branches) == len(sector) == spec.sector_dimension()
    # both sorted: each branch matches its own eigenvalue, with multiplicity
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9
    sizes = [round(2 * s) for s in spec.spins]
    vectors = []
    for b in branches:
        assert b["report"].max_abs <= 1e-10
        assert all(b["evb_start"].count(k) <= n for k, n in enumerate(sizes))
        v, _ = dicke.bethe_coefficients(
            dicke.BetheProductState(spec, b["rapidities"]), spec.n_excitations)
        assert ed_oracle.eigencheck(ham, v)[1] < 1e-8
        vectors.append(v)
    # the Bethe vectors are orthonormal, a degenerate pair included
    gram = np.array(vectors).conj() @ np.array(vectors).T
    assert np.max(np.abs(gram - np.eye(len(vectors)))) < 1e-8


def test_the_spin_one_base_gives_the_state_the_ladder_missed():
    spec = DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3)
    branches = _mixed_branches(spec)
    real = [b for b in branches if np.max(np.abs(b["rapidities"].as_array().imag)) < 1e-10]
    [state] = real
    assert np.allclose(np.sort(state["rapidities"].as_array().real),
                       (0.5889, 1.0692, 1.2744), atol=5e-5)
    assert _energies(spec, [state])[0] == pytest.approx(1.62993, abs=1e-5)


@pytest.mark.parametrize("spec", MIXED_SPECS[1:])
def test_branches_carry_eigenvalues_of_every_dicke_charge(spec):
    """r_k = r_k(vacuum) + 2 s_k U_k is an eigenvalue of the k-th charge."""
    branches = _mixed_branches(spec)
    basis = ed_oracle.HilbertBasis.dicke(spec, spec.n_excitations)
    eps, spins = np.asarray(spec.epsilons), np.asarray(spec.spins)
    g2 = spec.coupling_G**2
    u = np.array([evb.eigenvalue_variables(spec, b["rapidities"].as_array())
                  for b in branches])
    for k in range(spec.m):
        charge = ed_oracle.realize(dicke.build_dicke_charge(spec, k + 1), basis)
        values = ed_oracle.sector_spectrum(charge, spec.n_excitations)
        others = np.arange(spec.m) != k
        vacuum = spins[k] * (eps[k] - spec.hbar_omega
                             + np.sum(2.0 * g2 * spins[others] / (eps[others] - eps[k])))
        for r in vacuum + 2.0 * spins[k] * u[:, k]:
            assert np.min(np.abs(values - r)) < 1e-9


def _short_by_one(monkeypatch):
    enumerate_all = solver.enumerate_dicke_branches
    monkeypatch.setattr(solver, "enumerate_dicke_branches",
                        lambda spec, policy=None: enumerate_all(spec, policy)[1:])


def test_short_enumeration_is_reported(tmp_path, monkeypatch, caplog):
    _short_by_one(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gaudin"):
        triples = _document(tmp_path, JC_SPEC, code=cli.SHORT_COUNT)
    header = {k: v for s, k, v in triples if s is None}
    assert (header["branches_expected"], header["branches_found"]) == ("2", "1")
    assert "found 1 of 2 states" in caplog.text


def test_a_short_count_exits_4_from_solve_dicke_and_from_verify(tmp_path, monkeypatch):
    spec, doc, checked = tmp_path / "jc.spec", tmp_path / "jc.out", tmp_path / "jc.verify"
    spec.write_text(JC_SPEC)
    _short_by_one(monkeypatch)
    # the document is written, with its one state
    assert cli.main(["--mode", "solve-dicke", "--spec", str(spec), "--out", str(doc)]) == 4
    assert "branches_found = 1" in doc.read_text().splitlines()
    # its residual passes, and verify reads the short count
    assert cli.main(["--mode", "verify", "--spec", str(doc), "--out", str(checked)]) == 4
    lines = checked.read_text().splitlines()
    assert "failures = 0" in lines and "verdict = short" in lines
    # a failing residual is a verification failure, whatever the count
    text = doc.read_text()
    target = next(line for line in text.splitlines() if line.startswith("rapidity_0"))
    doc.write_text(text.replace(target, "rapidity_0 = (0.25, 0)"))
    assert cli.main(["--mode", "verify", "--spec", str(doc), "--out", str(checked)]) == 3
    assert "verdict = fail" in checked.read_text().splitlines()
    # a complete document passes
    monkeypatch.undo()
    assert cli.main(["--mode", "solve-dicke", "--spec", str(spec), "--out", str(doc)]) == 0
    assert cli.main(["--mode", "verify", "--spec", str(doc), "--out", str(checked)]) == 0
    assert "verdict = pass" in checked.read_text().splitlines()


def test_evb_rounds_are_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        solver.enumerate_dicke_branches(DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2))
    assert ("evb round 0: 4 paths at step cap 0.3, 0 failed (0 at the attempt cap), "
            "0 duplicate; 1 batches of at most 4 paths") in caplog.text
    assert _evb_summary(caplog.text)[:-1] == ("4 of 4", "4", "4", "0", "0")
    # every endpoint is physical
    assert float(_evb_summary(caplog.text)[-1]) < 1e-6
    # a full sector runs no ladder
    assert "ladder" not in caplog.text
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        solver.enumerate_dicke_branches(SPIN_ONE_ENUM)
    assert "evb round 0: 6 paths" in caplog.text
    assert _evb_summary(caplog.text)[:-1] == ("6 of 6", "6", "6", "0", "0")
    assert float(_evb_summary(caplog.text)[-1]) < 1e-6


def _evb_summary(text):
    """The fields of _evb_branches' DEBUG line: endpoints tracked of all,
    states, polishes tried, failed and left, and the largest Heine-Stieltjes
    residual of a kept state."""
    [fields] = re.findall(
        r"evb: (\d+ of \d+) endpoints tracked, (\d+) states; (\d+) polished, (\d+) "
        r"failed, (\d+) left once the sector was full; largest Heine-Stieltjes residual "
        r"of a kept state (\S+)", text)
    return fields


# the dicke-enum benchmark's spin-1 spec at seed 0
SPIN_ONE_ENUM = DickeSpec((0.5005841988931976, 0.8942121808717152), (1.0, 0.5),
                          0.11495974335047272, 0.6948516132892497, 3)


def test_a_path_past_the_attempt_cap_fails_and_the_ladder_fills_the_sector(monkeypatch,
                                                                          caplog):
    spec = DickeSpec((0.6, 1.0, 1.4), (0.5, 1.0, 0.5), 0.25, 1.1, 1)
    _, sector = _sector(spec, spec.n_excitations)
    # 8 attempts stop 2 of the 4 paths in every round, 4 stop all of them
    for cap, stopped in ((8, 2), (4, 4)):
        monkeypatch.setattr(evb, "MAX_ATTEMPTS", cap)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gaudin"):
            branches = solver.enumerate_dicke_branches(spec)
        for r, paths in enumerate((4, stopped, stopped)):
            assert (f"evb round {r}: {paths} paths at step cap {evb.MAX_STEP / 4**r:.3g}, "
                    f"{stopped} failed ({stopped} at the attempt cap)") in caplog.text
        assert f"ladder: {stopped} states added to {4 - stopped} from evb, of 4" in caplog.text
        assert sum("occupation" in b for b in branches) == stopped
        assert len(branches) == len(sector) == 4
        assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


def _mixed_spec(seed):
    """A spec of one to three levels on a grid of spacing 0.25, jittered,
    spins 1/2 to 3/2 with at least one above 1/2, N = 1 to 3."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    spins = tuple(float(s) for s in rng.choice([0.5, 1.0, 1.5], m))
    if max(spins) == 0.5:
        spins = (1.0,) + spins[1:]
    eps = np.sort(0.5 + 0.25 * rng.permutation(5)[:m] + rng.uniform(-0.05, 0.05, m))
    return DickeSpec(tuple(eps), spins, float(rng.uniform(0.1, 0.3)),
                     float(rng.uniform(0.8, 1.3)), int(rng.integers(1, 4)))


def test_the_sector_stop_changes_no_result(monkeypatch):
    specs = [_mixed_spec(seed) for seed in range(24)]
    sizes = [spec.sector_dimension() for spec in specs]
    policy = solver.ContinuationPolicy()
    # every endpoint twice, as when two paths of a round meet one solution:
    # each state has two candidates, and the stop leaves one of them
    solve = evb.Quadratics.solve

    def twice(self):
        flips, ends, ok = solve(self)
        return (np.concatenate((flips, flips)), np.concatenate((ends, ends)),
                np.concatenate((ok, ok)))

    monkeypatch.setattr(evb.Quadratics, "solve", twice)
    polishes, polish = [], solver._polish

    def counted(*args):
        polishes.append(args)
        return polish(*args)

    monkeypatch.setattr(solver, "_polish", counted)
    stopped = [solver._evb_branches(spec, policy) for spec in specs]
    assert [len(b) for b in stopped] == sizes
    assert all("evb_start" in b for found in stopped for b in found)
    stopped_polishes = len(polishes)
    # no sector is ever full: every candidate is polished
    monkeypatch.setattr(DickeSpec, "sector_dimension", lambda self: 10**9)
    polished_all = [solver._evb_branches(spec, policy) for spec in specs]
    assert len(polishes) - stopped_polishes == 2 * sum(sizes)
    assert stopped_polishes == 2 * sum(sizes) - len(specs)
    for spec, a, b in zip(specs, stopped, polished_all):
        assert len(a) == len(b)
        # the same states from the same endpoints, so the same energies
        for x, y in zip(a, b):
            assert x["rapidities"] == y["rapidities"]
            assert x["evb_start"] == y["evb_start"]


def test_the_ladder_stops_at_a_full_sector(monkeypatch, caplog):
    spec = DickeSpec((0.7, 1.2), (0.5, 0.5), 0.2, 1.0, 2)
    attempts = []

    def branch(spec, occupation, policy, xi_start):
        # a distinct state per pattern
        attempts.append((tuple(occupation), xi_start))
        x = RapiditySet(tuple(0.3 + 0.5 * k + 0.01j * a for a, k in enumerate(occupation)),
                        DICKE_X)
        return x, None, None

    monkeypatch.setattr(solver, "solve_dicke_branch", branch)
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        branches = solver._ladder_branches(spec, solver.ContinuationPolicy())
    # three extended roots give six patterns; the sector holds four states
    assert spec.sector_dimension() == len(branches) == len(attempts) == 4
    assert "ladder: the sector is full at 4 states; 2 patterns left at xi_start 1" \
        in caplog.text


def test_the_ladder_retries_a_failed_and_a_relabeled_pattern_further_down(monkeypatch,
                                                                           caplog):
    spec = DickeSpec((0.7, 1.2), (0.5, 0.5), 0.2, 1.0, 2)
    states = {"A": (0.3, 0.5), "B": (0.3, 1.5), "C": (0.9, 1.5), "D": (1.6, 1.9)}
    # per xi_start, the state each pattern lands on; None raises.  (0, 2) and
    # (1, 2) relabel onto kept states at xi_start 1, (2, 2) fails there
    lands = {1.0: {(0, 0): "A", (0, 1): "B", (0, 2): "A", (1, 1): "C", (1, 2): "C",
                   (2, 2): None},
             0.5: {(0, 2): "A", (1, 2): None, (2, 2): "D"}}
    attempts = []

    def branch(spec, occupation, policy, xi_start):
        attempts.append((tuple(occupation), xi_start))
        state = lands[xi_start][tuple(occupation)]
        if state is None:
            raise ConvergenceError("outer continuation stalled")
        return RapiditySet(states[state][::-1], DICKE_X), None, None

    monkeypatch.setattr(solver, "solve_dicke_branch", branch)
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        branches = solver._ladder_branches(spec, solver.ContinuationPolicy())
    assert [b["occupation"] for b in branches] == [[0, 0], [0, 1], [1, 1], [2, 2]]
    assert branches[3]["rapidities"].values == (1.9, 1.6)
    # the failed pattern and both relabeled ones are tried again at 0.5, in
    # their order; (0, 2) relabels again and waits with (1, 2) for 0.25, where
    # the full sector stops the ladder before any attempt
    assert attempts == [(p, 1.0) for p in lands[1.0]] + [(p, 0.5) for p in lands[0.5]]
    assert "ladder: the sector is full at 4 states; 2 patterns left at xi_start 0.25" \
        in caplog.text


def test_the_ladder_keeps_one_branch_per_state(monkeypatch):
    spec = DickeSpec((0.7, 1.2), (0.5, 0.5), 0.2, 1.0, 2)
    pair = (0.3 + 0.1j, 0.3 - 0.1j)

    def branch(spec, occupation, policy, xi_start):
        # patterns (0, 0) and (0, 1) land on one state, its rapidities in the
        # other order and 1e-12 apart; every other pattern on a state of its own
        if tuple(occupation) == (0, 0):
            x = pair
        elif tuple(occupation) == (0, 1):
            x = (pair[1] + 1e-12, pair[0])
        else:
            x = tuple(0.3 + 0.5 * k + 0.01j * a for a, k in enumerate(occupation))
        return RapiditySet(x, DICKE_X), None, None

    monkeypatch.setattr(solver, "solve_dicke_branch", branch)
    branches = solver._ladder_branches(spec, solver.ContinuationPolicy())
    assert [b["occupation"] for b in branches] == [[0, 0], [0, 2], [1, 1], [1, 2]]


@pytest.mark.parametrize("spec", [
    pytest.param(DickeSpec((0.874, 1.054, 1.069), (0.5,) * 3, 0.146, 0.916, 2), id="m3-n2"),
    pytest.param(DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3), id="m2-n3-spin1"),
])
def test_documents_list_rapidities_in_one_order_whatever_the_roots_order(tmp_path,
                                                                         monkeypatch, spec):
    # the roots of P come in an order that round-off sets for the members of
    # a conjugate pair; reversing every endpoint's roots moves no rapidity of
    # a document from its place
    path = tmp_path / "dicke.spec"
    path.write_text(cli.emit_spec(spec))

    def rapidities():
        doc, code = cli.run(cli.RunConfig("solve-dicke", str(path)))
        assert code == 0
        return [(s, k, cli._parse_complex_pair(v))
                for s, k, v in cli.parse_kv_lines(doc.splitlines()) if k.startswith("rapidity_")]

    found = rapidities()
    heine_stieltjes = evb.heine_stieltjes

    def reversed_roots(spec, ends):
        roots, rel = heine_stieltjes(spec, ends)
        return roots[:, ::-1], rel

    monkeypatch.setattr(evb, "heine_stieltjes", reversed_roots)
    again = rapidities()
    assert [key for *key, _ in again] == [key for *key, _ in found]
    assert max(abs(a[2] - b[2]) for a, b in zip(found, again)) <= 1e-12
    assert any(abs(x.imag) > 1e-3 for *_, x in found)


def test_polished_rapidities_match_their_endpoint():
    spec = _random_spec(3, 2, seed=7)
    for b in solver.enumerate_dicke_branches(spec):
        x = b["rapidities"].as_array()
        u = evb.eigenvalue_variables(spec, x)
        report = rg_core.dicke_rg_residual(spec, RapiditySet(tuple(x), DICKE_X))
        assert report.max_abs <= 1e-10
        assert abs(np.sum(x) - _energy_sum(spec, u)) < 1e-10


def _polynomial_loop_matrices(spec):
    """heine_stieltjes_matrices built column by column from numpy.polynomial
    products and derivatives, as heine_stieltjes once built them."""
    from numpy.polynomial import polynomial as npoly

    n = spec.n_excitations
    eps = np.asarray(spec.epsilons, dtype=float)
    spins = np.asarray(spec.spins, dtype=float)
    c, h = evb.frame(spec)
    e, w, g2 = (eps - c) / h, (spec.hbar_omega - c) / h, spec.coupling_G**2 / h**2
    m = len(e)
    rows = m + n

    def coeffs(p):
        out = np.zeros(rows + 1)
        out[:len(p)] = p
        return out

    a = npoly.polyfromroots(e) * (-1.0) ** m
    a_k = [npoly.polyfromroots(np.delete(e, k)) * (-1.0) ** (m - 1) for k in range(m)]
    base = np.empty((rows + 1, n + 1))
    per_level = np.empty((m, rows + 1, n + 1))
    for i in range(n + 1):
        mono = np.zeros(i + 1)
        mono[i] = 1.0
        d1, d2 = npoly.polyder(mono), npoly.polyder(mono, 2)
        col = npoly.polymul(a, npoly.polymul([w, -1.0], d1))
        col = npoly.polysub(col, g2 * npoly.polymul(a, d2))
        for k in range(m):
            col = npoly.polysub(col, 2.0 * g2 * spins[k] * npoly.polymul(a_k[k], d1))
            per_level[k, :, i] = coeffs(2.0 * spins[k] * npoly.polymul(a_k[k], mono))
        base[:, i] = coeffs(npoly.polyadd(col, n * npoly.polymul(a, mono)))
    return c, h, base, per_level


def test_heine_stieltjes_matrices_match_the_polynomial_loop():
    rng = np.random.default_rng(21)
    specs = [_random_spec(m, n, seed=m + 20 * n) for m in (1, 2, 5, 12) for n in (1, 3, 6)]
    specs += [DickeSpec(tuple(np.sort(rng.uniform(0.5, 1.5, 3))), (1.0, 0.5, 2.5),
                        0.3, 1.1, 4), SPIN_ONE_ENUM]
    for spec in specs:
        c, h, base, per_level = evb.heine_stieltjes_matrices(spec)
        ref = _polynomial_loop_matrices(spec)
        assert (c, h) == ref[:2]
        for got, want in zip((base, per_level), ref[2:]):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_heine_stieltjes_roots_match_numpy_polyroots():
    from numpy.polynomial import polynomial as npoly

    spec = _random_spec(5, 3, seed=8)
    _, ends, ok = evb.Quadratics(spec).solve()
    roots, rel = evb.heine_stieltjes(spec, ends)
    c, h, base, per_level = evb.heine_stieltjes_matrices(spec)
    n = spec.n_excitations
    for u, x in zip(ends, roots):
        mat = (base + np.einsum("k,krc->rc", u / h, per_level))[:-1]
        q = np.linalg.lstsq(mat[:, :n], -mat[:, n], rcond=None)[0]
        want = c + h * npoly.polyroots(np.append(q, 1.0))
        # as multisets: round-off may order the members of a conjugate pair
        # either way
        dist = np.abs(x[:, None] - want[None, :])
        assert np.max(dist.min(axis=0)) < 1e-10 and np.max(dist.min(axis=1)) < 1e-10


BENCHMARK_BASES = [
    pytest.param(DickeSpec((0.874, 1.054, 1.069), (0.5,) * 3, 0.146, 0.916, 2), id="m3-n2"),
    pytest.param(DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3), id="m2-n3-spin1"),
]


@pytest.mark.parametrize("spec, evaluations", [
    pytest.param(base.values[0], count, id=base.id)
    for base, count in zip(BENCHMARK_BASES, (32, 18))
])
def test_evb_evaluations_per_solve_on_the_benchmark_bases(monkeypatch, spec, evaluations):
    # every point is evaluated once: the tangent comes from the correction
    # that accepted it, and the predictor is the Hermite one; a correction
    # evaluates the system through its kernel, _system
    calls, system = [], evb.Quadratics._system

    def counted(self, u, *args):
        calls.append(len(u))
        return system(self, u, *args)

    monkeypatch.setattr(evb.Quadratics, "_system", counted)
    _, ends, ok = evb.Quadratics(spec).solve()
    assert len(ends) == spec.sector_dimension()
    assert ok.all() and len(evb.duplicates(ends, ok)) == 0
    assert len(calls) == evaluations


def _reference_correct(q, u, t, tol=None):
    """Quadratics.correct as a plain loop: every iteration evaluates the
    active paths afresh (evaluate) and solves J against F and dF/dt."""
    tol = evb.TRACK_TOL if tol is None else tol
    todo = np.arange(len(u))
    converged = np.zeros(len(u), dtype=bool)
    used = np.zeros(len(u), dtype=int)
    tangent = np.zeros_like(u)
    prev = None
    for it in range(1, evb.MAX_CORRECTIONS + 1):
        f, jac, dfdt = q.evaluate(u[todo], t[todo])
        sol = np.linalg.solve(jac, np.stack((f, dfdt), axis=-1))
        delta = sol[..., 0]
        u[todo] -= delta
        size = np.max(np.abs(delta), axis=1)
        scale = 1.0 + np.max(np.abs(u[todo]), axis=1)
        est = size if prev is None else np.minimum(size, size * size / prev)
        done = est <= tol * scale
        converged[todo[done]] = True
        used[todo[done]] = it
        tangent[todo[done]] = -sol[done, :, 1]
        keep = ~done & (size < scale)
        todo, prev = todo[keep], size[keep]
        if not len(todo):
            break
    return converged, used, tangent


@pytest.mark.parametrize("spec", BENCHMARK_BASES)
def test_a_correction_is_bitwise_the_plain_evaluate_and_solve_loop(monkeypatch, spec):
    # correct builds the homotopy's matrices once per call and works on u in
    # place while every path is active: the same arithmetic as the loop
    q = evb.Quadratics(spec)
    fast, calls = evb.Quadratics.correct, []

    def recorded(self, u, t, tol=None):
        calls.append((u.copy(), t.copy(), tol))
        return fast(self, u, t, tol)

    monkeypatch.setattr(evb.Quadratics, "correct", recorded)
    _, ends, ok = q.solve()
    monkeypatch.setattr(evb.Quadratics, "correct", _reference_correct)
    _, ref_ends, ref_ok = q.solve()
    assert ends.tobytes() == ref_ends.tobytes() and np.array_equal(ok, ref_ok)
    # every call of the solve, replayed as made and with its points moved
    # (seeded), so that paths converge after each number of corrections,
    # and some run out of corrections or leave the basin
    rng = np.random.default_rng(7)
    outcomes = np.zeros(evb.MAX_CORRECTIONS + 1, dtype=int)
    for u, t, tol in calls:
        for spread in (0.0, 0.03, 3.0):
            moved = u + spread * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))
            got_u, want_u = moved.copy(), moved.copy()
            got = fast(q, got_u, t, tol)
            want = _reference_correct(q, want_u, t, tol)
            assert got_u.tobytes() == want_u.tobytes()
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            outcomes += np.bincount(got[1], minlength=len(outcomes))
    assert np.all(outcomes > 0)

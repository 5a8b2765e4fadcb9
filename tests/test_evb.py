"""Spin-1/2 Dicke enumeration in eigenvalue-based variables (gaudin.evb)."""

import logging

import numpy as np
import pytest

from gaudin import cli, dicke, ed_oracle, evb, rg_core, solver
from gaudin.errors import DomainError, ValidationError
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
def test_evb_m10_finds_all_176_states_from_1024_distinct_endpoints(monkeypatch, spec):
    runs = _record_solve(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    [(flipped, ends, ok)] = runs
    assert flipped.shape == ends.shape == (1024, 10) and ok.all()
    assert len(evb.duplicates(ends, ok)) == 0
    _, sector = _sector(spec, 20)
    assert len(branches) == len(sector) == spec.sector_dimension() == 176
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


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
    flipped, starts = q.starts()
    # at t = 0 the coupling vanishes and each level sits on one of its two roots
    f0, _, _ = q.evaluate(starts, np.zeros(len(starts)))
    assert np.max(np.abs(f0)) < 1e-15
    assert len(set(map(tuple, flipped))) == 16
    _, ends, ok = q.solve()
    assert ok.all()
    f1, _, _ = q.evaluate(ends, np.ones(len(ends)))
    assert np.max(np.abs(f1)) < 1e-12
    # the physical endpoints carry the rapidities: U_k = G^2 sum_a 1/(eps_k - x_a)
    roots, rel = evb.heine_stieltjes(spec, ends)
    physical = rel <= evb.PHYSICAL_TOL
    assert np.sum(physical) == spec.sector_dimension() == 11
    eps = np.asarray(spec.epsilons)
    for x, u in zip(roots[physical], ends[physical]):
        assert np.allclose(spec.coupling_G**2 * np.sum(1.0 / (eps[:, None] - x), axis=1),
                           u, atol=1e-9)
    assert np.allclose(_energy_sum(spec, ends[physical]),
                       np.sum(roots[physical], axis=1), atol=1e-9)
    # the spurious ones have none
    assert np.min(rel[~physical]) > 1e3 * evb.PHYSICAL_TOL


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


def test_duplicates_flags_both_members_of_a_pair():
    u = np.array([[0.0, 1.0], [0.5, 0.5], [1e-9, 1.0], [2.0, 2.0]], dtype=complex)
    ok = np.array([True, True, True, False])
    assert list(evb.duplicates(u, ok)) == [0, 2]
    assert list(evb.duplicates(u, np.array([True, True, False, True]))) == []


def test_keep_one_of_each_keeps_the_last_member_of_a_group():
    u = np.array([[0.0, 1.0], [0.5, 0.5], [1e-9, 1.0], [2e-9, 1.0], [3.0, 3.0]],
                 dtype=complex)
    ok = np.array([True, True, True, True, True])
    evb.keep_one_of_each(u, ok, evb.duplicates(u, ok))
    assert list(ok) == [False, True, False, True, True]


def test_a_duplicate_pair_left_after_the_last_round_keeps_one_member(monkeypatch):
    spec = _random_spec(3, 2, seed=5)
    track = evb.Quadratics.track

    def merging(self, u, max_step):
        # every round, the path of start 1 lands on the endpoint of start 0
        # (the later rounds re-track starts 0 and 1 only)
        ends, ok = track(self, u, max_step)
        ends[1] = ends[0]
        return ends, ok

    monkeypatch.setattr(evb.Quadratics, "track", merging)
    _, ends, ok = evb.Quadratics(spec).solve()
    assert list(ok) == [False] + [True] * 7
    assert len(evb.duplicates(ends, ok)) == 0


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
    # three levels within 0.018: one physical endpoint reads a Heine-Stieltjes
    # residual of 9e-6, next to spurious ones at 1.3e-5 and 6.9e-4
    spec = DickeSpec((0.5770838085005388, 0.6326962975467872, 0.7128309953403343,
                      0.9884492270855239, 1.000356430736871, 1.006064922529373),
                     (0.5,) * 6, 0.1, 0.7950064428055195, 4)
    runs = _record_solve(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    [(_, ends, ok)] = runs
    _, rel = evb.heine_stieltjes(spec, ends)
    assert np.sum(ok & (rel <= evb.PHYSICAL_TOL)) == spec.sector_dimension() - 1 == 56
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


def test_enumeration_method_follows_the_spins():
    assert solver.enumeration_method(DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)) == "evb"
    assert solver.enumeration_method(
        DickeSpec((0.7, 1.2), (1.0, 0.5), 0.2, 1.0, 2)) == "xi-continuation"


def _grid_spec(m, n):
    return DickeSpec(tuple(0.5 + 0.07 * k for k in range(m)), (0.5,) * m, 0.2, 1.0, n)


def test_enumeration_method_bounds_the_evb_batch():
    # 2^m paths in one batch: m = 12 is the last spec EVB takes
    assert solver.enumeration_method(_grid_spec(12, 1)) == "evb"
    assert solver.enumeration_method(_grid_spec(13, 1)) == "xi-continuation"
    with pytest.raises(ValidationError):
        evb.Quadratics(_grid_spec(13, 1))
    # beyond the bound one excitation over 13 levels runs on the ladder
    branches = solver.enumerate_dicke_branches(_grid_spec(13, 1))
    assert len(branches) == _grid_spec(13, 1).sector_dimension() == 14
    assert all("occupation" in b for b in branches)


def test_specs_on_each_side_of_the_batch_bound_enumerate(monkeypatch):
    monkeypatch.setattr(evb, "MAX_PATHS", 2**3)
    inside = solver.enumerate_dicke_branches(_grid_spec(3, 2))
    assert len(inside) == 7 and all("evb_start" in b for b in inside)
    outside = solver.enumerate_dicke_branches(_grid_spec(4, 1))
    assert len(outside) == 5 and all("occupation" in b for b in outside)


SPIN_ONE_SPEC = """\
model = dicke
epsilons = [1.0]
spins = [1.0]
G = 0.5
hbar_omega = 1.0
N = 1
"""

JC_SPEC = SPIN_ONE_SPEC.replace("spins = [1.0]", "spins = [0.5]")


def _document(tmp_path, text):
    path = tmp_path / "model.spec"
    path.write_text(text)
    doc, code = cli.run(cli.RunConfig("solve-dicke", str(path)))
    assert code == 0
    return cli.parse_kv_lines(doc.splitlines())


def test_solve_dicke_document_records_method_and_counts(tmp_path):
    triples = _document(tmp_path, JC_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    assert header["method"] == "evb"
    assert header["branches_expected"] == header["branches_found"] == "2"
    starts = sorted(tuple(v) for s, k, v in triples if k == "evb_start")
    assert starts == [(), (0.0,)]
    assert not any(k == "occupation" for _, k, _ in triples)


def test_spin_one_spec_keeps_the_xi_continuation_ladder(tmp_path):
    triples = _document(tmp_path, SPIN_ONE_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    assert header["method"] == "xi-continuation"
    assert header["branches_expected"] == header["branches_found"] == "2"
    assert sum(k == "occupation" for _, k, _ in triples) == 2
    assert not any(k == "evb_start" for _, k, _ in triples)


def test_short_enumeration_is_reported(tmp_path, monkeypatch, caplog):
    enumerate_all = solver.enumerate_dicke_branches
    monkeypatch.setattr(solver, "enumerate_dicke_branches",
                        lambda spec, policy=None: enumerate_all(spec, policy)[1:])
    with caplog.at_level(logging.WARNING, logger="gaudin"):
        triples = _document(tmp_path, JC_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    assert (header["branches_expected"], header["branches_found"]) == ("2", "1")
    assert "found 1 of 2 states" in caplog.text


def test_evb_rounds_are_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        solver.enumerate_dicke_branches(DickeSpec((0.8, 1.3), (0.5, 0.5), 0.2, 1.0, 2))
    assert "evb round 0: 4 paths" in caplog.text
    assert "4 physical, 4 candidates, 4 states" in caplog.text


def test_polished_rapidities_match_their_endpoint():
    spec = _random_spec(3, 2, seed=7)
    for b in solver.enumerate_dicke_branches(spec):
        x = b["rapidities"].as_array()
        u = evb.eigenvalue_variables(spec, x)
        report = rg_core.dicke_rg_residual(spec, RapiditySet(tuple(x), DICKE_X))
        assert report.max_abs <= 1e-10
        assert abs(np.sum(x) - _energy_sum(spec, u)) < 1e-10

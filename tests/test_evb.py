"""Dicke enumeration in eigenvalue-based variables (gaudin.evb), on spin-1/2
levels and on levels of higher spin split into spin-1/2 levels."""

import functools
import logging

import numpy as np
import pytest

from gaudin import cli, dicke, ed_oracle, evb, rg_core, solver
from gaudin.errors import ConvergenceError, DomainError, ValidationError
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
    assert list(evb.duplicates(ends, ok)) == [0, 1]
    # the pair's solution gives one state, and the lost one is missing
    branches = solver.enumerate_dicke_branches(spec)
    assert len(branches) == spec.sector_dimension() - 1
    energies = _energies(spec, branches)
    assert np.min(np.diff(np.sort(energies))) > 1e-6


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
    # three levels within 0.0033: one physical endpoint reads a Heine-Stieltjes
    # residual of 4.4e-6, next to a spurious one at 1.3e-5
    spec = DickeSpec((0.5395928766642029, 0.704952555997677, 0.7051622850873662,
                      0.7082261522634622, 1.4172977047909026),
                     (0.5,) * 5, 0.18214731581500543, 0.8756015297312423, 3)
    runs = _record_solve(monkeypatch)
    branches = solver.enumerate_dicke_branches(spec)
    [(_, ends, ok)] = runs
    _, rel = evb.heine_stieltjes(spec, ends)
    assert np.sum(ok & (rel <= evb.PHYSICAL_TOL)) == spec.sector_dimension() - 1 == 25
    assert np.sum(ok & (rel > evb.PHYSICAL_TOL) & (rel <= evb.CANDIDATE_TOL)) == 2
    _, sector = _sector(spec, 3)
    assert len(branches) == len(sector) == 26
    assert np.max(np.abs(_energies(spec, branches) - sector)) < 1e-9


def test_three_levels_within_0_018_give_all_57_states():
    # the endpoint of this spec that read 9e-6 behind an Euler predictor reads
    # below PHYSICAL_TOL behind the Hermite one; all its states still come out
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


def test_enumeration_method_follows_the_spins():
    assert solver.enumeration_method(DickeSpec((1.0,), (0.5,), 0.5, 1.0, 1)) == "evb"
    # a spin-1 level enumerates as two spin-1/2 levels
    assert solver.enumeration_method(DickeSpec((0.7, 1.2), (1.0, 0.5), 0.2, 1.0, 2)) == "evb"
    # one spin-7 level splits into 14 spin-1/2 levels: beyond one batch
    assert solver.enumeration_method(
        DickeSpec((1.0,), (7.0,), 0.2, 1.0, 2)) == "xi-continuation"


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


def test_spin_one_spec_enumerates_on_split_levels(tmp_path):
    triples = _document(tmp_path, SPIN_ONE_SPEC)
    header = {k: v for s, k, v in triples if s is None}
    assert header["method"] == "evb"
    assert header["branches_expected"] == header["branches_found"] == "2"
    spec = DickeSpec((1.0,), (1.0,), 0.5, 1.0, 1)
    assert float(header["split_delta"]) == solver.split_delta(spec) > 0.0
    # one entry per flipped spin-1/2 level, each naming the level it splits
    starts = sorted(tuple(v) for s, k, v in triples if k == "evb_start")
    assert starts == [(), (0.0,)]
    assert not any(k == "occupation" for _, k, _ in triples)


def test_spin_half_documents_carry_no_split_delta(tmp_path):
    header = {k: v for s, k, v in _document(tmp_path, JC_SPEC) if s is None}
    assert "split_delta" not in header


def test_split_levels_centre_2s_levels_on_each_level():
    spec = DickeSpec((0.5, 1.0, 1.6), (1.0, 0.5, 1.5), 0.2, 1.0, 2)
    split, owner = solver.split_levels(spec, 0.01)
    assert split.spins == (0.5,) * 6
    assert np.allclose(split.epsilons, (0.495, 0.505, 1.0, 1.59, 1.6, 1.61), atol=1e-15)
    assert list(owner) == [0, 0, 1, 2, 2, 2]
    assert split.sector_dimension() > spec.sector_dimension()


def test_split_delta_follows_the_scale_and_the_level_gaps():
    assert solver.split_delta(_random_spec(3, 2, seed=1)) == 0.0
    far = DickeSpec((0.6, 1.4), (1.0, 0.5), 0.2, 1.0, 2)
    h = evb.frame(far)[1]
    assert solver.split_delta(far) == pytest.approx(solver.SPLIT_DELTA * h)
    # a gap of 0.03 between a spin-1 and a spin-3/2 level: the two groups,
    # each widened by the spacing, fill SPLIT_GAP of it
    near = DickeSpec((0.6, 0.63, 1.4), (1.0, 1.5, 0.5), 0.2, 1.0, 2)
    assert solver.split_delta(near) == pytest.approx(solver.SPLIT_GAP * 0.03 / 2.5)
    assert solver.split_delta(near) < solver.SPLIT_DELTA * evb.frame(near)[1]
    # close spin-1/2 levels are not split and do not cap the spacing
    halves = DickeSpec((0.6, 0.6001, 1.4), (0.5, 0.5, 1.0), 0.2, 1.0, 2)
    assert solver.split_delta(halves) == pytest.approx(solver.SPLIT_DELTA * evb.frame(halves)[1])


def test_split_routing_at_its_bounds(monkeypatch):
    # 5 + 5 + 2 = 12 spin-1/2 levels fill one batch; 13 do not
    assert solver.enumeration_method(
        DickeSpec((0.6, 1.0, 1.4), (2.5, 2.5, 1.0), 0.2, 1.0, 2)) == "evb"
    assert solver.enumeration_method(
        DickeSpec((0.6, 1.0, 1.4), (2.5, 2.5, 1.5), 0.2, 1.0, 2)) == "xi-continuation"
    # a spin-1 pair 1e-3 apart leaves no spacing above SPLIT_FLOOR * h
    close = DickeSpec((1.0, 1.001), (1.0, 1.0), 0.2, 1.0, 1)
    assert solver.split_delta(close) is None
    assert solver.enumeration_method(close) == "xi-continuation"
    # either side of a bound of 8 paths runs: 3 split levels on EVB, 4 on the ladder
    monkeypatch.setattr(evb, "MAX_PATHS", 2**3)
    inside = solver.enumerate_dicke_branches(DickeSpec((0.7, 1.2), (1.0, 0.5), 0.2, 1.0, 2))
    assert len(inside) == 5 and all("evb_start" in b for b in inside)
    outside = solver.enumerate_dicke_branches(DickeSpec((0.7, 1.2), (1.0, 1.0), 0.2, 1.0, 1))
    assert len(outside) == 3 and all("occupation" in b for b in outside)


# mixed-spin specs; (0.8, 1.2) at spins (5/2, 5/2) and hbar_omega = 1 has a
# degenerate pair at E = -2
SPLIT_SPECS = [
    pytest.param(DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3), id="m2-n3-spin1"),
    pytest.param(DickeSpec((0.7, 1.2), (1.0, 0.5), 0.25, 1.1, 3), id="spin1-half"),
    pytest.param(DickeSpec((1.0,), (2.5,), 0.3, 1.0, 4), id="one-spin5half"),
    pytest.param(DickeSpec((0.8, 1.2), (2.5, 2.5), 0.2, 1.0, 3), id="two-spin5half"),
    pytest.param(DickeSpec((0.6, 1.0, 1.4), (0.5, 1.0, 0.5), 0.25, 1.1, 3), id="half-one-half"),
]


@functools.cache
def _split_branches(spec):
    return solver.enumerate_dicke_branches(spec)


@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_split_levels_enumerate_the_ed_sector(spec):
    branches = _split_branches(spec)
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


def test_split_levels_find_the_state_the_ladder_missed():
    spec = DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3)
    branches = _split_branches(spec)
    real = [b for b in branches if np.max(np.abs(b["rapidities"].as_array().imag)) < 1e-10]
    [state] = real
    assert np.allclose(np.sort(state["rapidities"].as_array().real),
                       (0.5889, 1.0692, 1.2744), atol=5e-5)
    assert _energies(spec, [state])[0] == pytest.approx(1.62993, abs=1e-5)


@pytest.mark.parametrize("spec", SPLIT_SPECS[1:])
def test_branches_carry_eigenvalues_of_every_dicke_charge(spec):
    """r_k = r_k(vacuum) + 2 s_k U_k is an eigenvalue of the k-th charge."""
    branches = _split_branches(spec)
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
    assert "4 physical, 4 candidates, 4 states; 4 polished, 0 left once the sector was full" \
        in caplog.text
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gaudin"):
        solver.enumerate_dicke_branches(SPIN_ONE_ENUM)
    assert "evb round 0: 8 paths" in caplog.text
    assert "8 physical, 8 candidates, 6 states; 6 polished, 2 left once the sector was full" \
        in caplog.text


# the dicke-enum benchmark's spin-1 spec at seed 0: two of its eight
# candidates are lower-multiplet states of the split level
SPIN_ONE_ENUM = DickeSpec((0.5005841988931976, 0.8942121808717152), (1.0, 0.5),
                          0.11495974335047272, 0.6948516132892497, 3)


def test_a_full_sector_stops_the_polish_before_the_lower_multiplets(monkeypatch):
    spec = SPIN_ONE_ENUM
    runs = _record_solve(monkeypatch)
    calls, starts = [], []
    residual, polish = rg_core.dicke_rg_residual, solver._polish

    def counted(*args, **kwargs):
        calls.append(kwargs.get("jacobian", args[2] if len(args) > 2 else True))
        return residual(*args, **kwargs)

    def recorded(residual_fn, w0, tol):
        starts.append(np.array(w0))
        return polish(residual_fn, w0, tol)

    monkeypatch.setattr(rg_core, "dicke_rg_residual", counted)
    monkeypatch.setattr(solver, "_polish", recorded)
    branches = solver.enumerate_dicke_branches(spec)
    assert len(branches) == spec.sector_dimension() == 6
    assert len(calls) <= 40
    # every call is a Newton evaluation: a kept state's report is its polish's
    assert all(calls)
    # which endpoints were polished, and the largest |U_j - U_k| between the
    # two split levels of the spin-1 level at each
    delta = solver.split_delta(spec)
    split, owner = solver.split_levels(spec, delta)
    [(flipped, ends, ok)] = runs
    roots, rel = evb.heine_stieltjes(split, ends)
    candidates = [p for p in range(len(ends)) if ok[p] and rel[p] <= evb.CANDIDATE_TOL]
    pair = [j for j in range(split.m) if owner[j] == 0]
    assert len(pair) == 2
    spread = {p: abs(ends[p, pair[0]] - ends[p, pair[1]]) for p in candidates}
    polished = [p for w0 in starts for p in candidates if np.array_equal(roots[p], w0)]
    assert len(polished) == len(starts) == 6
    bound = spec.coupling_G**2 / delta
    assert all(spread[p] < bound for p in polished)
    # the lower multiplets were candidates and were left unpolished
    assert sum(spread[p] >= bound for p in candidates) == 2


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
    assert all(solver.enumeration_method(spec) == "evb" for spec in specs)
    sizes = [spec.sector_dimension() for spec in specs]
    polishes, polish = [], solver._polish

    def counted(*args):
        polishes.append(args)
        return polish(*args)

    monkeypatch.setattr(solver, "_polish", counted)
    stopped = [solver.enumerate_dicke_branches(spec) for spec in specs]
    assert [len(b) for b in stopped] == sizes
    stopped_polishes = len(polishes)
    # no sector is ever full: every candidate is polished
    monkeypatch.setattr(DickeSpec, "sector_dimension", lambda self: 10**9)
    polished_all = [solver.enumerate_dicke_branches(spec) for spec in specs]
    assert stopped_polishes < len(polishes) - stopped_polishes
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

    def reversed_roots(split, ends):
        roots, rel = heine_stieltjes(split, ends)
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


@pytest.mark.parametrize("spec, evaluations", [
    pytest.param(DickeSpec((0.874, 1.054, 1.069), (0.5,) * 3, 0.146, 0.916, 2), 32, id="m3-n2"),
    pytest.param(DickeSpec((0.688, 1.229), (1.0, 0.5), 0.158, 0.955, 3), 27,
                 id="m2-n3-spin1"),
])
def test_evb_evaluations_per_solve_on_the_benchmark_bases(monkeypatch, spec, evaluations):
    # every point is evaluated once: the tangent comes from the correction
    # that accepted it, and the predictor is the Hermite one
    split, _ = solver.split_levels(spec, solver.split_delta(spec))
    calls, evaluate = [], evb.Quadratics.evaluate

    def counted(self, u, t):
        calls.append(len(u))
        return evaluate(self, u, t)

    monkeypatch.setattr(evb.Quadratics, "evaluate", counted)
    _, ends, ok = evb.Quadratics(split).solve()
    assert ok.all() and len(evb.duplicates(ends, ok)) == 0
    assert len(calls) == evaluations

import math

import numpy as np
import pytest

from gaudin import cli, dicke, ed_oracle, rg_core, solver
from gaudin.algebra import LevelSet
from gaudin.cli import RunConfig, emit_spec, parse_kv_lines, parse_spec, run
from gaudin.errors import SpecFormatError, ValidationError

JC_SPEC = """\
# single level, resonant
model = dicke
epsilons = [1.0]
spins = [0.5]
G = 0.5
hbar_omega = 1.0
N = 1
"""

RG_SPEC = """\
model = rg
kind = trigonometric
etas = [1.0, 2.0, 3.0, 4.0]
spins = [0.5, 0.5, 0.5, 0.5]
g = -0.15
N = 2
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _parse_doc(text):
    return parse_kv_lines(text.splitlines())


def test_parse_kv_lines_sections_and_comments():
    triples = parse_kv_lines(
        ["# top", "a = 1", "", "[sec]  # trailing", "b = [1.0, 2.0]"]
    )
    assert triples == [(None, "a", "1"), ("sec", "b", [1.0, 2.0])]


def test_parse_error_carries_line_number():
    with pytest.raises(SpecFormatError) as exc:
        parse_kv_lines(["a = 1", "not a kv line"])
    assert exc.value.line == 2
    with pytest.raises(SpecFormatError) as exc:
        parse_kv_lines(["a = [1.0, 2.0"])
    assert exc.value.line == 1


def test_spec_round_trip(tmp_path):
    for text in (JC_SPEC, RG_SPEC):
        spec = parse_spec(_write(tmp_path, "in.spec", text))
        again = parse_spec(_write(tmp_path, "out.spec", emit_spec(spec)))
        assert again == spec


def test_spec_rejects_unknown_and_missing_keys(tmp_path):
    with pytest.raises(SpecFormatError):
        parse_spec(_write(tmp_path, "a.spec", JC_SPEC + "bogus = 3\n"))
    with pytest.raises(SpecFormatError):
        parse_spec(_write(tmp_path, "b.spec", "model = dicke\nN = 1\n"))
    with pytest.raises(SpecFormatError):
        parse_spec(_write(tmp_path, "c.spec", "model = other\n"))


def _assert_key_rejected(tmp_path, text, key, capsys):
    path = _write(tmp_path, "bad.spec", text)
    with pytest.raises(SpecFormatError, match=repr(key)):
        parse_spec(path)
    assert cli.main(["--mode", "solve-dicke", "--spec", path]) == 1
    assert repr(key) in capsys.readouterr().err


def test_spec_list_for_scalar_key_is_format_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, JC_SPEC.replace("G = 0.5", "G = [0.2]"), "G", capsys)
    _assert_key_rejected(tmp_path, JC_SPEC.replace("N = 1", "N = [1]"), "N", capsys)


def test_spec_fractional_excitation_number_is_format_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, JC_SPEC.replace("N = 1", "N = 2.7"), "N", capsys)


def test_spec_scalar_for_list_key_is_format_error(tmp_path, capsys):
    text = JC_SPEC.replace("epsilons = [1.0]", "epsilons = 1")
    _assert_key_rejected(tmp_path, text, "epsilons", capsys)


def test_spec_fractional_degeneracy_exits_1(tmp_path, capsys):
    text = RG_SPEC.replace(
        "spins = [0.5, 0.5, 0.5, 0.5]", "degeneracies = [2.7, 2, 2, 2]"
    )
    path = _write(tmp_path, "bad.spec", text)
    assert cli.main(["--mode", "solve-rg", "--spec", path]) == 1
    assert "2.7" in capsys.readouterr().err


def test_solve_dicke_document_contents(tmp_path):
    config = RunConfig("solve-dicke", _write(tmp_path, "jc.spec", JC_SPEC))
    text, code = run(config)
    assert code == 0
    triples = _parse_doc(text)
    energies = sorted(
        float(v) for s, k, v in triples if k == "rayleigh_energy"
    )
    assert energies == pytest.approx([0.0, 1.0], abs=1e-9)
    residuals = [float(v) for s, k, v in triples if k == "oracle_residual"]
    assert max(residuals) < 1e-9
    sections = {s for s, _, _ in triples}
    assert {"spec", "branch 0", "branch 1", "environment"} <= sections


def test_solve_dicke_occupation_flag(tmp_path):
    config = RunConfig(
        "solve-dicke", _write(tmp_path, "jc.spec", JC_SPEC), occupation=[1]
    )
    text, code = run(config)
    assert code == 0
    triples = _parse_doc(text)
    raps = [v for s, k, v in triples if k == "rapidity_0"]
    assert len(raps) == 1
    z = cli._parse_complex_pair(raps[0])
    assert z.real == pytest.approx(1.5, abs=1e-9)


def test_solve_rg_document(tmp_path):
    config = RunConfig("solve-rg", _write(tmp_path, "rg.spec", RG_SPEC))
    text, code = run(config)
    assert code == 0
    triples = _parse_doc(text)
    kv = {k: v for s, k, v in triples if s == "branch 0"}
    assert float(kv["residual_max_abs"]) < 1e-10
    assert "rapidity_1" in kv and "rapidity_2" not in kv


def test_ed_spectrum_jc_sectors(tmp_path):
    config = RunConfig("ed-spectrum", _write(tmp_path, "jc.spec", JC_SPEC))
    text, code = run(config)
    assert code == 0
    rows = [v for s, k, v in _parse_doc(text) if s == "spectrum" and k == "row"]
    by_sector = {}
    for r in rows:
        sector, ev = r.split()
        by_sector.setdefault(int(sector), []).append(float(ev))
    assert by_sector[0] == pytest.approx([-0.5])
    assert sorted(by_sector[1]) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_ed_spectrum_of_an_rg_spec_lists_every_charge(tmp_path, capsys):
    path = _write(tmp_path, "rg.spec", RG_SPEC)
    assert cli.main(["--mode", "ed-spectrum", "--spec", path]) == 0
    rows = [v.split() for s, k, v in _parse_doc(capsys.readouterr().out)
            if s == "spectrum" and k == "row"]
    spec = parse_spec(path)
    charges = ed_oracle.realize_rg_charges(spec, 1.0)
    dim = charges[0].basis.total_dim
    assert len(rows) == len(charges) * dim == 4 * 16
    for i, op in enumerate(charges):
        evs = np.sort(np.concatenate(
            [ed_oracle.sector_spectrum(op, n) for n in range(spec.levels.m + 1)]))
        # the document holds 17 significant digits, which read back exactly
        assert [float(ev) for c, ev in rows if int(c) == i] == list(evs)


def test_solve_rg_occupation_is_recorded(tmp_path, capsys):
    path = _write(tmp_path, "rg.spec", RG_SPEC)
    assert cli.main(["--mode", "solve-rg", "--spec", path, "--occupation", "0,2"]) == 0
    kv = {k: v for s, k, v in _parse_doc(capsys.readouterr().out) if s == "branch 0"}
    assert kv["occupation"] == [0.0, 2.0]
    final, _, _ = solver.solve_rg(parse_spec(path), occupation=[0, 2])
    assert [cli._parse_complex_pair(kv["rapidity_%d" % a]) for a in range(2)] == list(
        final.values)


def test_solve_dicke_branch_emits_that_branch_of_the_full_document(tmp_path, capsys):
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    assert cli.main(["--mode", "solve-dicke", "--spec", path]) == 0
    full = _parse_doc(capsys.readouterr().out)
    for k in (0, 1):
        assert cli.main(["--mode", "solve-dicke", "--spec", path, "--branch", str(k)]) == 0
        one = _parse_doc(capsys.readouterr().out)
        assert {s for s, _, _ in one if s and s.startswith("branch")} == {"branch 0"}
        assert ([(key, v) for s, key, v in one if s == "branch 0"]
                == [(key, v) for s, key, v in full if s == "branch %d" % k])


def test_sweep_xi_tabular_and_structured(tmp_path):
    path = _write(tmp_path, "rg.spec", RG_SPEC)
    tab, code = run(RunConfig("sweep-xi", path, out_format="tabular-text"))
    assert code == 0
    header, *rows = tab.strip().splitlines()
    assert header.startswith("# xi")
    first = [float(t) for t in rows[0].split()]
    last = [float(t) for t in rows[-1].split()]
    assert first[0] == 0.0 and last[0] == 1.0
    assert last[-1] < 1e-10
    doc, code = run(RunConfig("sweep-xi", path))
    assert code == 0
    assert len([1 for s, k, v in _parse_doc(doc) if k == "row"]) == len(rows)


def test_main_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    out1 = str(tmp_path / "a.out")
    out2 = str(tmp_path / "b.out")
    assert cli.main(["--mode", "solve-dicke", "--spec", path, "--out", out1]) == 0
    assert cli.main(["--mode", "solve-dicke", "--spec", path, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_verify_accepts_own_output_and_detects_tampering(tmp_path, capsys):
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    out = str(tmp_path / "jc.out")
    assert cli.main(["--mode", "solve-dicke", "--spec", path, "--out", out]) == 0
    assert cli.main(["--mode", "verify", "--spec", out]) == 0
    doc = capsys.readouterr().out
    kv = {k: v for s, k, v in _parse_doc(doc) if s == "verify"}
    assert kv["verdict"] == "pass"
    assert int(kv["branches_checked"]) == 2

    # perturb one recorded rapidity at the 1e-3 level
    text = open(out).read()
    target = next(l for l in text.splitlines() if l.startswith("rapidity_0"))
    value = cli._parse_complex_pair(target.partition("=")[2])
    bad = target.partition("=")[0] + "= " + cli._fmt_complex(value + 1e-3)
    tampered = str(tmp_path / "tampered.out")
    open(tampered, "w").write(text.replace(target, bad, 1))
    assert cli.main(["--mode", "verify", "--spec", tampered]) == 3
    doc = capsys.readouterr().out
    kv = {k: v for s, k, v in _parse_doc(doc) if s == "verify"}
    assert kv["verdict"] == "fail"
    assert any(k == "failure" for s, k, v in _parse_doc(doc))


def test_main_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.spec", "model = dicke\n")
    assert cli.main(["--mode", "solve-dicke", "--spec", bad]) == 1
    assert cli.main(["--mode", "solve-dicke", "--spec", "/nonexistent"]) == 1
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    assert cli.main(
        ["--mode", "solve-dicke", "--spec", path, "--occupation", "x,y"]
    ) == 1
    rg = _write(tmp_path, "rg.spec", RG_SPEC)
    assert cli.main(
        ["--mode", "sweep-xi", "--spec", rg, "--newton-tol", "1e-30"]
    ) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags, named", [
    (["--mode", "bogus"], "--mode"),
    (["--mode", "solve-rg", "--xi-steps", "abc"], "--xi-steps"),
    (["--mode", "solve-rg", "--seed", "3"], "--seed"),
], ids=["mode", "xi-steps", "seed"])
def test_usage_errors_exit_1(tmp_path, capsys, flags, named):
    # 2 is the exit code of a convergence failure, not of a bad command line
    path = _write(tmp_path, "rg.spec", RG_SPEC)
    assert cli.main(flags + ["--spec", path]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and named in err


def test_help_exits_0(capsys):
    assert cli.main(["-h"]) == 0
    assert "--mode" in capsys.readouterr().out


def test_mode_spec_type_mismatch(tmp_path):
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    with pytest.raises(ValidationError):
        run(RunConfig("solve-rg", path))
    rg = _write(tmp_path, "rg.spec", RG_SPEC)
    with pytest.raises(ValidationError):
        run(RunConfig("solve-dicke", rg))


def test_runconfig_validation():
    with pytest.raises(ValidationError):
        RunConfig("bogus", "x")
    with pytest.raises(ValidationError):
        RunConfig("solve-rg", "x", out_format="yaml")
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="--newton-tol"):
            RunConfig("solve-rg", "x", newton_tol=tol)


def test_log_env_enables_logging(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAUDIN_LOG", "INFO")
    path = _write(tmp_path, "jc.spec", JC_SPEC)
    assert cli.main(["--mode", "ed-spectrum", "--spec", path]) == 0
    capsys.readouterr()


def test_spec_spins_and_degeneracies_must_agree(tmp_path, capsys):
    spins = "spins = [0.5, 0.5, 0.5, 0.5]"
    agree = RG_SPEC.replace(spins, spins + "\ndegeneracies = [2, 2, 2, 2]")
    out = str(tmp_path / "out.txt")
    path = _write(tmp_path, "agree.spec", agree)
    assert cli.main(["--mode", "solve-rg", "--spec", path, "--out", out]) == 0
    clash = RG_SPEC.replace(spins, spins + "\ndegeneracies = [3, 5, 2, 2]")
    path = _write(tmp_path, "clash.spec", clash)
    assert cli.main(["--mode", "solve-rg", "--spec", path, "--out", out]) == 1
    assert "degeneracy 3" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [0, -3, 10**9])
def test_xi_steps_below_one_exits_1(tmp_path, capsys, steps):
    path = _write(tmp_path, "rg.spec", RG_SPEC)
    with pytest.raises(ValidationError, match="--xi-steps"):
        RunConfig("solve-rg", path, xi_steps=steps)
    argv = ["--mode", "solve-rg", "--spec", path, "--xi-steps", str(steps)]
    assert cli.main(argv) == 1
    assert "--xi-steps" in capsys.readouterr().err


def test_ed_spectrum_rejects_a_non_finite_level(tmp_path, capsys):
    spec = RG_SPEC.replace("etas = [1.0, 2.0, 3.0, 4.0]", "etas = [1.0, 2.0, inf]")
    spec = spec.replace("spins = [0.5, 0.5, 0.5, 0.5]", "spins = [0.5, 0.5, 0.5]")
    path = _write(tmp_path, "inf.spec", spec)
    assert cli.main(["--mode", "ed-spectrum", "--spec", path]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode, flags", [
    ("solve-rg", ["--format", "tabular-text"]),
    ("solve-dicke", ["--format", "tabular-text"]),
    ("ed-spectrum", ["--format", "tabular-text"]),
    ("solve-rg", ["--branch", "5"]),
    ("sweep-xi", ["--branch", "0"]),
    ("ed-spectrum", ["--branch", "3"]),
    ("ed-spectrum", ["--occupation", "0,1"]),
    ("verify", ["--occupation", "0,1"]),
], ids=lambda v: v if isinstance(v, str) else v[0][2:])
def test_options_the_mode_ignores_exit_1(tmp_path, capsys, mode, flags):
    named = flags[0]
    text = JC_SPEC if mode == "solve-dicke" else RG_SPEC
    path = _write(tmp_path, "in.spec", text)
    out = str(tmp_path / "out.txt")
    assert cli.main(["--mode", mode, "--spec", path, "--out", out] + flags) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


NEAR_CRITICAL_SPEC = """\
model = rg
kind = trigonometric
etas = [0.5, 1.0]
spins = [0.5, 0.5]
g = 0.3333336667
N = 1
"""

# a JC result document: x = 0.5 solves the Dicke equation of JC_SPEC exactly
JC_DOCUMENT = "[spec]\n" + JC_SPEC + "\n[branch 0]\nrapidity_0 = (0.5, 0)\n"


@pytest.mark.parametrize("mode, text, flags, code, message", [
    ("solve-dicke", JC_SPEC.replace("[1.0]", "[1.0, x]", 1), [], 1,
     "error: non-numeric list entry in '[1.0, x]'"),
    ("solve-dicke", JC_SPEC + "G = 0.3\n", [], 1, "error: duplicate key 'G'"),
    ("solve-dicke", JC_SPEC.replace("G = 0.5", "G = half"), [], 1,
     "error: key 'G' expects a number, got 'half'"),
    ("solve-rg", RG_SPEC + "G = 0.2\n", [], 1, "error: unknown keys for model=rg: ['G']"),
    ("solve-rg", RG_SPEC.replace("g = -0.15\n", ""), [], 1,
     "error: model=rg requires key 'g'"),
    ("solve-rg", RG_SPEC.replace("spins = [0.5, 0.5, 0.5, 0.5]\n", ""), [], 1,
     "error: model=rg requires 'spins' or 'degeneracies'"),
    ("solve-dicke", JC_SPEC, ["--branch", "2"], 1,
     "error: branch index 2 out of range for 2 branches"),
    ("sweep-xi", JC_SPEC, [], 1, "error: sweep-xi needs a model=rg spec"),
    ("solve-rg", RG_SPEC, ["--occupation", "0,7"], 1,
     "error: occupation indices out of range for 4 roots"),
    ("solve-rg", NEAR_CRITICAL_SPEC, [], 2,
     "convergence failure: continuation stalled at xi = "),
    ("verify", JC_DOCUMENT.replace("(0.5, 0)", "0.5"), [], 1,
     "error: expected (re, im) pair, got '0.5'"),
    ("verify", JC_DOCUMENT.replace("[spec]", "[model]"), [], 3,
     "verification failure: result document has no [spec] section"),
    ("verify", JC_DOCUMENT.replace("[branch 0]", "[trace]"), [], 3,
     "verification failure: result document has no branch records"),
    ("verify", JC_DOCUMENT.replace("rapidity_0", "energy"), [], 3,
     "failure = branch 0: no rapidities recorded"),
    # moved by 1e-8, the rapidity's residual reads 2e-8: below the absolute
    # threshold 1e-6, above the recorded 0 by more than --newton-tol
    ("verify", JC_DOCUMENT.replace("(0.5, 0)", "(0.50000001, 0)") + "residual_max_abs = 0\n",
     [], 3, "failure = branch 0: residual grew beyond recorded value"),
], ids=["list-entry", "duplicate-key", "number", "unknown-rg-key", "missing-rg-key",
        "rg-without-spins", "branch-range", "sweep-xi-dicke", "gaudin-error", "convergence",
        "pair", "verify-no-spec", "verify-no-branch", "verify-no-rapidities",
        "verify-residual-grew"])
def test_main_reports_each_failure_with_its_exit_code(tmp_path, capsys, mode, text, flags,
                                                      code, message):
    # errors go to stderr with the exit code of their kind; a document that
    # fails verify is written with its failures, and exits 3
    path = _write(tmp_path, "in.txt", text)
    out = tmp_path / "out.txt"
    assert cli.main(["--mode", mode, "--spec", path, "--out", str(out)] + flags) == code
    err = capsys.readouterr().err
    if message.startswith("failure = "):
        assert err == "" and message in out.read_text().splitlines()
    else:
        assert err.startswith(message) and not out.exists()


ONE_LEVEL_SPEC = """\
model = rg
kind = trigonometric
etas = [1.0]
spins = [1.0]
g = -0.1
N = 2
"""


def test_solve_rg_reaches_the_state_of_a_doubly_occupied_level(tmp_path):
    # one spin-1 level holds one N = 2 state, on the repeated secular root
    path = _write(tmp_path, "one.spec", ONE_LEVEL_SPEC)
    out = str(tmp_path / "one.txt")
    assert cli.main(["--mode", "solve-rg", "--spec", path, "--out", out]) == 0
    kv = {k: v for s, k, v in _parse_doc(open(out).read()) if s == "branch 0"}
    assert kv["trace_status"] == "converged"
    assert {"rapidity_0", "rapidity_1"} <= set(kv)
    checked = str(tmp_path / "verify.txt")
    assert cli.main(["--mode", "verify", "--spec", out, "--out", checked]) == 0


def _benchmark_shape_spec():
    """The large-N shape of the rg-large benchmark: rational, spin 1, m = 48,
    N = 24, levels on a jittered grid over [0.6, 1.4]."""
    rng = np.random.default_rng(48)
    h = 0.8 / 47
    etas = 0.6 + h * np.arange(48) + rng.uniform(-0.25, 0.25, 48) * h
    return (
        "model = rg\nkind = rational\n"
        f"etas = [{', '.join(repr(float(e)) for e in etas)}]\n"
        f"spins = [{', '.join(['1.0'] * 48)}]\n"
        "g = -0.15\nN = 24\n"
    )


def test_solve_rg_at_the_benchmark_shape(tmp_path):
    out = str(tmp_path / "large.txt")
    path = _write(tmp_path, "large.spec", _benchmark_shape_spec())
    assert cli.main(["--mode", "solve-rg", "--spec", path, "--out", out]) == 0
    kv = {k: v for s, k, v in _parse_doc(open(out).read()) if s == "branch 0"}
    assert kv["trace_status"] == "converged"
    x = np.array([cli._parse_complex_pair(kv["rapidity_%d" % a]) for a in range(24)])
    gaps = np.abs(x[:, None] - x[None, :]) + np.eye(24)
    assert np.min(gaps) > 1e-6
    checked = str(tmp_path / "verify.txt")
    assert cli.main(["--mode", "verify", "--spec", out, "--out", checked]) == 0


def test_solve_rg_at_the_benchmark_shape_pins_its_work(tmp_path, monkeypatch):
    # every residual call is a Newton evaluation (the tangent comes from the
    # corrector's reports and inverses), and no SVD runs: every Jacobian on this path
    # is decided by its Frobenius condition number alone
    spec = parse_spec(_write(tmp_path, "large.spec", _benchmark_shape_spec()))
    family, newton, svd = rg_core.deformed_rg_residual, solver.newton_solve, np.linalg.svd
    counts = dict(residual=0, newton=0, svd=0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_newton(residual_fn, w0, tol=1e-10):
        return newton(counted("newton", residual_fn), w0, tol)

    # the seeds are real, so the whole path runs in float64
    evaluate, dtypes = rg_core._evaluate, []

    def recording(row, w, *args):
        dtypes.append(np.asarray(w).dtype)
        return evaluate(row, w, *args)

    monkeypatch.setattr(rg_core, "deformed_rg_residual", counted("residual", family))
    monkeypatch.setattr(solver, "newton_solve", counting_newton)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(rg_core, "_evaluate", recording)
    final, _, trace = solver.solve_rg(spec)
    assert trace.status == "converged"
    steps = len(trace.path) - 1
    assert steps > 0
    assert counts["residual"] == counts["newton"]
    assert counts["svd"] == 0
    # one more evaluation: solve_rg's independent check of the final
    # RapiditySet, whose values are complex
    assert dtypes[:-1] == [np.float64] * counts["residual"]
    assert dtypes[-1] == np.complex128


def test_main_builds_its_parser_once(tmp_path, capsys):
    # the parser is built on the first main call and serves every later one:
    # calls with other modes and options write the documents run() writes,
    # with nothing left over from the call before, and a usage error after
    # good calls still exits 1
    cli.build_parser.cache_clear()
    rg = _write(tmp_path, "rg.spec", RG_SPEC)
    jc = _write(tmp_path, "jc.spec", JC_SPEC)
    calls = [
        (["--mode", "solve-rg", "--spec", rg, "--occupation", "0,2", "--newton-tol", "1e-11"],
         RunConfig("solve-rg", rg, occupation=[0, 2], newton_tol=1e-11)),
        (["--mode", "sweep-xi", "--spec", rg, "--format", "tabular-text", "--xi-steps", "3"],
         RunConfig("sweep-xi", rg, out_format="tabular-text", xi_steps=3)),
        (["--mode", "solve-dicke", "--spec", jc, "--branch", "1", "--boson-cutoff", "6"],
         RunConfig("solve-dicke", jc, branch=1, boson_cutoff=6)),
        (["--mode", "solve-rg", "--spec", rg], RunConfig("solve-rg", rg)),
    ]
    for i, (argv, config) in enumerate(calls):
        out = str(tmp_path / f"{i}.out")
        assert cli.main(argv + ["--out", out]) == 0
        assert open(out).read() == run(config)[0]
    assert "occupation" not in open(out).read()
    assert cli.build_parser.cache_info().misses == 1
    assert cli.main(["--mode", "bogus", "--spec", rg]) == 1
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--mode", "solve-rg", "--spec", rg, "--xi-steps", "abc"]) == 1
    assert cli.build_parser.cache_info().misses == 1


# the dicke-enum benchmark bases: spin-1/2 levels, and a spin-1 level next to
# a spin-1/2 one; both have states with complex-conjugate rapidity pairs
M3_SPEC = """\
model = dicke
epsilons = [0.874, 1.054, 1.069]
spins = [0.5, 0.5, 0.5]
G = 0.146
hbar_omega = 0.916
N = 2
"""

SPIN1_SPEC = """\
model = dicke
epsilons = [0.688, 1.229]
spins = [1.0, 0.5]
G = 0.158
hbar_omega = 0.955
N = 3
"""


def _reference_record(spec, rapidities):
    """rayleigh_energy and oracle_residual of one state as the record step
    took them one state at a time: the product state expanded on the whole
    truncated basis at cutoff N + 12 and checked against H on that basis."""
    basis = ed_oracle.HilbertBasis.dicke(spec, spec.n_excitations + 12)

    def realized(expr):
        return ed_oracle.realize(expr, basis).coo

    bdag = realized(dicke.OperatorExpression(((1.0, (("bdag", None),)),)))
    raisers = [realized(dicke.OperatorExpression(((1.0, (("sp", k),)),)))
               for k in range(spec.m)]
    v = np.zeros(basis.total_dim, dtype=complex)
    v[0] = 1.0
    for xa in rapidities:
        w = bdag @ v
        for k in range(spec.m):
            w -= spec.coupling_G / (spec.epsilons[k] - xa) * (raisers[k] @ v)
        v = w
    v = v / np.linalg.norm(v)
    ham = realized(dicke.build_dicke_hamiltonian(spec))
    ov = ham @ v
    rayleigh = np.vdot(v, ov).real
    moduli = ed_oracle.CooMatrix(ham.rows, ham.cols, np.abs(ham.data), ham.shape)
    return rayleigh, np.linalg.norm(ov - rayleigh * v) / np.linalg.norm(moduli @ np.abs(v))


@pytest.mark.parametrize("text, options", [
    pytest.param(M3_SPEC, {}, id="spin-half"),
    pytest.param(SPIN1_SPEC, {}, id="spin-one"),
    pytest.param(M3_SPEC, {"occupation": [0, 0]}, id="occupation"),
    pytest.param(SPIN1_SPEC, {"occupation": [0, 0, 1]}, id="spin-one-occupation"),
    pytest.param(SPIN1_SPEC, {"branch": 4}, id="branch"),
    pytest.param(JC_SPEC, {"boson_cutoff": 1}, id="cutoff-n"),
])
def test_batched_records_match_the_single_state_reference(tmp_path, text, options):
    path = _write(tmp_path, "model.spec", text)
    doc, code = run(RunConfig("solve-dicke", path, **options))
    assert code == 0
    spec = parse_spec(path)
    triples = _parse_doc(doc)
    branches = sorted({s for s, _, _ in triples if s and s.startswith("branch")})
    assert branches
    pairs = 0
    for name in branches:
        kv = {k: v for s, k, v in triples if s == name}
        x = [cli._parse_complex_pair(kv["rapidity_%d" % a]) for a in range(spec.n_excitations)]
        pairs += any(abs(z.imag) > 1e-3 for z in x)
        rayleigh, rel = _reference_record(spec, x)
        assert abs(float(kv["rayleigh_energy"]) - rayleigh) <= 1e-14 * abs(rayleigh)
        assert abs(float(kv["oracle_residual"]) - rel) <= 1e-14
        assert float(kv["oracle_residual"]) < 1e-10
    if text != JC_SPEC:
        assert pairs >= 1  # complex-conjugate pairs are covered


def test_records_checked_in_batches_match_one_block(tmp_path, monkeypatch):
    path = _write(tmp_path, "model.spec", SPIN1_SPEC)
    spec = parse_spec(path)
    branches = solver.enumerate_dicke_branches(spec)
    whole = cli._dicke_branch_records(spec, branches)
    built, coefficients = [], dicke.bethe_coefficients

    def counted(states, *args):
        built.append(len(states))
        return coefficients(states, *args)

    monkeypatch.setattr(dicke, "bethe_coefficients", counted)
    # a (6, batch) block of at most 12 entries: the 6 states in batches of 2
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", 2 * spec.sector_dimension())
    assert cli._dicke_branch_records(spec, branches) == whole
    assert built == [2, 2, 2]
    # a batch of one state sums its norms in another order: its checked
    # values agree to round-off, and every other line is the same
    monkeypatch.setattr(ed_oracle, "BLOCK_ELEMENTS", spec.sector_dimension())
    single = cli._dicke_branch_records(spec, branches)
    assert built[3:] == [1] * 6
    for a, b in zip(single, whole):
        key, _, value = a.partition(" = ")
        if key in ("rayleigh_energy", "oracle_residual"):
            assert abs(float(value) - float(b.partition(" = ")[2])) <= 1e-15
        else:
            assert a == b


def test_the_record_step_builds_no_product_basis_and_stays_on_sector_sized_vectors(
        tmp_path, monkeypatch):
    path = _write(tmp_path, "model.spec", SPIN1_SPEC)
    spec = parse_spec(path)
    n = spec.n_excitations
    sectors = ed_oracle.HilbertBasis.dicke(spec, n)
    dims = [len(sectors.sector_indices(a)) for a in range(n + 1)]
    ladders, products = [], []
    calls = dict.fromkeys(("bethe", "check", "realize", "basis", "restricted", "restrict"), 0)
    matmul, ladder = ed_oracle.CooMatrix.__matmul__, dicke.bethe_ladder

    def recording_matmul(self, other):
        out = matmul(self, other)
        if not isinstance(other, ed_oracle.CooMatrix):
            products.append((len(other), len(out)))
        return out

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name, key in ((ed_oracle, "realize", "realize"),
                             (ed_oracle.HilbertBasis, "__init__", "basis"),
                             (ed_oracle.RestrictedBasis, "__init__", "restricted"),
                             (ed_oracle.CooMatrix, "restrict", "restrict"),
                             (dicke, "bethe_coefficients", "bethe"),
                             (ed_oracle, "eigencheck", "check")):
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    monkeypatch.setattr(ed_oracle.CooMatrix, "__matmul__", recording_matmul)
    monkeypatch.setattr(dicke, "bethe_ladder", lambda s: ladders.append(ladder(s)) or ladders[-1])
    doc, code = run(RunConfig("solve-dicke", path, boson_cutoff=30))
    assert code == 0
    # no operator realized, no product basis, nothing cut from one; every
    # state built by one call and checked by one more
    assert calls == {"bethe": 1, "check": 1, "realize": 0, "basis": 0, "restricted": 0,
                     "restrict": 0}
    # one ladder, whose blocks join consecutive sectors 0 .. N
    (built,) = ladders
    assert [s.total_dim for s in built.sectors] == dims
    for a, (bdag, raisers) in enumerate(built.steps):
        assert {block.shape for block in (bdag,) + raisers} == {(dims[a + 1], dims[a])}
    # the check's products take and give vectors of sector N
    assert products == [(dims[n], dims[n])] * 2
    # the records do not depend on the cutoff; the header keeps it
    default, _ = run(RunConfig("solve-dicke", path))
    assert "boson_cutoff = 30" in doc and "boson_cutoff = 15" in default
    assert doc.split("[branch 0]")[1] == default.split("[branch 0]")[1]


@pytest.mark.parametrize("extra", [[], ["--occupation", "0,1"]], ids=["enumerate", "occupation"])
def test_solve_dicke_builds_the_sector_tables_once(tmp_path, monkeypatch, extra):
    # the EVB batch and the records read one set of tables, kept on the spec
    built, build = [], dicke._sector_tables

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(dicke, "_sector_tables", counted)
    path = _write(tmp_path, "m3.spec", M3_SPEC)
    out = str(tmp_path / "out.txt")
    assert cli.main(["--mode", "solve-dicke", "--spec", path, "--out", out] + extra) == 0
    assert len(built) == 1
    for sector in dicke.sector_tables(built[0]):
        assert not sector.digits.flags.writeable and not sector.indices.flags.writeable
    assert len(built) == 1


def test_the_sector_count_builds_no_tables(monkeypatch):
    # the count comes from the spins alone: 14 spin-1/2 levels flip 0 .. 7 times
    monkeypatch.setattr(dicke, "_sector_tables", lambda spec: pytest.fail("tables built"))
    spec = rg_core.DickeSpec(tuple(np.linspace(0.5, 1.5, 14)), (0.5,) * 14, 0.25, 1.0, 7)
    assert spec.sector_dimension() == sum(math.comb(14, k) for k in range(8)) == 9908

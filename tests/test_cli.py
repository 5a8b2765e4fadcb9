import numpy as np
import pytest

from gaudin import cli, rg_core
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

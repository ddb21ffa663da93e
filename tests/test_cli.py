import json
import math
import os

import numpy as np
import pytest
import scipy

from fdnoma import analytic, default_config
from fdnoma.cli import SweepSpec, main, run_sweep, validate_config
from fdnoma.config import ConfigError, config_to_dict


@pytest.fixture
def cfg_file(tmp_path):
    cfg = default_config(li_quality_mu=0.2, tx_antennas=2, rx_antennas=2)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    return p


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_sweep_grid_stepping():
    spec = SweepSpec("snr_db", 0.0, 40.0, 2.0, ("exact",), (1,))
    grid = spec.grid()
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 40.0
    # floating-point-safe inclusive endpoints
    spec = SweepSpec("mu", 0.0, 1.0, 0.05, ("mc",), (1,))
    assert len(spec.grid()) == 21
    assert spec.grid()[-1] == pytest.approx(1.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("snr", 0, 1, 0.1, ("mc",), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, -0.1, ("mc",), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 2, 1, 0.1, ("mc",), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, (), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, ("magic",), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, ("mc",), ())
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, ("mc",), (1,), trials=0)
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, ("mc", "exact", "mc"), (1,))
    with pytest.raises(ConfigError):
        SweepSpec("snr_db", 0, 1, 0.1, ("mc",), (2, 2))
    # non-finite bounds, steps and point counts (10 / 1e-320 overflows)
    for start, stop, step in [
        (math.nan, 10, 5), (0, math.inf, 5), (-math.inf, 10, 5),
        (0, 10, math.nan), (0, 10, math.inf), (0, 10, 1e-320),
    ]:
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("snr_db", start, stop, step, ("mc",), (1,))


@pytest.mark.parametrize("sweep", ["snr_db=nan:10:5", "snr_db=0:inf:5", "snr_db=0:10:1e-320"])
def test_main_rejects_nonfinite_sweep(cfg_file, tmp_path, capsys, sweep):
    out = tmp_path / "x.csv"
    assert main(["--config", str(cfg_file), "--sweep", sweep, "--methods", "lb", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_snr_sweep_rows_and_ordering(cfg_file, tmp_path):
    out = tmp_path / "curve.csv"
    spec = SweepSpec(
        "snr_db", 0.0, 40.0, 2.0, ("exact", "lb"), (1, 2, 3), trials=1000, seed=1
    )
    run_sweep(cfg_file, spec, out)
    header, rows = read_rows(out)
    assert len(rows) == 21
    assert header[0] == "x"
    assert "user1_exact" in header and "user3_lb" in header
    iex = header.index("user2_exact")
    ilb = header.index("user2_lb")
    for r in rows:
        assert float(r[ilb]) <= float(r[iex]) + 1e-6
        assert 0.0 <= float(r[iex]) <= 1.0


def test_rerun_byte_identical(cfg_file, tmp_path):
    spec = SweepSpec("snr_db", 0.0, 10.0, 5.0, ("mc", "exact"), (1, 2), trials=40_000, seed=3, partitions=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg_file, spec, a)
    run_sweep(cfg_file, spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_partition_count_does_not_change_values(cfg_file, tmp_path):
    outs = []
    for p in (1, 4, 16):
        spec = SweepSpec("snr_db", 0.0, 10.0, 5.0, ("mc",), (1,), trials=300_000, seed=3, partitions=p)
        path = tmp_path / f"p{p}.csv"
        run_sweep(cfg_file, spec, path)
        header, rows = read_rows(path)
        i = header.index("user1_mc")
        outs.append([r[i] for r in rows])
    assert outs[0] == outs[1] == outs[2]


def test_mu_sweep_and_feasibility_column(tmp_path):
    # user 1 infeasible at threshold 1.2: flag 0 and outage pinned to 1
    cfg = default_config(thresholds=(1.2, 1.5, 2.0))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "mu.csv"
    spec = SweepSpec("mu", 0.0, 0.4, 0.2, ("exact", "mc"), (1,), trials=2000, seed=0)
    run_sweep(p, spec, out)
    header, rows = read_rows(out)
    fcol = header.index("user1_feasible")
    vcol = header.index("user1_exact")
    mcol = header.index("user1_mc")
    for r in rows:
        assert r[fcol] == "0"
        assert float(r[vcol]) == 1.0
        assert float(r[mcol]) == 1.0


def test_d_sr_sweep_sets_complementary_distance(cfg_file, tmp_path):
    out = tmp_path / "d.csv"
    spec = SweepSpec("d_sr", 0.2, 0.8, 0.3, ("mc",), (1,), trials=5000, seed=1)
    run_sweep(cfg_file, spec, out)
    header, rows = read_rows(out)
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == pytest.approx([0.2, 0.5, 0.8])


def test_d_sr_sweep_rejects_per_user_distances(tmp_path, capsys):
    # d_sr sets every d_ru to 1 - d_sr: per-user distances would be lost
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(default_config(d_ru=(0.4, 0.5, 0.6)))))
    out = tmp_path / "d.csv"
    rc = main(["--config", str(p), "--sweep", "d_sr=0.3:0.5:0.1", "--methods", "mc",
               "--trials", "100", "--out", str(out)])
    assert rc == 1
    assert "d_ru is per user" in capsys.readouterr().err
    assert not out.exists()


def test_mu_sweep_reproduces_duplexing_crossover(tmp_path):
    # shared-vs-orthogonal-duplexing comparison through the file interface:
    # curves must cross between perfect and absent loop-interference
    # cancellation when the shared system runs rate-matched thresholds
    from fdnoma import fd_thresholds_rate_matched

    hd_thr = (0.9, 1.5, 2.0)
    cfg = default_config(
        snr_db=15.0, tx_antennas=2, rx_antennas=2,
        thresholds=fd_thresholds_rate_matched(hd_thr),
    )
    d = config_to_dict(cfg)
    d["hd_thresholds"] = list(hd_thr)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "mu.csv"
    spec = SweepSpec("mu", 0.0, 1.0, 0.05, ("mc", "hd"), (2,), trials=100_000, seed=11)
    run_sweep(p, spec, out)
    header, rows = read_rows(out)
    imc, ihd = header.index("user2_mc"), header.index("user2_hd")
    fd_curve = [float(r[imc]) for r in rows]
    hd_curve = [float(r[ihd]) for r in rows]
    assert len(set(hd_curve)) == 1  # half-duplex has no loop interference
    assert fd_curve[0] < hd_curve[0]
    assert fd_curve[-1] > hd_curve[-1]


def test_asymp_hd_oma_methods(cfg_file, tmp_path):
    out = tmp_path / "b.csv"
    spec = SweepSpec("snr_db", 5.0, 15.0, 5.0, ("asymp", "hd", "oma"), (2,), trials=20_000, seed=2)
    run_sweep(cfg_file, spec, out)
    header, rows = read_rows(out)
    for col in ("user2_asymp", "user2_hd", "user2_oma"):
        i = header.index(col)
        for r in rows:
            assert 0.0 <= float(r[i]) <= 1.0


def test_meta_header_contents(cfg_file, tmp_path):
    out = tmp_path / "m.csv"
    spec = SweepSpec("snr_db", 0.0, 0.0, 1.0, ("exact",), (1,), seed=11)
    run_sweep(cfg_file, spec, out)
    text = out.read_text()
    assert "# tool: fdnoma" in text
    # the Monte Carlo streams depend on these versions
    assert f"\n# numpy: {np.__version__}\n" in text
    assert f"\n# scipy: {scipy.__version__}\n" in text
    assert "# config_hash:" in text
    assert "# seed: 11" in text


def test_main_validate_and_exit_codes(cfg_file, tmp_path, capsys):
    assert main(["--config", str(cfg_file), "--validate"]) == 0
    echo = capsys.readouterr().out
    assert "demand" in echo and "feasible" in echo

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_users": 3}))
    assert main(["--config", str(bad), "--validate"]) == 1

    d = config_to_dict(default_config())
    d["power_coeffs"] = [0.5, 0.5, 0.2]
    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text(json.dumps(d))
    assert main(["--config", str(unnorm), "--validate"]) == 1
    assert "sum to 1" in capsys.readouterr().out


def test_validate_warns_infeasible(tmp_path, capsys):
    cfg = default_config(thresholds=(1.2, 1.5, 2.0))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    assert validate_config(p) == 0
    assert "warning" in capsys.readouterr().out


def test_main_sweep_end_to_end(cfg_file, tmp_path):
    out = tmp_path / "cli.csv"
    rc = main([
        "--config", str(cfg_file),
        "--sweep", "snr_db=0:10:5",
        "--methods", "exact,mc",
        "--users", "1,3",
        "--trials", "2000",
        "--seed", "4",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_rows(out)
    assert len(rows) == 3
    assert "user3_mc_stderr" in header


def test_main_sweep_reads_the_config_once(cfg_file, tmp_path, monkeypatch):
    import fdnoma.cli as cli_mod

    calls = []
    real = cli_mod.load_config
    monkeypatch.setattr(cli_mod, "load_config", lambda path: calls.append(path) or real(path))
    rc = main(["--config", str(cfg_file), "--sweep", "snr_db=0:10:5", "--methods", "lb,mc",
               "--trials", "2000", "--out", str(tmp_path / "once.csv")])
    assert rc == 0
    assert calls == [str(cfg_file)]


def test_main_rejects_bad_inputs(cfg_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["--config", str(cfg_file), "--sweep", "bogus", "--out", str(out)]) == 1
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5", "--users", "9", "--out", str(out)]) == 1
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5", "--methods", "magic", "--out", str(out)]) == 1
    # usage errors share code 1; 2 stays reserved for numeric failure
    assert main(["--config", str(cfg_file)]) == 1
    assert main(["--sweep", "mu=0:1:0.5", "--out", str(out)]) == 1
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5"]) == 1
    assert main(["--config", str(cfg_file), "--bogus"]) == 1
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5", "--trials", "x", "--out", str(out)]) == 1
    # repeated entries would repeat CSV columns
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5", "--methods", "mc,exact,mc", "--out", str(out)]) == 1
    assert main(["--config", str(cfg_file), "--sweep", "mu=0:1:0.5", "--users", "2,2", "--out", str(out)]) == 1
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_main_numeric_failure_exit_code(cfg_file, tmp_path, capsys, monkeypatch):
    # a rule one node per unit of log gain cannot pass its 1e-12 halving
    # check: surfaced as a numeric failure, not a silent wrong answer
    monkeypatch.setattr(analytic, "_EXACT_STEP", 1.0)
    out = tmp_path / "deep.csv"
    rc = main([
        "--config", str(cfg_file),
        "--sweep", "snr_db=120:120:1",
        "--methods", "exact",
        "--users", "1",
        "--out", str(out),
    ])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


def test_main_invariant_violation_exit_code(cfg_file, tmp_path, capsys, monkeypatch):
    # force an impossible bound to confirm the violation is surfaced,
    # not clamped
    import fdnoma.cli as cli_mod

    monkeypatch.setattr(cli_mod, "op_lower_bound", lambda cfg, u: 1.0)
    out = tmp_path / "viol.csv"
    rc = main([
        "--config", str(cfg_file),
        "--sweep", "snr_db=20:20:1",
        "--methods", "exact,lb",
        "--users", "1",
        "--out", str(out),
    ])
    assert rc == 3
    assert "invariant violation" in capsys.readouterr().err
    assert not out.exists()  # a failed invariant publishes no CSV


@pytest.mark.parametrize(
    "key, value, argv",
    [
        ("d_sr", "0.5", ["--validate"]),
        ("kappa_sr", None, ["--validate"]),
        ("m_sr", True, ["--validate"]),
        ("thresholds", 2.0, ["--validate"]),
        ("power_coeffs", [0.5, "1/3", 1 / 6], ["--validate"]),
        ("m_ru", [1, [1], 1], ["--validate"]),
        ("snr_db", "15", ["--validate"]),
        ("snr_db", "15", ["--sweep", "snr_db=0:10:5", "--methods", "lb"]),
        ("hd_thresholds", 1.5, ["--sweep", "snr_db=0:10:5", "--methods", "hd"]),
        ("oma_threshold", "x", ["--sweep", "snr_db=0:10:5", "--methods", "oma"]),
        # JSON's NaN and Infinity are read as floats; none is a valid value
        ("kappa_sr", math.nan, ["--sweep", "snr_db=0:10:5", "--methods", "exact,lb,mc"]),
        ("thresholds", [0.9, math.nan, 2.0], ["--sweep", "snr_db=0:10:5", "--methods", "exact,mc"]),
        ("d_ru", math.nan, ["--sweep", "snr_db=0:10:5", "--methods", "mc"]),
        ("hd_thresholds", [1, math.nan, 2], ["--sweep", "snr_db=0:10:5", "--methods", "hd"]),
        ("oma_threshold", math.inf, ["--sweep", "snr_db=0:10:5", "--methods", "oma"]),
        ("li_scale_lambda", math.inf, ["--sweep", "snr_db=0:10:5", "--methods", "exact,lb,mc"]),
        ("snr_db", math.inf, ["--validate"]),
        pytest.param("m_sr", 10 ** 400, ["--validate"], id="m_sr-int-beyond-float"),
        pytest.param("snr_db", 10 ** 400, ["--validate"], id="snr_db-int-beyond-float"),
        ("snr_db", math.inf, ["--sweep", "mu=0:1:0.5", "--methods", "lb"]),
    ],
)
def test_main_rejects_wrongly_typed_config(tmp_path, capsys, key, value, argv):
    d = config_to_dict(default_config())
    d[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "x.csv"
    assert main(["--config", str(p), "--trials", "100", "--out", str(out), *argv]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.out + captured.err
    assert not out.exists()


def test_failed_publish_keeps_previous_csv(cfg_file, tmp_path, monkeypatch):
    out = tmp_path / "curve.csv"
    out.write_text("previous run\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    spec = SweepSpec("snr_db", 0.0, 10.0, 5.0, ("lb",), (1,))
    with pytest.raises(OSError, match="disk full"):
        run_sweep(cfg_file, spec, out)
    assert out.read_text() == "previous run\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "curve.csv"]


@pytest.mark.parametrize("target", ["missing/x.csv", "outdir"])
def test_main_unwritable_out_exit_code(cfg_file, tmp_path, capsys, target):
    (tmp_path / "outdir").mkdir()
    out = tmp_path / target
    rc = main([
        "--config", str(cfg_file), "--sweep", "snr_db=0:10:5", "--methods", "lb",
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(out) in err
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "outdir"]
    assert os.listdir(tmp_path / "outdir") == []


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hd_thresholds", [1.0], "hd_thresholds needs one positive entry per user"),
        ("hd_thresholds", [1.0, -1.0, 2.0], "hd_thresholds needs one positive entry per user"),
        ("oma_threshold", 0.0, "oma_threshold must be positive"),
    ],
    ids=["hd-short", "hd-negative", "oma-zero"],
)
def test_validate_checks_baseline_keys(tmp_path, capsys, key, value, message):
    # --validate and a sweep that uses the key reject the file alike
    d = config_to_dict(default_config())
    d[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    assert main(["--config", str(p), "--validate"]) == 1
    assert f"config error: {message}" in capsys.readouterr().out
    out = tmp_path / "x.csv"
    # the keys belong to the config, so a sweep that does not use them
    # rejects the file too
    for method in ("hd" if key == "hd_thresholds" else "oma", "mc"):
        argv = ["--config", str(p), "--sweep", "snr_db=0:10:5", "--methods", method, "--trials", "100"]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "key, values, method",
    [("hd_thresholds", ([0.8, 1.2, 1.9], [1.0, 1.6, 2.4]), "hd"), ("oma_threshold", (4.0, 9.0), "oma")],
)
def test_baseline_keys_enter_config_hash(tmp_path, key, values, method):
    # files that differ only in a baseline key write different hashes over
    # their different columns; null reads as the absent key
    def sweep(name, value):
        d = config_to_dict(default_config())
        if value != "absent":
            d[key] = value
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(d))
        out = tmp_path / f"{name}.csv"
        spec = SweepSpec("snr_db", 10.0, 20.0, 10.0, (method,), (1, 2, 3), trials=20_000, seed=3)
        run_sweep(p, spec, out)
        lines = out.read_text().splitlines()
        return next(l for l in lines if l.startswith("# config_hash:")), lines[-2:]

    (h_a, rows_a), (h_b, rows_b) = sweep("a", values[0]), sweep("b", values[1])
    assert h_a != h_b and rows_a != rows_b
    absent, null = sweep("absent", "absent"), sweep("null", None)
    assert absent == null
    assert absent[0] == "# config_hash: 7a52c5050c37b1bb"
    assert h_a != absent[0] != h_b


def _exact_cells(path):
    header, rows = read_rows(path)
    return [dict(zip(header, (float(v) for v in r))) for r in rows]


@pytest.mark.parametrize("sweep", ["snr_db=5:25:10", "mu=0:1:0.5", "kappa=0:0.1:0.05", "d_sr=0.3:0.5:0.1"])
def test_sweep_mc_cells_equal_separate_engine_calls(tmp_path, monkeypatch, sweep):
    # the sweep draws each block once for every point and method; its cells
    # must still be the exact floats of one engine call per point and method
    import fdnoma.cli as cli_mod
    from fdnoma import BaselineConfig, estimate_all_users, hd_outage_all, oma_outage_all
    from fdnoma.montecarlo import BLOCK_TRIALS

    monkeypatch.setattr(
        cli_mod, "_fmt", lambda v: str(v) if isinstance(v, int) else repr(float(v))
    )
    variable, rest = sweep.split("=")
    cfg = default_config(
        tx_antennas=2, rx_antennas=2, li_quality_mu=0.3, kappa_sr=0.05, kappa_ru=0.05,
        m_ru=(1, 2, 1), d_ru=0.5 if variable == "d_sr" else (0.4, 0.5, 0.6),  # d_sr sets every d_ru
        hd_thresholds=(0.8, 1.2, 1.9), oma_threshold=4.0,
    )
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    start, stop, step = (float(v) for v in rest.split(":"))
    trials, seed = BLOCK_TRIALS + 1000, 19  # the second block is a remainder block
    users = (1, 2, 3)

    grid = SweepSpec(variable, start, stop, step, ("mc",), users).grid()
    assert len(grid) == 3
    expected = []
    for v in grid:
        pt = cli_mod._apply_variable(cfg, variable, v)
        row = {}
        for e in estimate_all_users(pt, trials, seed, 1, users):
            row[f"user{e.user}_mc"], row[f"user{e.user}_mc_stderr"] = e.op_value, e.std_error
        for e in hd_outage_all(BaselineConfig(base=pt, mode="hd_noma"), trials, seed, 1, users):
            row[f"user{e.user}_hd"] = e.op_value
        for e in oma_outage_all(BaselineConfig(base=pt, mode="fd_oma"), trials, seed, 1, users):
            row[f"user{e.user}_oma"] = e.op_value
        expected.append(row)
    assert any(0.0 < x < 1.0 for row in expected for x in row.values())

    for partitions in (1, 3):
        out = tmp_path / f"p{partitions}.csv"
        spec = SweepSpec(variable, start, stop, step, ("mc", "hd", "oma"), users,
                         trials=trials, seed=seed, partitions=partitions)
        run_sweep(p, spec, out)
        rows = _exact_cells(out)
        assert [{k: r[k] for k in want} for r, want in zip(rows, expected)] == expected


def test_sweep_draws_each_block_once(cfg_file, tmp_path, monkeypatch):
    # 7 points x (mc, hd, oma) over 2 blocks: one stream per block, not 42
    from fdnoma import montecarlo
    from fdnoma.montecarlo import BLOCK_TRIALS

    calls = []
    real = montecarlo.seeded_stream

    def counting(seed, substream=0):
        calls.append(substream)
        return real(seed, substream)

    monkeypatch.setattr(montecarlo, "seeded_stream", counting)
    spec = SweepSpec("snr_db", 0.0, 30.0, 5.0, ("mc", "hd", "oma"), (1, 2, 3),
                     trials=2 * BLOCK_TRIALS, seed=5, partitions=2)
    run_sweep(cfg_file, spec, tmp_path / "s.csv")
    assert sorted(calls) == [0, 1]


def test_numeric_failure_spends_no_monte_carlo_time(tmp_path, capsys, monkeypatch):
    # the analytic cells come first: a sweep that ends in a numeric failure
    # (an exact rule too coarse to pass its halving check) exits 2 without
    # ever calling the Monte Carlo engine
    import fdnoma.cli as cli_mod

    monkeypatch.setattr(analytic, "_EXACT_STEP", 1.0)
    calls = []
    monkeypatch.setattr(cli_mod, "_estimate", lambda *a, **k: calls.append(a) or [])
    cfg = default_config(tx_antennas=3, rx_antennas=2, m_sr=2)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "deep.csv"
    rc = main([
        "--config", str(p), "--sweep", "snr_db=0:36:4", "--methods", "exact,mc",
        "--out", str(out),
    ])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []

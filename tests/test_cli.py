import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ldgm
from ldgm.cli import main
from ldgm.config import ExperimentConfig
from ldgm.errors import ConfigError
from ldgm.network import init_xavier, load_checkpoint, save_checkpoint
from ldgm.trainer import TrainReport

TINY = """
# desk-scale run
problem.name=beam
method=ldgm
network.hidden_layers=2
network.width=6
sampler.interior=12
sampler.initial=6
sampler.boundary=6
train.stages={stages}
train.steps_per_stage=2
train.log_every=1
seeds={seeds}
out={out}
"""


def write_cfg(tmp_path, stages=4, seeds="0", out=None):
    out = out or str(tmp_path / "runs")
    path = tmp_path / "exp.cfg"
    path.write_text(TINY.format(stages=stages, seeds=seeds, out=out))
    return path, out


def test_run_writes_expected_artifacts(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=4)
    assert main(["run", "--config", str(cfg_path)]) == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    d = run_dirs[0]
    for name in ("report.csv", "params.ckpt", "config.resolved", "status.txt",
                 "summary.csv"):
        assert (d / name).exists(), name
    report = TrainReport.from_csv(d / "report.csv")
    assert len(report.rows) == 4  # one row per stage at the default cadence
    assert (d / "status.txt").read_text().strip() == "ok"
    header, values = (d / "summary.csv").read_text().splitlines()
    assert header == ("final_rel_l2,final_J_total,steps,wall_seconds,"
                      "tail_min_rel_l2,tail_median_rel_l2")
    tail = [float(v) for v in values.split(",")[4:]]
    assert tail == [report.final_rel_l2] * 2   # 4 rows: the tail is the final row


def test_unknown_key_is_rejected_by_name(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("problem.name=beam\nnetwork.widht=50\n")
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_file(path)
    assert "network.widht" in str(e.value)
    assert main(["run", "--config", str(path)]) == 2
    # the head is linear and elu's alpha is 1: neither is a key
    for key, value in (("network.output_activation", "identity"), ("network.elu_alpha", "1.0")):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_text(f"problem.name=beam\n{key}={value}\n")
        assert e.value.bad_keys == [key]


def test_seed_list_spawns_one_directory_each(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=2, seeds="0,1,2")
    assert main(["run", "--config", str(cfg_path)]) == 0
    dirs = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert len(dirs) == 3
    assert {d.rsplit("seed", 1)[1] for d in dirs} == {"0", "1", "2"}


def test_rerun_does_not_overwrite(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=2)
    assert main(["run", "--config", str(cfg_path)]) == 0
    d = next((tmp_path / "runs").iterdir())
    before = (d / "report.csv").read_bytes()
    marker = d / "marker.txt"
    marker.write_text("untouched\n")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (d / "report.csv").read_bytes() == before
    assert marker.read_text() == "untouched\n"


def test_sweep_with_empty_values_writes_empty_summary(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=2)
    assert main(["sweep", "--config", str(cfg_path), "--axis", "network.width",
                 "--values", ""]) == 0
    summary = tmp_path / "runs" / "sweep-network_width.csv"
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("network.width")
    assert len(lines) == 1


def test_sweep_runs_each_value_and_summarizes(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=2)
    assert main(["sweep", "--config", str(cfg_path), "--axis", "network.width",
                 "--values", "4,8"]) == 0
    lines = (tmp_path / "runs" / "sweep-network_width.csv").read_text().splitlines()
    assert len(lines) == 3
    run_dirs = [p for p in (tmp_path / "runs").iterdir() if p.is_dir()]
    assert len(run_dirs) == 2
    # summary numbers are re-derivable from the per-run reports
    for line in lines[1:]:
        val, rel, secs, status = line.split(",")
        assert status == "ok"
        match = [d for d in run_dirs
                 if ExperimentConfig.from_text((d / "config.resolved").read_text())
                 .raw["network.width"] == val]
        assert len(match) == 1
        rep = TrainReport.from_csv(match[0] / "report.csv")
        assert float(rel) == rep.final_rel_l2


def test_sweep_of_runs_that_log_no_rows_reads_nan(tmp_path):
    cfg_path, _ = write_cfg(tmp_path, stages=0)
    assert main(["sweep", "--config", str(cfg_path), "--axis", "network.width",
                 "--values", "4"]) == 0
    lines = (tmp_path / "runs" / "sweep-network_width.csv").read_text().splitlines()
    val, rel, secs, status = lines[1].split(",")
    assert (val, status) == ("4", "ok")
    assert (rel, secs) == ("nan", "nan")


def test_sweep_rejects_non_numeric_axis(tmp_path):
    cfg_path, out = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg_path), "--axis", "problem.name",
                 "--values", "beam"]) == 2
    # a malformed value is rejected before any value runs
    assert main(["sweep", "--config", str(cfg_path), "--axis", "network.width",
                 "--values", "4,abc"]) == 2
    assert not Path(out).exists()


def test_reference_and_compare(tmp_path):
    ref_path = tmp_path / "ref.csv"
    assert main(["reference", "--epsilon", "0.1", "--grid", "32", "--dt", "0.25",
                 "--horizon", "1.0", "--out", str(ref_path)]) == 0
    assert ref_path.exists()

    rep = TrainReport()
    rep.log(1, 0.5, 0.2, 0.2, 0.1, 0.9, 0.1)
    rep.log(2, 0.25, 0.1, 0.1, 0.05, 0.4, 0.2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.to_csv(a)
    rep.to_csv(b)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,rel_l2_a,rel_l2_b,seconds_a,seconds_b"
    assert len(lines) == 3


def test_compare_prints_rel_l2_and_seconds_by_column(tmp_path, capsys):
    a, b = TrainReport(), TrainReport()
    a.log(1, 0.5, 0.2, 0.2, 0.1, 0.9, 0.25)
    a.log(2, 0.25, 0.1, 0.1, 0.05, 0.4, 0.5)
    b.log(1, 0.7, 0.3, 0.3, 0.1, 0.8, 0.125)
    b.log(2, 0.35, 0.2, 0.1, 0.05, 0.3, 0.75)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    capsys.readouterr()
    assert main(["compare", str(pa), str(pb)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "step,rel_l2_a,rel_l2_b,seconds_a,seconds_b",
        "1,0.9,0.8,0.25,0.125",
        "2,0.4,0.3,0.5,0.75",
    ]


def test_compare_pairs_rows_by_step(tmp_path, capsys):
    # a logged every 5 steps, b every 10: only the steps both logged are paired
    a, b = TrainReport(), TrainReport()
    for step in (5, 10, 15, 20):
        a.log(step, 1.0, 0.5, 0.25, 0.25, step / 100, step / 10)
    for step in (10, 20):
        b.log(step, 1.0, 0.5, 0.25, 0.25, step / 200, step / 20)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    capsys.readouterr()
    assert main(["compare", str(pa), str(pb)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "step,rel_l2_a,rel_l2_b,seconds_a,seconds_b",
        "10,0.1,0.05,1.0,0.5",
        "20,0.2,0.1,2.0,1.0",
    ]
    # no shared step is one error line
    c = TrainReport()
    c.log(7, 1.0, 0.5, 0.25, 0.25, 0.07, 0.7)
    pc = tmp_path / "c.csv"
    c.to_csv(pc)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(pa), str(pc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "share no logged step" in err
    assert err.count("\n") == 1
    assert not out.exists()


def write_divergent_cfg(tmp_path):
    """A run whose learning rate of 1e150 sends the loss to inf within its first stages."""
    path = tmp_path / "explode.cfg"
    path.write_text(
        "problem.name=mkdv\nmethod=ldgm\nnetwork.hidden_layers=2\nnetwork.width=6\n"
        "sampler.interior=8\nsampler.initial=4\nsampler.boundary=4\n"
        f"train.stages=5\ntrain.steps_per_stage=2\ntrain.learning_rate=1e150\n"
        f"seeds=0\nout={tmp_path / 'runs'}\n")
    return path


def test_run_abort_is_recorded_and_nonzero(tmp_path):
    code = main(["run", "--config", str(write_divergent_cfg(tmp_path))])
    d = next(p for p in (tmp_path / "runs").iterdir())
    status = (d / "status.txt").read_text()
    assert code == 1
    assert status.startswith("abort:")


def test_every_abort_records_its_cause(tmp_path):
    path = write_divergent_cfg(tmp_path)
    assert main(["run", "--config", str(path)]) == 1
    d = next((tmp_path / "runs").iterdir())
    status = (d / "status.txt").read_text().strip()
    assert status == "abort: NonFiniteLossError: non-finite value at Adam step 2: loss"
    # a rerun reports the recorded abort instead of training again
    (d / "config.resolved").unlink()
    assert main(["run", "--config", str(path)]) == 1
    assert not (d / "config.resolved").exists()


def test_unknown_activation_is_rejected_at_load(tmp_path):
    # tanh and elu are the only hidden activations
    for kind in ("gelu", "sigmoid", "relu", "identity"):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem.name=beam\nnetwork.activation={kind}\nout={tmp_path / 'runs'}\n")
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_file(path)
        assert e.value.bad_keys == ["network.activation"] and kind in str(e.value)
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "runs").exists()


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_resolves_its_views(path, tmp_path):
    cfg = ExperimentConfig.from_file(path)
    spec = cfg.problem()
    net = cfg.network(spec)
    assert net.input_dim == spec.spatial_dim + (0 if spec.stationary else 1)
    assert cfg.sampler().interior > 0 and cfg.train().stages > 0 and cfg.ritz().penalty > 0
    assert cfg.seeds and ExperimentConfig.from_text(cfg.resolved_text()) == cfg
    # the checkpoint header carries every field of the network config
    save_checkpoint(tmp_path / "net.ckpt", net, init_xavier(net, 0))
    assert load_checkpoint(tmp_path / "net.ckpt")[0] == net


def test_ritz1d_config_draws_its_points_from_the_sampler():
    cfg = ExperimentConfig.from_file(CONFIGS[0].parent / "ritz1d.cfg")
    sampler, rc = cfg.sampler(), cfg.ritz()
    assert (sampler.interior, sampler.boundary) == (rc.interior, rc.boundary) == (400, 100)


@pytest.mark.parametrize("key,value", [
    ("train.stages", "abc"), ("problem.name", "nope"), ("network.width", "2.5"), ("seeds", "a"),
    ("train.schedule", "cosine"),
    # counts that would crash or silently empty a run
    ("train.log_every", "0"), ("train.steps_per_stage", "0"), ("train.stages", "-1"), ("seeds", ""),
    # values that would die inside the run with a raw numpy error
    ("seeds", "-1"), ("seeds", "0,-2"), ("sampler.seed", "-3"),
    ("sampler.interior", "-1"), ("sampler.initial", "0"), ("sampler.boundary", "-2"),
    ("problem.dimension", "0"),
    ("network.hidden_layers", "0"), ("network.width", "0"),
    # floats that would abort, warn or train on a meaningless setting
    ("train.learning_rate", "nan"), ("train.beta1", "1.0"),
    ("ritz.penalty", "-5"), ("problem.epsilon", "-1"),
    # elu's alpha is 1, and the variational methods draw their points from sampler.*:
    # any setting of these is refused, as an unknown key
    ("network.elu_alpha", "nan"), ("ritz.interior", "-1"), ("ritz.boundary", "0"),
    # Allen-Cahn, the one problem with a periodic boundary, is no longer registered
    ("problem.name", "allen_cahn"),
])
def test_malformed_value_is_rejected_at_load(tmp_path, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"problem.name=beam\n{key}={value}\nout={tmp_path / 'runs'}\n")
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_file(path)
    assert e.value.bad_keys == [key] and key in str(e.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("").override(key, value)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "runs").exists()


def test_negative_seed_flag_is_rejected_before_any_run(tmp_path, capsys):
    path, out = write_cfg(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "-1"]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not Path(out).exists()


def test_checkpoint_artifact_roundtrips(tmp_path):
    cfg_path, out = write_cfg(tmp_path, stages=2)
    main(["run", "--config", str(cfg_path)])
    d = next((tmp_path / "runs").iterdir())
    cfg, params = load_checkpoint(d / "params.ckpt")
    assert cfg.output_dim == 4  # beam roster size
    assert np.all(np.isfinite(params.to_vector()))


RITZ = """
problem.name=bilaplacian_ritz
problem.dimension=1
method={method}
network.hidden_layers=2
network.width=6
sampler.interior=12
sampler.boundary=6
train.stages=3
train.steps_per_stage=2
seeds=0
out={out}
"""


@pytest.mark.parametrize("method,outputs", [("ldrm", 2), ("drm", 1)])
def test_variational_run_writes_expected_artifacts(tmp_path, capsys, method, outputs):
    path = tmp_path / "ritz.cfg"
    path.write_text(RITZ.format(method=method, out=tmp_path / "runs"))
    assert main(["run", "--config", str(path)]) == 0
    d = next((tmp_path / "runs").iterdir())
    for name in ("report.csv", "params.ckpt", "config.resolved", "status.txt",
                 "summary.csv"):
        assert (d / name).exists(), name
    assert (d / "status.txt").read_text().strip() == "ok"
    report = TrainReport.from_csv(d / "report.csv")
    assert len(report.rows) == 3
    assert math.isfinite(report.final_rel_l2)
    from ldgm.network import load_checkpoint
    assert load_checkpoint(d / "params.ckpt")[0].output_dim == outputs
    # a rerun reports the recorded status instead of training again
    before = (d / "report.csv").read_bytes()
    (d / "config.resolved").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("seed 0: ok")
    assert not (d / "config.resolved").exists()
    assert (d / "report.csv").read_bytes() == before


def test_variational_run_draws_from_the_sampler_seed(tmp_path):
    # two ldrm configs that differ only in sampler.seed draw different points
    reports = []
    for seed in (0, 1):
        path = tmp_path / f"ritz{seed}.cfg"
        out = tmp_path / f"runs{seed}"
        path.write_text(RITZ.format(method="ldrm", out=out) + f"sampler.seed={seed}\n")
        assert main(["run", "--config", str(path)]) == 0
        reports.append(TrainReport.from_csv(next(out.iterdir()) / "report.csv").rows)
    assert [r[:6] for r in reports[0]] != [r[:6] for r in reports[1]]


@pytest.mark.parametrize("method,name,extra", [
    ("ldrm", "beam", ""), ("drm", "heat_nd", "problem.dimension=2"),
    ("dgm", "bilaplacian_ritz", "problem.dimension=1"),
])
def test_method_on_the_wrong_kind_of_problem_aborts_with_a_status(tmp_path, method, name, extra):
    path = tmp_path / "mismatch.cfg"
    path.write_text(f"problem.name={name}\n{extra}\nmethod={method}\nnetwork.hidden_layers=1\n"
                    f"network.width=4\ntrain.stages=1\nseeds=0\nout={tmp_path / 'runs'}\n")
    assert main(["run", "--config", str(path)]) == 1
    d = next((tmp_path / "runs").iterdir())
    status = (d / "status.txt").read_text().strip()
    assert status.startswith("abort: ConfigError: ")
    assert repr(method) in status and repr(name) in status
    assert not (d / "report.csv").exists()


def test_training_runs_never_import_sympy(tmp_path):
    # a closed-form problem (mkdv) and the manufactured-source Ritz problem
    cfgs = []
    for name, method, extra in (("mkdv", "ldgm", ""),
                                ("bilaplacian_ritz", "ldrm", "problem.dimension=1\n")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(TINY.replace("problem.name=beam", f"problem.name={name}")
                        .replace("method=ldgm", f"method={method}\n{extra}")
                        .format(stages=1, seeds="0", out=tmp_path / "runs"))
        cfgs.append(str(path))
    code = textwrap.dedent("""
        import sys
        import ldgm
        from ldgm.cli import main
        for cfg in sys.argv[1:]:
            assert main(["run", "--config", cfg]) == 0, cfg
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
        assert not loaded, loaded[:5]
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ldgm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *cfgs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_jobs_flag_runs_seeds_in_a_process_pool(tmp_path):
    path, _ = write_cfg(tmp_path, stages=2, seeds="0,1")
    for jobs in ("1", "2"):
        assert main(["run", "--config", str(path), "--jobs", jobs,
                     "--out", str(tmp_path / f"jobs{jobs}")]) == 0
    serial, pooled = (sorted((tmp_path / f"jobs{j}").iterdir()) for j in "12")
    assert len(serial) == 2
    for a, b in zip(serial, pooled):
        assert (a / "params.ckpt").read_bytes() == (b / "params.ckpt").read_bytes()


def test_cli_import_loads_no_process_pool():
    # only `ldgm run --jobs N` (N > 1) needs the pool; it imports it there
    code = "import sys, ldgm.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(ldgm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ch_reference_is_solved_once_per_epsilon(tmp_path, monkeypatch):
    import ldgm.cli as cli
    solves = []
    solve = cli.solve_ch_spectral

    def counted(cfg):
        solves.append(cfg.epsilon)
        return solve(cfg)

    monkeypatch.setattr(cli, "solve_ch_spectral", counted)
    cli._ch_field.cache_clear()
    path = tmp_path / "ch.cfg"
    path.write_text(TINY.replace("problem.name=beam", "problem.name=cahn_hilliard")
                    .replace("method=ldgm", "method=dgm")
                    .format(stages=1, seeds="0,1", out=tmp_path / "runs"))
    assert main(["run", "--config", str(path)]) == 0
    assert solves == [0.1]
    written = [(d / "reference.csv").read_bytes() for d in sorted((tmp_path / "runs").iterdir())]
    assert len(written) == 2 and written[0] == written[1]
    cli._ch_field.cache_clear()


@pytest.mark.parametrize("argv,flag", [
    (["diagnose", "--seed", "-1"], "--seed"),
    (["reference", "--dt", "0"], "dt"),
    (["reference", "--dt", "0.3"], "dt"),
    (["reference", "--horizon", "-1"], "horizon"),
    (["reference", "--epsilon", "-1"], "epsilon"),
    (["reference", "--epsilon", "0"], "epsilon"),
    (["reference", "--epsilon", "inf"], "epsilon"),
    (["reference", "--grid", "1"], "grid"),
    (["reference", "--grid", "0"], "grid"),
    (["reference", "--grid", "-4"], "grid"),
])
def test_bad_diagnose_and_reference_flags_are_config_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flag in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{missing}"],
    ["sweep", "--config", "{missing}", "--axis", "network.width", "--values", "4"],
    ["compare", "{missing}", "{missing}"],
])
def test_a_missing_input_file_is_one_error_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.cfg")
    assert main([a.format(missing=missing) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert err.count("\n") == 1

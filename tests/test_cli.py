"""Command-line driver: outputs, determinism, exit codes."""

import numpy as np
import pytest

from niwclust.cli import build_parser, config_from_args, main
from niwclust.datagen import GenSpec, generate
from niwclust.io import read_csv, write_csv


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_limits_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["limits", "--p-grid", "50,100", "--replicates", "2",
                 "--outdir", str(out)])
    assert code == 0
    csv_path = out / "limits.csv"
    svg_path = out / "limits.svg"
    assert csv_path.exists() and svg_path.exists()

    first = csv_path.read_text().splitlines()[0]
    assert first.startswith("# niwclust ")
    assert "command=limits" in first
    assert "rng=numpy-PCG64" in first

    table = read_csv(csv_path)
    assert table.names[:2] == ("p", "replicate")
    assert sorted(set(table.values[:, 0])) == [50.0, 100.0]
    svg = svg_path.read_text()
    assert svg.lstrip().startswith("<svg")
    # reference lines are the limits the row-standardized medians approach
    assert ">total limit (gamma + kappa)</text>" in svg
    assert ">det_kappa, det_gram limit</text>" in svg
    assert ">det_kappa limit</text>" not in svg
    assert "limits p=50" in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    args = ["limits", "--p-grid", "40,80", "--replicates", "2", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(a)]) == 0
    assert main(args + ["--outdir", str(b)]) == 0
    assert _read_bytes(a / "limits.csv") == _read_bytes(b / "limits.csv")
    assert _read_bytes(a / "limits.svg") == _read_bytes(b / "limits.svg")


def test_replot_reproduces_svg(tmp_path):
    src = tmp_path / "src"
    assert main(["limits", "--p-grid", "30,60", "--replicates", "2",
                 "--outdir", str(src)]) == 0
    re = tmp_path / "re"
    assert main(["replot", "--input", str(src / "limits.csv"),
                 "--outdir", str(re)]) == 0
    assert _read_bytes(src / "limits.svg") == _read_bytes(re / "limits.svg")


def test_projector_medians_decrease(tmp_path):
    out = tmp_path / "proj"
    code = main(["projector", "--p-grid", "20,50", "--n1", "5",
                 "--replicates", "20", "--outdir", str(out)])
    assert code == 0
    table = read_csv(out / "projector.csv")
    assert table.names == ("p", "median_residual")
    med = dict(zip(table.values[:, 0], table.values[:, 1]))
    assert med[50.0] < med[20.0] < 1.0
    re = tmp_path / "proj_re"
    assert main(["replot", "--input", str(out / "projector.csv"),
                 "--outdir", str(re)]) == 0
    assert _read_bytes(out / "projector.svg") == _read_bytes(re / "projector.svg")


def test_sweep_small_grid(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--p-grid", "60", "--sweeps", "8", "--burnin", "2",
                 "--replicates", "1", "--outdir", str(out)])
    assert code == 0
    table = read_csv(out / "sweep.csv")
    assert table.names == ("p", "prior_naive", "chain", "frac_k1", "frac_kn",
                           "degenerate_frac", "k_mode", "median_ari")
    # one robust and one naive row
    assert sorted(table.values[:, 1].tolist()) == [0.0, 1.0]
    assert (out / "sweep.svg").exists()


def test_cluster_size_defaults_per_command():
    # sweep defaults to a 5+5 mixture, everything else to a 1+1 split;
    # parsing one command must not leak its defaults into the next parse
    parser = build_parser()
    sweep = config_from_args(parser.parse_args(["sweep", "--p-grid", "40"]))
    assert (sweep.n1, sweep.n2) == (5, 5)
    limits = config_from_args(parser.parse_args(["limits", "--p-grid", "40"]))
    assert (limits.n1, limits.n2) == (1, 1)
    explicit = config_from_args(
        parser.parse_args(["sweep", "--p-grid", "40", "--n1", "3", "--n2", "2"])
    )
    assert (explicit.n1, explicit.n2) == (3, 2)


def test_cluster_with_truth(tmp_path, capsys):
    data, truth = generate(GenSpec(kind="two_cluster_mixture", n=8, p=6,
                          separation=6.0, seed=1))
    data_path = tmp_path / "data.csv"
    truth_path = tmp_path / "truth.csv"
    write_csv(data_path, data)
    write_csv(truth_path, np.asarray(truth.labels, dtype=float)[:, None])
    out = tmp_path / "fit"
    code = main(["cluster", "--input", str(data_path), "--truth",
                 str(truth_path), "--prior", "naive", "--sweeps", "30",
                 "--burnin", "5", "--outdir", str(out)])
    assert code == 0
    co = read_csv(out / "co_clustering.csv").values
    assert co.shape == (8, 8)
    trace = read_csv(out / "k_trace.csv")
    assert trace.names == ("sweep", "k")
    assert trace.values.shape == (30, 2)
    assert "ari=" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path):
    assert main(["limits", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "100,50", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "a,b", "--outdir", str(tmp_path)]) == 2
    assert main(["cluster", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "50", "--prior", "naive",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["sweep", "--p-grid", "60", "--sweeps", "5", "--burnin", "9",
                 "--outdir", str(tmp_path)]) == 2


def test_replot_needs_recognizable_header(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("1,2\n3,4\n")
    assert main(["replot", "--input", str(bare),
                 "--outdir", str(tmp_path)]) == 2


def test_ragged_input_exits_4(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4,5\n")
    assert main(["cluster", "--input", str(bad), "--sweeps", "10",
                 "--burnin", "2", "--outdir", str(tmp_path)]) == 4
    assert main(["cluster", "--input", str(tmp_path / "missing.csv"),
                 "--sweeps", "10", "--burnin", "2",
                 "--outdir", str(tmp_path)]) == 4


def test_non_finite_input_exits_3(tmp_path, capsys):
    data, _ = generate(GenSpec(kind="single_gaussian", n=8, p=50, seed=4))
    data[2, 6] = np.nan
    bad = tmp_path / "nan.csv"
    write_csv(bad, data)
    out = tmp_path / "fit"
    assert main(["cluster", "--input", str(bad), "--sweeps", "10",
                 "--burnin", "2", "--outdir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "row 3, column 7" in err
    assert not (out / "co_clustering.csv").exists()


def test_custom_prior_paths(tmp_path):
    data, _ = generate(GenSpec(kind="single_gaussian", n=6, p=5, seed=9))
    data_path = tmp_path / "d.csv"
    write_csv(data_path, data)

    good = tmp_path / "prior.cfg"
    good.write_text("# demo prior\nkappa0=2.0\nnu0=9\nlambda0_scale=1.5\n")
    out = tmp_path / "ok"
    assert main(["cluster", "--input", str(data_path), "--prior",
                 f"custom:{good}", "--sweeps", "12", "--burnin", "2",
                 "--outdir", str(out)]) == 0

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("rho=3\n")
    assert main(["cluster", "--input", str(data_path), "--prior",
                 f"custom:{unknown}", "--sweeps", "12", "--burnin", "2",
                 "--outdir", str(tmp_path)]) == 2

    bad_nu = tmp_path / "badnu.cfg"
    bad_nu.write_text("nu0=1\n")
    assert main(["cluster", "--input", str(data_path), "--prior",
                 f"custom:{bad_nu}", "--sweeps", "12", "--burnin", "2",
                 "--outdir", str(tmp_path)]) == 3

"""Command-line driver: outputs, determinism, exit codes."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import niwclust
from niwclust import cli
from niwclust.cli import build_parser, main
from niwclust.datagen import GenSpec, generate
from niwclust.errors import NotPositiveDefinite
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
    sweep = parser.parse_args(["sweep", "--p-grid", "40"])
    assert (sweep.n1, sweep.n2) == (5, 5)
    limits = parser.parse_args(["limits", "--p-grid", "40"])
    assert (limits.n1, limits.n2) == (1, 1)
    explicit = parser.parse_args(["sweep", "--p-grid", "40", "--n1", "3", "--n2", "2"])
    assert (explicit.n1, explicit.n2) == (3, 2)


@pytest.mark.parametrize("command", ["limits", "cluster", "sweep", "projector", "replot"])
def test_parsed_namespace_is_the_whole_config(command):
    # exactly the fields the metadata line reports, plus the dispatch
    # target; --p-grid stays text until validation parses it
    cfg = vars(build_parser().parse_args([command]))
    assert callable(cfg.pop("run"))
    size = 5 if command == "sweep" else 1
    assert cfg == dict(command=command, p_grid="", c1=1.0, c2=2.0, alpha=1.0,
                       n1=size, n2=size, replicates=20, sweeps=200, burnin=50,
                       seed=0, input=None, truth=None, outdir=".",
                       prior="robust")


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
    meta = (f"# niwclust {niwclust.__version__} | command=cluster p_grid= c1=1 "
            "c2=2 alpha=1 n1=1 n2=1 replicates=20 sweeps=30 burnin=5 seed=0 "
            f"prior=naive input={data_path} truth={truth_path} | rng=numpy-PCG64")
    for name in ("co_clustering.csv", "k_trace.csv"):
        assert (out / name).read_text().splitlines()[0] == meta


# sha256 of each command's CSV (metadata line included), SVG and stdout,
# as written before the CLI's configuration was folded into the argparse
# namespace; the metadata line names the package version, so a version
# bump changes the CSV digests.  A name's command is the part before
# "_"; limits_pxp, pinned before limits scored its draws in place,
# reaches the p x p side that n = 2 at p = 40 never does
_COMMAND_PINS = {
    "limits": (["--p-grid", "40,80", "--replicates", "2", "--seed", "3"],
               "72c85d757f00095347cb1bdc4773c3e0bb507a4d2e08ff8317769ff9be13294d",
               "d2aa95a03720d4deac955efbed816ff18dfdcc200dfd98ae44bd12dd4c573b7b",
               "0a4aebc3c7f76e988848e84497b73b1b7c63d7a47e03ae23c5aad91e3a808e8a"),
    "limits_pxp": (["--p-grid", "4,8", "--n1", "5", "--n2", "5"],
                   "6b03680ad3a34ec8be98578f08050d48f71bbfefc8f2ab8d2391492321eae372",
                   "685f1cd0a9dee27e9ef0102f2705a2907bb8530b5513c03c3bbe9cda703a2b5b",
                   "2c28b0f4367c3e7ba04e4953bcf2846d3d921109ff38f765480649a3d4f49195"),
    "projector": (["--p-grid", "20,50", "--n1", "5", "--replicates", "5"],
                  "a48130a6cc50771d90dd7e92089b0748a7f8d0b87319ac7581c7afb79ead7f73",
                  "d46d580c6af161698424e63348bfdacf95913e18f5c79089e5b2b8cbc7b3d237",
                  "6aa6fcb1b0097799daab10eacbfd77b7bd713d37102c0aa8dcc49f0d860361f5"),
    "sweep": (["--p-grid", "60", "--sweeps", "8", "--burnin", "2",
               "--replicates", "1"],
              "8774299b879cf10e5053940164e8184d659de4dd13a69fbc7309e7797495fd14",
              "ddf0fce6d66ddd56be7fdc1eca20b30264f1eec84c4e7f8cf58c22ab2926f285",
              "da2aad5eb2aa044eecdee525f689bf70c886cb9d45f78044ddfe2ba2253bb520"),
}


@pytest.mark.parametrize("name", sorted(_COMMAND_PINS))
def test_command_outputs_are_byte_pinned(tmp_path, capsys, name):
    args, csv_pin, svg_pin, stdout_pin = _COMMAND_PINS[name]
    command = name.partition("_")[0]
    assert niwclust.__version__ == "0.1.0"
    assert main([command, *args, "--outdir", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256(_read_bytes(tmp_path / f"{command}.{ext}")).hexdigest()
                    for ext in ("csv", "svg"))
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests + (stdout,) == (csv_pin, svg_pin, stdout_pin)


# sha256 of co_clustering.csv and k_trace.csv below their metadata line
# (which names the input path), as written when the sampler's memo was
# keyed by member tuples: a speed-up of the sampler must flip no draw
_CLUSTER_PINS = {
    "robust": ("3cf6e3d59335ee1fcbae5f0a82b03f4321fd4dd29067a15ce3d1b9069efc02c6",
               "b351a7ac7ebcfb352ed0620f54df5bff34cee7949b92fc28906d0becc1043d2d"),
    "naive": ("f023cd15015e14a01c429114e47db685fca8b43e0f88d1d4be994baa41214d44",
              "bd884101608c1d1a6ba2d31e9b8450bfc896f063c7b04cf53281f49c8b83ccd4"),
}


@pytest.mark.parametrize("prior, separation", [("robust", 4.0), ("naive", 2.0)])
def test_cluster_outputs_are_byte_pinned(tmp_path, prior, separation):
    # robust settles at k = 2; naive keeps ~15 clusters moving every sweep
    data, _ = generate(GenSpec(kind="two_cluster_mixture", n=60, p=30,
                               separation=separation, seed=5))
    data_path = tmp_path / "data.csv"
    write_csv(data_path, data)
    assert main(["cluster", "--input", str(data_path), "--prior", prior,
                 "--sweeps", "30", "--burnin", "10", "--seed", "7",
                 "--outdir", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256(_read_bytes(tmp_path / name).split(b"\n", 1)[1]).hexdigest()
        for name in ("co_clustering.csv", "k_trace.csv")
    )
    assert digests == _CLUSTER_PINS[prior]


def test_config_errors_exit_2(tmp_path):
    assert main(["limits", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "100,50", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "a,b", "--outdir", str(tmp_path)]) == 2
    assert main(["cluster", "--outdir", str(tmp_path)]) == 2
    assert main(["limits", "--p-grid", "50", "--prior", "naive",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["sweep", "--p-grid", "60", "--sweeps", "5", "--burnin", "9",
                 "--outdir", str(tmp_path)]) == 2


def test_c1_is_checked_with_c2(tmp_path, capsys):
    for c1 in ("0", "-1", "nan"):
        assert main(["limits", "--p-grid", "20", "--c1", c1,
                     "--outdir", str(tmp_path)]) == 2
        assert "robust prior needs c1 > 0" in capsys.readouterr().err


def test_commands_with_their_own_prior_reject_prior(tmp_path, capsys):
    # sweep builds both priors and projector none, so --prior is an error
    # for them, not a setting that is recorded and then ignored
    cases = [
        (["sweep", "--prior", "naive", "--c2", "0.5"], "sweep takes no --prior"),
        (["sweep", "--prior", "naive"], "sweep takes no --prior"),
        (["projector", "--prior", "custom:/nonexistent"], "projector takes no --prior"),
        (["projector", "--prior", "naive"], "projector takes no --prior"),
        (["limits", "--prior", "naive"], "limits takes no --prior"),
    ]
    for argv, message in cases:
        out = tmp_path / argv[0]
        assert main(argv + ["--p-grid", "20", "--replicates", "1",
                            "--outdir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / f"{argv[0]}.csv").exists()


def test_c1_c2_checked_for_every_robust_prior_command(tmp_path, capsys):
    # an infinite c1 or c2 used to run and write nan into the limits
    for command in ("limits", "sweep", "cluster"):
        for flag, value, message in (("--c2", "0.5", "robust prior needs c2 > 1"),
                                     ("--c1", "0", "robust prior needs c1 > 0"),
                                     ("--c2", "inf", "c2 > 1 and finite, got inf"),
                                     ("--c1", "inf", "c1 > 0 and finite, got inf")):
            argv = [command, "--p-grid", "20", "--input", "unused.csv",
                    flag, value, "--outdir", str(tmp_path)]
            assert main(argv) == 2
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, message", [
    *[(c, "--seed", "-1", "seed must be >= 0, got -1")
      for c in ("limits", "projector", "sweep", "cluster")],
    *[(c, "--alpha", "inf", "alpha must be positive and finite, got inf")
      for c in ("limits", "sweep", "cluster")],
])
def test_bad_seed_or_alpha_exits_2(tmp_path, capsys, command, flag, value, message):
    # numpy's seeding raises a bare ValueError on a negative seed, and an
    # infinite alpha makes the CRP weights non-finite
    data, _ = generate(GenSpec(kind="two_cluster_mixture", n=6, p=5,
                               separation=4.0, seed=3))
    write_csv(tmp_path / "data.csv", data)
    argv = [command, "--p-grid", "10,100", "--replicates", "1", "--sweeps", "5",
            "--burnin", "1", "--input", str(tmp_path / "data.csv"), flag, value,
            "--outdir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_underflowing_c1_exits_3(tmp_path, capsys):
    # c1**2 underflows to 0 in analytic_limits: a numeric error, no traceback
    assert main(["limits", "--p-grid", "10,100", "--c1", "1e-300",
                 "--outdir", str(tmp_path)]) == 3
    assert "numeric error: float division by zero" in capsys.readouterr().err
    assert not (tmp_path / "limits.csv").exists()


def test_truth_labels_must_be_integers(tmp_path, capsys):
    data, _ = generate(GenSpec(kind="single_gaussian", n=4, p=3, seed=2))
    data_path = tmp_path / "d.csv"
    write_csv(data_path, data)
    for label in ("nan", "inf", "2.5"):
        truth = tmp_path / "truth.csv"
        truth.write_text(f"1\n2\n{label}\n1\n")
        assert main(["cluster", "--input", str(data_path), "--truth", str(truth),
                     "--sweeps", "4", "--burnin", "1",
                     "--outdir", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert f"truth row 3: label {label} is not an integer" in err
    assert not (tmp_path / "fit" / "co_clustering.csv").exists()


def test_truth_with_more_than_one_column_exits_2(tmp_path, capsys):
    # an index column first would otherwise be read as the labels
    data, _ = generate(GenSpec(kind="single_gaussian", n=4, p=3, seed=2))
    data_path = tmp_path / "d.csv"
    write_csv(data_path, data)
    truth = tmp_path / "truth.csv"
    truth.write_text("idx,label\n1,1\n2,1\n3,2\n4,2\n")
    assert main(["cluster", "--input", str(data_path), "--truth", str(truth),
                 "--sweeps", "4", "--burnin", "1",
                 "--outdir", str(tmp_path / "fit")]) == 2
    assert "truth must have one column of labels, got 2" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "co_clustering.csv").exists()


def test_empty_input_exits_4(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header = tmp_path / "header.csv"
    header.write_text("# run metadata\np,median_residual\n")
    for argv in (["cluster", "--input", str(empty)],
                 ["replot", "--input", str(header)]):
        assert main(argv + ["--outdir", str(tmp_path)]) == 4
        assert "holds no data rows" in capsys.readouterr().err


def test_one_row_input_clusters(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("0.5,-1.0,2.0\n")
    out = tmp_path / "fit"
    assert main(["cluster", "--input", str(one), "--outdir", str(out)]) == 0
    assert "cluster n=1 p=3 k_mode=1" in capsys.readouterr().out
    assert read_csv(out / "co_clustering.csv").values.tolist() == [[1.0]]


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


def test_cell_past_the_csv_field_limit_exits_4(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text('a,b\n1,2\n3,"' + "1" * 140_000 + '"\n')
    assert main(["cluster", "--input", str(big), "--outdir", str(tmp_path)]) == 4
    assert "row 3: field larger than field limit" in capsys.readouterr().err


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


def test_custom_prior_paths(tmp_path, capsys):
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

    unparsable = tmp_path / "unparsable.cfg"
    unparsable.write_text("kappa0=abc\n")
    assert main(["cluster", "--input", str(data_path), "--prior",
                 f"custom:{unparsable}", "--sweeps", "12", "--burnin", "2",
                 "--outdir", str(tmp_path)]) == 2
    assert "prior key 'kappa0': cannot parse 'abc'" in capsys.readouterr().err

    bad_nu = tmp_path / "badnu.cfg"
    bad_nu.write_text("nu0=1\n")
    assert main(["cluster", "--input", str(data_path), "--prior",
                 f"custom:{bad_nu}", "--sweeps", "12", "--burnin", "2",
                 "--outdir", str(tmp_path)]) == 3

    # rejected by name, not later as a non-finite reassignment weight
    for key, message in (("kappa0", "kappa0 must be positive and finite"),
                         ("nu0", "nu0 must be finite")):
        infinite = tmp_path / f"inf_{key}.cfg"
        infinite.write_text(f"{key}=inf\n")
        assert main(["cluster", "--input", str(data_path), "--prior",
                     f"custom:{infinite}", "--sweeps", "12", "--burnin", "2",
                     "--outdir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err


# Imports niwclust with nothing blocked, checks that scipy stayed out,
# then blocks scipy (an entry of None makes every import of it fail),
# runs each command once and prints the names of the loaded modules.
_NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import niwclust
import niwclust.cli
from niwclust.datagen import GenSpec, generate
from niwclust.io import write_csv
assert "scipy" not in sys.modules, "importing niwclust.cli loaded scipy"
sys.modules["scipy"] = None
out = sys.argv[2]
data, truth = generate(GenSpec(kind="two_cluster_mixture", n=8, p=6,
                               separation=6.0, seed=1))
write_csv(out + "/data.csv", data)
write_csv(out + "/truth.csv", np.asarray(truth.labels, dtype=float)[:, None])
for argv in (
    ["cluster", "--input", out + "/data.csv", "--truth", out + "/truth.csv",
     "--sweeps", "6", "--burnin", "2"],
    ["limits", "--p-grid", "40,80", "--replicates", "2"],
    ["projector", "--p-grid", "20,50", "--n1", "5", "--replicates", "3"],
    ["sweep", "--p-grid", "60", "--sweeps", "6", "--burnin", "2",
     "--replicates", "1"],
):
    code = niwclust.cli.main(argv + ["--outdir", out])
    assert code == 0, (argv, code)
assert sys.modules.pop("scipy") is None
assert "scipy" not in {m.split(".")[0] for m in sys.modules}
print(" ".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def every_command_run(tmp_path_factory):
    """The finished process of _NO_SCIPY_SCRIPT, run once for this module."""
    src = Path(niwclust.__file__).resolve().parents[1]
    out = tmp_path_factory.mktemp("every_command")
    return subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(src), str(out)],
        capture_output=True, text=True, timeout=120)


def test_runtime_needs_no_scipy(every_command_run):
    # scipy is a test dependency only; the package and CLI must not load it
    assert every_command_run.returncode == 0, every_command_run.stderr


def test_commands_load_no_numpy_ma(every_command_run):
    # np.median and np.unique import numpy.ma on first use, which took
    # longer than a small command's own work
    assert every_command_run.returncode == 0, every_command_run.stderr
    loaded = every_command_run.stdout.splitlines()[-1].split()
    assert "numpy" in loaded
    assert "numpy.ma" not in loaded


_NO_POOL_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import niwclust.cli
for name in ("concurrent.futures", "multiprocessing"):
    assert name not in sys.modules, f"importing niwclust.cli loaded {name}"
"""


def test_import_loads_no_thread_pool():
    # the thread and process pools are imported when a command runs,
    # keeping them off the start-up path of every command
    src = Path(niwclust.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _limits_draw(rep):
    """The raw rows that limits replicate rep draws at p = 30, n1 = n2 = 1."""
    return np.random.default_rng([0, 0, rep]).standard_normal((2, 30))


def test_failing_replicate_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    real = cli.standardized_merge_log_ratio
    third = _limits_draw(3)

    def fail_at_replicate_3(y, *args):
        if np.array_equal(y, third):
            raise NotPositiveDefinite("injected failure in replicate 3")
        return real(y, *args)

    monkeypatch.setattr(cli, "standardized_merge_log_ratio", fail_at_replicate_3)
    out = tmp_path / "run"
    assert main(["limits", "--p-grid", "30,60", "--replicates", "6",
                 "--outdir", str(out)]) == 3
    captured = capsys.readouterr()
    assert "numeric error: injected failure in replicate 3" in captured.err
    assert captured.out == ""
    assert not (out / "limits.csv").exists()
    assert not (out / "limits.svg").exists()


def test_rows_follow_replicate_order_not_finish_order(tmp_path, monkeypatch):
    args = ["limits", "--p-grid", "30", "--replicates", "4"]
    assert main(args + ["--outdir", str(tmp_path / "plain")]) == 0
    real = cli.standardized_merge_log_ratio
    first = _limits_draw(0)

    def replicate_0_finishes_last(y, *args):
        if np.array_equal(y, first):
            time.sleep(0.3)
        return real(y, *args)

    monkeypatch.setattr(cli, "standardized_merge_log_ratio", replicate_0_finishes_last)
    assert main(args + ["--outdir", str(tmp_path / "slow")]) == 0
    for name in ("limits.csv", "limits.svg"):
        assert _read_bytes(tmp_path / "slow" / name) == _read_bytes(tmp_path / "plain" / name)


def _replicate_peak(tmp_path, cmd: str, n: int, p: int, *sizes) -> float:
    """The tracemalloc peak of one cmd replicate of n rows at p, as a
    multiple of its draw, after a run at p = 50 has done the command's
    one-time imports (about 0.05x more at p = 1e5)."""
    args = [cmd, "--replicates", "1", *sizes, "--outdir", str(tmp_path)]
    assert main(args + ["--p-grid", "50"]) == 0
    tracemalloc.start()
    try:
        assert main(args + ["--p-grid", str(p)]) == 0
        return tracemalloc.get_traced_memory()[1] / (n * p * 8)
    finally:
        tracemalloc.stop()


def test_limits_replicate_holds_one_copy_of_its_draw(tmp_path):
    # the replicate scores its draw in place: besides the draw it holds one
    # row block's finite mask and a few p-vectors (1.10x), where an n x p
    # finite mask reads 1.18x and two full copies over 2x
    assert _replicate_peak(tmp_path, "limits", 20, 10 ** 5, "--n1", "10", "--n2", "10") <= 1.15


def test_projector_replicate_holds_one_copy_of_its_draw(tmp_path):
    # the residual reads the draw and its n x n Gram matrix (1.03x), where
    # an n x p finite mask reads 1.13x
    assert _replicate_peak(tmp_path, "projector", 10, 10 ** 5, "--n1", "10") <= 1.1


def _sweep_chain_seed(chain):
    """The run_chain seed of sweep chain `chain` at the first p, under --seed 0."""
    return cli._derived_seed(0, 0, chain, 1)


def test_sweep_rows_follow_chain_order_not_finish_order(tmp_path, monkeypatch, capsys):
    args = ["sweep", "--p-grid", "30", "--replicates", "4", "--sweeps", "8",
            "--burnin", "2"]
    assert main(args + ["--outdir", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    real = cli.run_chain
    first = _sweep_chain_seed(0)

    def chain_0_finishes_last(*args, seed, **kwargs):
        if seed == first:
            time.sleep(0.3)
        return real(*args, seed=seed, **kwargs)

    # fork carries the patched run_chain into the workers
    monkeypatch.setattr(cli, "run_chain", chain_0_finishes_last)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert main(args + ["--outdir", str(tmp_path / "slow")]) == 0
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().out == plain
    for name in ("sweep.csv", "sweep.svg"):
        assert _read_bytes(tmp_path / "slow" / name) == _read_bytes(tmp_path / "plain" / name)


def test_failing_chain_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    real = cli.run_chain
    third = _sweep_chain_seed(2)

    def fail_at_chain_2(*args, seed, **kwargs):
        if seed == third:
            raise NotPositiveDefinite("injected failure in chain 2")
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "run_chain", fail_at_chain_2)
    out = tmp_path / "run"
    assert main(["sweep", "--p-grid", "30,60", "--replicates", "6", "--sweeps", "8",
                 "--burnin", "2", "--outdir", str(out)]) == 3
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert "numeric error: injected failure in chain 2" in captured.err
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()
    assert not (out / "sweep.svg").exists()


@pytest.mark.parametrize("command", ["limits", "projector", "sweep"])
def test_many_workers_match_one_worker(tmp_path, monkeypatch, command):
    # more workers than cores and, for threads, a short switch interval,
    # so workers interleave often; each replicate or chain owns its
    # draws, so the bytes match
    args = [command, "--p-grid", "20,40", "--n1", "3", "--replicates", "8"]
    outputs = {}
    interval = sys.getswitchinterval()
    for cpus in (1, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        sys.setswitchinterval(1e-6)
        try:
            assert main(args + ["--outdir", str(tmp_path / str(cpus))]) == 0
        finally:
            sys.setswitchinterval(interval)
        outputs[cpus] = [_read_bytes(tmp_path / str(cpus) / f"{command}.{ext}")
                         for ext in ("csv", "svg")]
    assert outputs[8] == outputs[1]

"""Tests of the benchmark itself: every check flags a corrupted output,
the reference recomputation agrees with the package, and tracing's
self times add up to the wall time.

Run from the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


def write_table(path, values, names=None):
    with open(path, "w") as fh:
        fh.write("# metadata line\n")
        if names is not None:
            fh.write(",".join(names) + "\n")
        for row in np.atleast_2d(values):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def write_svg(path):
    with open(path, "w") as fh:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg"></svg>\n')


class CheckCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.out = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.out, name)

    def assertFlags(self, check, stdout, ctx, fragment):
        problems, _ = check(self.out, stdout, ctx)
        self.assertTrue(any(fragment in p for p in problems),
                        f"expected a problem mentioning {fragment!r}, got {problems}")


class ClusterChecks(CheckCase):
    n, sweeps = 12, 20
    stdout = "cluster n=12 p=30 k_mode=2 ari=1.0000\n"

    def setUp(self):
        super().setUp()
        lab = np.array([1] * 5 + [2] * 7)
        self.co = (lab[:, None] == lab[None, :]).astype(float)
        write_table(self.path("co_clustering.csv"), self.co)
        trace = np.column_stack([np.arange(1, self.sweeps + 1), np.full(self.sweeps, 2)])
        write_table(self.path("k_trace.csv"), trace, ("sweep", "k"))
        self.ctx = {"n": self.n, "sweeps": self.sweeps}

    def test_good_outputs_pass(self):
        problems, quality = checks.check_cluster(self.out, self.stdout, self.ctx)
        self.assertEqual(problems, [])
        self.assertEqual(quality, {"ari_median": 1.0})

    def test_wrong_k_mode(self):
        self.assertFlags(checks.check_cluster, self.stdout.replace("k_mode=2", "k_mode=3"),
                         self.ctx, "k_mode=3")

    def test_imperfect_ari(self):
        self.assertFlags(checks.check_cluster, self.stdout.replace("1.0000", "0.9871"),
                         self.ctx, "ari=0.9871")

    def test_missing_summary_line(self):
        self.assertFlags(checks.check_cluster, "", self.ctx, "no 'k_mode")

    def test_asymmetric(self):
        self.co[0, 6] = 0.5
        write_table(self.path("co_clustering.csv"), self.co)
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "not symmetric")

    def test_diagonal(self):
        self.co[3, 3] = 0.99
        write_table(self.path("co_clustering.csv"), self.co)
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "diagonal")

    def test_out_of_range(self):
        self.co[0, 6] = self.co[6, 0] = 1.5
        write_table(self.path("co_clustering.csv"), self.co)
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "outside [0, 1]")

    def test_wrong_shape(self):
        write_table(self.path("co_clustering.csv"), self.co[:-1, :-1])
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "shape")

    def test_short_trace(self):
        trace = np.column_stack([np.arange(1, self.sweeps), np.full(self.sweeps - 1, 2)])
        write_table(self.path("k_trace.csv"), trace, ("sweep", "k"))
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "rows, expected")

    def test_missing_file(self):
        os.remove(self.path("k_trace.csv"))
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "k_trace.csv: unreadable")

    def test_truncated_file(self):
        with open(self.path("co_clustering.csv")) as fh:
            text = fh.read()
        with open(self.path("co_clustering.csv"), "w") as fh:
            fh.write(text[: len(text) // 2])
        self.assertFlags(checks.check_cluster, self.stdout, self.ctx, "co_clustering.csv")


class SweepChecks(CheckCase):
    ctx = {"p_grid": (50, 200), "replicates": 3}

    def rows(self, robust_ari=1.0, naive_degen=1.0, robust_k=2):
        out = []
        for p in self.ctx["p_grid"]:
            for chain in range(self.ctx["replicates"]):
                out.append([p, 0, chain, 0.0, 0.0, 0.0, robust_k, robust_ari])
                out.append([p, 1, chain, naive_degen, 0.0, naive_degen, 1, 0.0])
        return out

    def setUp(self):
        super().setUp()
        write_table(self.path("sweep.csv"), self.rows(), checks.SWEEP_COLUMNS)
        write_svg(self.path("sweep.svg"))

    def test_good_outputs_pass(self):
        problems, quality = checks.check_sweep(self.out, "", self.ctx)
        self.assertEqual(problems, [])
        self.assertEqual(quality, {"ari_median": 1.0})

    def test_low_robust_ari(self):
        write_table(self.path("sweep.csv"), self.rows(robust_ari=0.5), checks.SWEEP_COLUMNS)
        self.assertFlags(checks.check_sweep, "", self.ctx, "robust median ARI")

    def test_naive_not_degenerate(self):
        write_table(self.path("sweep.csv"), self.rows(naive_degen=0.8), checks.SWEEP_COLUMNS)
        self.assertFlags(checks.check_sweep, "", self.ctx, "naive degenerate")

    def test_robust_mode(self):
        write_table(self.path("sweep.csv"), self.rows(robust_k=1), checks.SWEEP_COLUMNS)
        self.assertFlags(checks.check_sweep, "", self.ctx, "mode of k_mode")

    def test_missing_rows(self):
        write_table(self.path("sweep.csv"), self.rows()[:-1], checks.SWEEP_COLUMNS)
        self.assertFlags(checks.check_sweep, "", self.ctx, "rows, expected")

    def test_missing_column(self):
        write_table(self.path("sweep.csv"), np.array(self.rows())[:, :-1],
                    checks.SWEEP_COLUMNS[:-1])
        self.assertFlags(checks.check_sweep, "", self.ctx, "missing columns")

    def test_broken_svg(self):
        with open(self.path("sweep.svg"), "w") as fh:
            fh.write("<svg")
        self.assertFlags(checks.check_sweep, "", self.ctx, "sweep.svg")


class AnalyticChecks(CheckCase):
    grid, reps, n = (20, 60), 2, 3

    def setUp(self):
        super().setUp()
        self.ref = {
            "limits": checks.limits_reference(5, self.grid, self.reps, self.n, self.n),
            "projector": checks.projector_reference(5, self.grid, 4, self.n),
        }
        self.ctx = {"reference": self.ref}
        self.write_limits(self.ref["limits"])
        write_table(self.path("projector.csv"),
                    np.column_stack([self.ref["projector"]["p"],
                                     self.ref["projector"]["median_residual"]]),
                    ("p", "median_residual"))
        write_svg(self.path("limits.svg"))
        write_svg(self.path("projector.svg"))

    def write_limits(self, ref):
        names = ("p", "replicate") + checks.LIMIT_TERMS + checks.LIMIT_CONSTS
        write_table(self.path("limits.csv"), np.column_stack([ref[k] for k in names]), names)

    def corrupted(self, column, value_fn):
        ref = {k: v.copy() for k, v in self.ref["limits"].items()}
        ref[column][1] = value_fn(ref[column][1])
        return ref

    def test_good_outputs_pass(self):
        problems, quality = checks.check_limits(self.out, "", self.ctx)
        self.assertEqual(problems, [])
        self.assertEqual(quality["limits_rel_err"], 0.0)
        problems, quality = checks.check_projector(self.out, "", self.ctx)
        self.assertEqual(problems, [])
        self.assertEqual(quality["projector_rel_err"], 0.0)

    def test_each_limits_column_is_checked(self):
        for col in checks.LIMIT_TERMS + checks.LIMIT_CONSTS:
            with self.subTest(col=col):
                self.write_limits(self.corrupted(col, lambda v: v * (1 + 1e-6) + 1e-6))
                self.assertFlags(checks.check_limits, "", self.ctx, col)

    def test_nan_term(self):
        self.write_limits(self.corrupted("term_det_gram", lambda v: float("nan")))
        self.assertFlags(checks.check_limits, "", self.ctx, "term_det_gram")

    def test_gate6_gap_is_not_a_failure(self):
        self.write_limits(self.ref["limits"])
        problems, _ = checks.check_limits(self.out, "", self.ctx)
        gap = abs(self.ref["limits"]["total"] - self.ref["limits"]["total_limit"]).max()
        self.assertGreater(gap, 0.1)
        self.assertEqual(problems, [])

    def test_limits_rows_reordered(self):
        ref = {k: v[::-1].copy() for k, v in self.ref["limits"].items()}
        self.write_limits(ref)
        self.assertFlags(checks.check_limits, "", self.ctx, "out of order")

    def test_projector_out_of_range(self):
        write_table(self.path("projector.csv"),
                    np.column_stack([self.ref["projector"]["p"], [0.5, 1.5]]),
                    ("p", "median_residual"))
        self.assertFlags(checks.check_projector, "", self.ctx, "outside (0, 1]")

    def test_projector_grid(self):
        write_table(self.path("projector.csv"), np.array([[20.0, 0.5]]),
                    ("p", "median_residual"))
        self.assertFlags(checks.check_projector, "", self.ctx, "p column")

    def test_projector_error_is_reported(self):
        med = self.ref["projector"]["median_residual"] * np.array([1.0, 1.01])
        write_table(self.path("projector.csv"),
                    np.column_stack([self.ref["projector"]["p"], med]),
                    ("p", "median_residual"))
        problems, quality = checks.check_projector(self.out, "", self.ctx)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(quality["projector_rel_err"], 0.01, places=12)

    def test_missing_svg(self):
        os.remove(self.path("limits.svg"))
        self.assertFlags(checks.check_limits, "", self.ctx, "limits.svg")


def run_cli(argv):
    from niwclust import cli

    with contextlib.redirect_stdout(io.StringIO()) as buf, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # power-iteration warnings from projector
        code = cli.main(argv)
    return code, buf.getvalue()


class AgainstPackage(unittest.TestCase):
    """The reference and the checks accept what the package writes."""

    def test_analytic_outputs(self):
        with tempfile.TemporaryDirectory() as out:
            grid = (30, 300)
            code, _ = run_cli(["limits", "--p-grid", "30,300", "--replicates", "3",
                               "--n1", "4", "--n2", "3", "--seed", "9", "--outdir", out])
            self.assertEqual(code, 0)
            code, _ = run_cli(["projector", "--p-grid", "30,300", "--n1", "4",
                               "--replicates", "5", "--seed", "9", "--outdir", out])
            self.assertEqual(code, 0)
            ctx = {"reference": {
                "limits": checks.limits_reference(9, grid, 3, 4, 3),
                "projector": checks.projector_reference(9, grid, 5, 4),
            }}
            problems, quality = checks.check_limits(out, "", ctx)
            self.assertEqual(problems, [])
            self.assertLess(quality["limits_rel_err"], checks.LIMITS_TOL)
            problems, quality = checks.check_projector(out, "", ctx)
            self.assertEqual(problems, [])
            self.assertLess(quality["projector_rel_err"], 1e-2)


class Tracing(unittest.TestCase):
    def test_self_times_add_up_and_wrappers_are_removed(self):
        import niwclust.cli
        import niwclust.ratio
        import niwclust.sampler

        modules = {"niwclust.cli": niwclust.cli, "niwclust.ratio": niwclust.ratio,
                   "niwclust.sampler": niwclust.sampler}
        before = {k: getattr(modules[m], a) for k, (m, a) in tracing.WRAPPED.items()}
        with tempfile.TemporaryDirectory() as out:
            with tracing.Tracer(modules) as tracer:
                start = tracing.perf_counter()
                code, _ = run_cli(["sweep", "--p-grid", "40", "--replicates", "2",
                                   "--sweeps", "6", "--burnin", "2", "--seed", "3",
                                   "--outdir", out])
                wall = tracing.perf_counter() - start
            self.assertEqual(code, 0)
        after = {k: getattr(modules[m], a) for k, (m, a) in tracing.WRAPPED.items()}
        self.assertEqual(before, after)

        m, samples = tracing.layer_metrics(tracer, wall, 0)
        total = sum(m[f"{name}.self_s"] for name in tracing.SPAN_NAMES) + m["cli.self_s"]
        self.assertAlmostEqual(total, wall, places=9)
        self.assertEqual(m["sampler.run_chain.calls"], 4)
        self.assertEqual(m["sampler.gibbs_sweep.calls"], 24)
        self.assertEqual(m["bench.check_consistency.calls"], 4)
        self.assertEqual(m["sampler.consistency_fail"], 0)
        self.assertEqual(samples["sampler.gibbs_sweep.steady"]["n"], 20)
        self.assertGreater(m["sampler.gibbs_sweep.first_s"], 0.0)

    def test_tail_quantile_keeps_ten_samples_above(self):
        self.assertEqual(tracing.tail(list(range(199)))[0], 0.9)
        self.assertEqual(tracing.tail(list(range(200)))[0], 0.95)
        self.assertEqual(tracing.tail(list(range(23800)))[0], 0.999)
        self.assertEqual(tracing.tail(list(range(60)))[0], 0.8)
        self.assertEqual(tracing.tail([]), (0.5, 0.0))


if __name__ == "__main__":
    unittest.main()

"""Span recording around the calls into each niwclust layer.

The benchmark wraps public functions at the module attribute that
their caller looks up (``niwclust.cli.run_chain``,
``niwclust.sampler.gibbs_sweep``, ...), so no code inside the package
changes.  Each call becomes one span: name, start, end and the index
of the enclosing span.  Spans stay in memory; :func:`layer_metrics`
turns one traced repetition into per-layer numbers.

A layer's self time is its span duration minus the durations of its
direct child spans.  Calls are single-threaded and properly nested, so
the self times of all spans plus the time no span covers add up to the
repetition's wall time exactly.
"""

import warnings
from time import perf_counter

import numpy as np

# span name -> (module, attribute) to wrap.  The module named is the
# one whose global lookup the caller performs, not always the module
# that defines the function.
WRAPPED = {
    "sampler.run_chain": ("niwclust.cli", "run_chain"),
    "sampler.init_state": ("niwclust.sampler", "init_state"),
    "sampler.gibbs_sweep": ("niwclust.sampler", "gibbs_sweep"),
    "ratio.merge_log_ratio": ("niwclust.cli", "merge_log_ratio"),
    "ratio.projector_residual": ("niwclust.cli", "projector_residual"),
    "niw.row_standardize": ("niwclust.cli", "row_standardize"),
    "niw.transform_data": ("niwclust.ratio", "transform_data"),
    "linalg.spectral_norm": ("niwclust.ratio", "spectral_norm"),
    "linalg.cholesky": ("niwclust.ratio", "cholesky"),
    "gammafn.gamma_term_log": ("niwclust.ratio", "gamma_term_log"),
    "partition.adjusted_rand_index": ("niwclust.cli", "adjusted_rand_index"),
    "datagen.generate": ("niwclust.cli", "generate"),
    "io.read_csv": ("niwclust.cli", "read_csv"),
    "io.write_csv": ("niwclust.cli", "write_csv"),
    "svg.line_plot": ("niwclust.cli", "line_plot"),
}

# The benchmark's own span: the post-chain consistency check.
CHECK_SPAN = "bench.check_consistency"
SPAN_NAMES = tuple(WRAPPED) + (CHECK_SPAN,)


class Tracer:
    """Records spans while its wrappers are installed.

    Use as a context manager around one repetition: entering replaces
    each wrapped attribute that exists (a later refactor may remove
    some) and leaving restores the originals.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent index or -1]
        self.sweeps = []  # (span index, first sweep of its chain, k after)
        self.nonconverged = 0
        self.consistency_fail = 0
        self.written = []  # paths handed to write_csv
        self._stack = []
        self._last_chain = None
        self._saved = []

    def __enter__(self):
        for name, (mod, attr) in WRAPPED.items():
            module = self.modules[mod]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            rec[1] = start
            self._stack.pop()

    def _wrapper(self, name, fn):
        special = {
            "sampler.run_chain": self._run_chain,
            "sampler.gibbs_sweep": self._gibbs_sweep,
            "linalg.spectral_norm": self._spectral_norm,
            "io.write_csv": self._write_csv,
        }.get(name)
        if special is not None:
            return special(fn)

        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _run_chain(self, fn):
        def wrapper(*args, **kwargs):
            self._last_chain = None
            out = self.span("sampler.run_chain", fn, *args, **kwargs)
            if self._last_chain is not None:
                state, data = self._last_chain
                self._last_chain = None
                try:
                    self.span(CHECK_SPAN, state.check_consistency, data)
                except (AssertionError, ArithmeticError, ValueError):
                    self.consistency_fail += 1
            return out

        return wrapper

    def _gibbs_sweep(self, fn):
        def wrapper(state, data, *args, **kwargs):
            first = state.sweep_index == 0
            idx = len(self.spans)
            out = self.span("sampler.gibbs_sweep", fn, state, data, *args, **kwargs)
            self.sweeps.append((idx, first, state.k()))
            self._last_chain = (state, data)
            return out

        return wrapper

    def _spectral_norm(self, fn):
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = self.span("linalg.spectral_norm", fn, *args, **kwargs)
            self.nonconverged += sum(
                w.category.__name__ == "NoConvergenceWarning" for w in caught
            )
            return out

        return wrapper

    def _write_csv(self, fn):
        def wrapper(path, *args, **kwargs):
            self.written.append(path)
            return self.span("io.write_csv", fn, path, *args, **kwargs)

        return wrapper


def tail(values):
    """(q, value): the highest listed quantile with >= 10 samples above it.

    Falls back to the median when there are fewer than 20 samples.
    """
    n = len(values)
    q = 0.5
    for cand in (0.75, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        if n * (1.0 - cand) >= 10:
            q = cand
    return q, float(np.quantile(values, q)) if n else 0.0


def layer_metrics(tracer, wall, bytes_written):
    """Per-layer numbers of one traced repetition of `wall` seconds.

    Layers that the workload never calls report 0.
    """
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    top = 0.0
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
        else:
            top += dur[i]
    self_time = dur - child
    names = np.array([s[0] for s in spans], dtype=object)

    m = {}
    for name in SPAN_NAMES:
        mask = names == name
        m[f"{name}.self_s"] = float(self_time[mask].sum())
        m[f"{name}.calls"] = int(mask.sum())

    first = [dur[i] for i, is_first, _ in tracer.sweeps if is_first]
    steady = [dur[i] * 1e3 for i, is_first, _ in tracer.sweeps if not is_first]
    steady_q, steady_tail = tail(steady)
    m["sampler.gibbs_sweep.first_s"] = float(sum(first))
    m["sampler.gibbs_sweep.steady_ms_p50"] = float(np.median(steady)) if steady else 0.0
    m["sampler.gibbs_sweep.steady_ms_tail"] = steady_tail
    m["sampler.k_mean"] = (
        float(np.mean([k for _, _, k in tracer.sweeps])) if tracer.sweeps else 0.0
    )
    init_ms = dur[names == "sampler.init_state"] * 1e3
    m["sampler.init_state.ms_p50"] = float(np.median(init_ms)) if init_ms.size else 0.0
    m["sampler.consistency_fail"] = tracer.consistency_fail

    merge_ms = dur[names == "ratio.merge_log_ratio"] * 1e3
    merge_q, merge_tail = tail(merge_ms)
    m["ratio.merge_log_ratio.ms_p50"] = float(np.median(merge_ms)) if merge_ms.size else 0.0
    m["ratio.merge_log_ratio.ms_tail"] = merge_tail

    m["linalg.spectral_norm.nonconverged"] = tracer.nonconverged
    m["io.bytes_written"] = int(bytes_written)
    m["cli.self_s"] = float(wall - top)
    m["trace.wall_s"] = float(wall)
    m["trace.spans"] = len(spans)

    samples = {
        "sampler.gibbs_sweep.steady": {"n": len(steady), "tail_q": steady_q},
        "ratio.merge_log_ratio": {"n": int(merge_ms.size), "tail_q": merge_q},
        "sampler.init_state": {"n": int(init_ms.size)},
    }
    return m, samples

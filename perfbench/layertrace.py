"""Per-layer spans recorded from outside the program.

`LayerTracer.install()` replaces the public functions of each `netbounds`
module with timing wrappers, in every `netbounds` module that holds them: the
defining module (so calls inside that module, which resolve through its
globals, are caught) and modules that imported the function by name, such as
`netbounds.cli`. `uninstall()` puts the originals back. Nothing under `src/`
is changed.

Spans nest, since the process runs one thread. Each wrapper keeps, on a stack,
the time its wrapped children took; a layer's self time is its span minus
those children. Extra facts read from arguments and results (LP sizes, HiGHS
iterations, partition iterations, pipe counts) are taken after the span ends,
and the time that takes is charged to the tracer, not to the enclosing layer.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

import numpy as np
import scipy.sparse

# (module, attribute, span name). Spans with one name are summed.
TARGETS = (
    ("netmodel", "parse_network", "netmodel.parse_network"),
    ("netmodel", "validate_bounding_network", "netmodel.validate_bounding_network"),
    ("decouple", "decompose", "decouple.decompose"),
    ("decouple", "gauss_noise_partition", "decouple.gauss_noise_partition"),
    ("mac", "mac_upper", "mac.mac_upper"),
    ("assemble", "build_upper", "assemble.build_upper"),
    ("assemble", "build_lower", "assemble.build_lower"),
    ("flows", "max_flow", "flows.max_flow"),
    ("flows", "unicast_inner", "flows.unicast_inner"),
    ("flows", "multicast_outer", "flows.multicast_outer"),
    ("flows", "hyper_inner", "flows.hyper_inner"),
    ("flows", "validate_hyper_result", "flows.validate_hyper_result"),
    # scipy.optimize.linprog, as bound in netbounds.flows
    ("flows", "linprog", "solver.linprog"),
    ("benchmarks", "cutset_bound", "benchmarks.relay_refs"),
    ("benchmarks", "df_bound", "benchmarks.relay_refs"),
    ("benchmarks", "cf_bound", "benchmarks.relay_refs"),
)

SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _matrix_facts(matrix) -> tuple[int, int, int]:
    """(rows, nonzeros, bytes handed to the solver) of one constraint matrix."""
    if matrix is None:
        return 0, 0, 0
    if scipy.sparse.issparse(matrix):
        csr = scipy.sparse.csr_array(matrix)
        size = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return csr.shape[0], int(csr.nnz), int(size)
    array = np.asarray(matrix)
    if array.size == 0:
        return 0, 0, 0
    return array.shape[0], int(np.count_nonzero(array)), int(array.nbytes)


class LayerTracer:
    """Counts and times calls into each layer while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self._stack.clear()
        self.calls = dict.fromkeys(SPANS, 0)
        self.total = dict.fromkeys(SPANS, 0.0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self.top_level = 0.0  # time in spans with no traced parent
        self.bookkeeping = 0.0  # time spent reading facts after spans
        self.lp_rows: list[int] = []
        self.lp_cols: list[int] = []
        self.lp_nnz: list[int] = []
        self.lp_bytes = 0
        self.lp_nit = 0
        self.partition_iters: list[int] = []
        self.partition_residuals: list[float] = []
        self.pipes: list[int] = []

    # -- facts read after a span ------------------------------------------

    def _after_linprog(self, args, kwargs, result) -> None:
        cost = args[0] if args else kwargs["c"]
        rows = nnz = size = 0
        for key in ("A_ub", "A_eq"):
            r, n, b = _matrix_facts(kwargs.get(key))
            rows, nnz, size = rows + r, nnz + n, size + b
        self.lp_rows.append(rows)
        self.lp_cols.append(len(cost))
        self.lp_nnz.append(nnz)
        self.lp_bytes += size
        self.lp_nit += int(getattr(result, "nit", 0) or 0)

    def _after_partition(self, args, kwargs, result) -> None:
        self.partition_iters.append(int(result.iterations))
        self.partition_residuals.append(float(result.residual))

    def _after_build(self, args, kwargs, result) -> None:
        self.pipes.append(len(result.pipes))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, func, after):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total[name] += span
                self.self_time[name] += span - children
                if stack:
                    stack[-1] += span
                else:
                    self.top_level += span
            if after is not None:
                start = clock()
                after(args, kwargs, result)
                spent = clock() - start
                self.bookkeeping += spent
                if stack:
                    stack[-1] += spent
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "solver.linprog": self._after_linprog,
            "decouple.gauss_noise_partition": self._after_partition,
            "assemble.build_upper": self._after_build,
            "assemble.build_lower": self._after_build,
        }
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(f"netbounds.{module_name}")
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, after.get(name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "netbounds" and not loaded_name.startswith("netbounds."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans since the last reset.

        `wall` is the traced stretch's wall time; `cli.self_s` is what is left
        of it outside every top-level span, i.e. the experiment drivers' own
        work.
        """

        def mean(values):
            return float(statistics.fmean(values)) if values else 0.0

        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out["solver.rows_mean"] = mean(self.lp_rows)
        out["solver.cols_mean"] = mean(self.lp_cols)
        out["solver.nnz_mean"] = mean(self.lp_nnz)
        out["solver.input_bytes_total"] = self.lp_bytes
        out["solver.highs_nit_total"] = self.lp_nit
        iters = self.partition_iters
        out["decouple.gauss_noise_partition.iters_p50"] = (
            float(statistics.median(iters)) if iters else 0.0
        )
        out["decouple.gauss_noise_partition.iters_max"] = max(iters, default=0)
        out["decouple.gauss_noise_partition.residual_max"] = max(
            self.partition_residuals, default=0.0
        )
        out["assemble.pipes_mean"] = mean(self.pipes)
        out["cli.self_s"] = wall - self.top_level - self.bookkeeping
        return out

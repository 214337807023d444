"""Outside-in tracing for the benchmark's traced runs.

The tracer replaces library functions and methods with wrappers at the place
where their callers look them up (a class attribute, or the module global a
caller resolves at call time), so every call goes through the wrapper.  Each
wrapper records one span -- name, start, end, parent span, run id -- and
calls the original with the same arguments, so traced and untraced runs
compute the same numbers.

``Graph.record`` is not a span: it counts tape nodes by op label and wraps
the backward rule it is given, so the reverse sweep can be split into time
per op.  Spans live in memory until ``write_spans`` is called at the end.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

# Op labels recorded by the library's tape.  A label outside this list is
# counted under "other", so a new op shows up without a new metric name.
OPS = (
    "leaf", "add", "sub", "mul", "neg", "scale", "one_minus", "matmul", "concat_cols",
    "sigmoid", "relu", "gelu", "exp", "softplus", "softmax_rows", "reduce_sum",
    "reduce_mean", "bce_loss", "gated_reduce_and", "gated_reduce_or",
)
RULE_OPS = tuple(op for op in OPS if op != "leaf")

SOFTLOGIC_OPS = (
    "godel_and", "godel_or", "soft_and", "soft_or", "soft_not", "soft_imply",
    "weighted_gate", "nln_and", "nln_or", "lnn_and", "lnn_or",
)

FORWARD_SPANS = ("models.Perceptron.forward", "models.Logicron.forward")
BACKWARD_SPAN = "autodiff.Graph.backward"
FD_SPAN = "autodiff.finite_difference_check"
WORKLOAD_SPAN = "bench.workload"


class Tracer:
    """Span recorder and tape counters for one workload repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)
        self.rule_time: dict[str, float] = defaultdict(float)
        self.graphs = 0
        self.fd_graphs = 0
        self.fd_points = 0
        self.gate_elements = 0
        self._stack: list[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._fd_depth = 0
        self._softlogic_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append((span_id, parent_id, name, start, end))
        self.durations[name].append(duration)
        self.self_time[name] += duration - child

    def span(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    def install(self, logiclab) -> None:
        """Wrap the library's layer entry points; ``uninstall`` undoes it."""
        ad, lnu, models = logiclab.autodiff, logiclab.lnu, logiclab.models
        ex, checks, sl = logiclab.experiments, logiclab.checks, logiclab.softlogic
        tracer = self

        # autodiff: tape construction, node records, backward sweep and rules.
        graph_init = ad.Graph.__init__

        def init(graph, *args, **kwargs):
            tracer.graphs += 1
            if tracer._fd_depth:
                tracer.fd_graphs += 1
            graph_init(graph, *args, **kwargs)

        self._patch(ad.Graph, "__init__", init)

        record = ad.Graph.record

        def traced_record(graph, value, inputs, backward, op="custom"):
            label = op if op in OPS else "other"
            tracer.nodes[label] += 1
            if backward is not None:
                backward = tracer._timed_rule(label, backward)
            return record(graph, value, inputs, backward, op=op)

        self._patch(ad.Graph, "record", traced_record)
        self._patch_span(ad.Graph, "backward", BACKWARD_SPAN)
        # experiments and checks both resolve bce_loss through the module.
        self._patch_span(ad, "bce_loss", "autodiff.bce_loss")

        fd_check = ad.finite_difference_check
        first_step = checks.SUITE_FD_STEPS[0]
        default_h = inspect.signature(fd_check).parameters["h"].default
        fd_span = self.span(FD_SPAN, fd_check)

        def traced_fd(f, params, *args, **kwargs):
            h = kwargs.get("h", args[0] if args else default_h)
            if h == first_step:
                tracer.fd_points += 1
            tracer._fd_depth += 1
            try:
                return fd_span(f, params, *args, **kwargs)
            finally:
                tracer._fd_depth -= 1

        self._patch(ad, "finite_difference_check", traced_fd)

        # lnu: lnu_forward resolves gated_reduce as a module global.
        gated_span = self.span("lnu.gated_reduce", lnu.gated_reduce)

        def traced_gated(x, w, *args, **kwargs):
            tracer.gate_elements += x.shape[0] * x.shape[1] * w.shape[1]
            return gated_span(x, w, *args, **kwargs)

        self._patch(lnu, "gated_reduce", traced_gated)

        # models: forward methods live on the classes; build_model is imported
        # by name into experiments and checks.
        self._patch_span(models.Perceptron, "forward", FORWARD_SPANS[0])
        self._patch_span(models.Logicron, "forward", FORWARD_SPANS[1])
        build_span = self.span("models.build_model", models.build_model)
        self._patch(ex, "build_model", build_span)
        self._patch(checks, "build_model", build_span)

        # experiments: optimizer, evaluation, data, writers, grids.
        self._patch_span(ex.Adam, "step", "experiments.Adam.step")
        for attr in ("evaluate", "generate_toy_data", "run_multi_seed", "write_results_csv",
                     "write_summary_json", "decision_boundary_grid", "write_grid_csv"):
            self._patch_span(ex, attr, f"experiments.{attr}")

        # checks: suite entry points, called by the benchmark via the module.
        for attr in ("gradcheck_suite", "logic_check_suite"):
            self._patch_span(checks, attr, f"checks.{attr}")

        # softlogic: checks and experiments call the operators through `sl.`.
        for attr in SOFTLOGIC_OPS:
            self._patch(sl, attr, self._softlogic_span(attr, getattr(sl, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed_rule(self, label: str, rule):
        tracer = self

        def timed(grad):
            start = time.perf_counter()
            rule(grad)
            elapsed = time.perf_counter() - start
            tracer.rule_time[label] += elapsed
            if tracer._stack:
                tracer._stack[-1][3] += elapsed  # a rule is a child of the sweep
        return timed

    def _softlogic_span(self, attr: str, fn):
        # Only the outermost operator call is a span; operators calling each
        # other would otherwise count the same work twice.
        tracer = self
        span = self.span("softlogic." + attr, fn)

        def wrapper(*args, **kwargs):
            if tracer._softlogic_depth:
                return fn(*args, **kwargs)
            tracer._softlogic_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                tracer._softlogic_depth -= 1

        return wrapper

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One CSV row per span; times in microseconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_us,end_us\n")
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(f"{self.run_id},{span_id},{parent_id},{name},"
                         f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n")

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of this repetition (see BENCHMARK.json); shares
        are fractions of ``wall``, the traced workload wall time."""
        d = self.durations
        steps = len(d["experiments.Adam.step"])
        sweeps = len(d[BACKWARD_SPAN])
        total_nodes = sum(self.nodes.values())
        forward = [t for name in FORWARD_SPANS for t in d[name]]
        softlogic = [t for name, ts in d.items() if name.startswith("softlogic.") for t in ts]
        fd_calls = len(d[FD_SPAN])

        def share(*names: str) -> float:
            return sum(sum(d[n]) for n in names) / wall

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {
            "autodiff.graphs": self.graphs,
            "autodiff.backward_sweeps": sweeps,
            "autodiff.graphs_per_sweep": per(self.graphs, sweeps),
            "autodiff.nodes_per_step": per(total_nodes, steps),
            "autodiff.nodes_per_graph": per(total_nodes, self.graphs),
        }
        for op in OPS + ("other",):
            m[f"autodiff.nodes.{op}"] = self.nodes.get(op, 0)
        m["autodiff.backward_us_p50"] = _us(d[BACKWARD_SPAN], 0.5)
        m["autodiff.backward_us_p90"] = _us(d[BACKWARD_SPAN], 0.9)
        m["autodiff.backward_share"] = share(BACKWARD_SPAN)
        m["autodiff.backward_sweep_self_us"] = per(self.self_time[BACKWARD_SPAN], sweeps) * 1e6
        for op in RULE_OPS + ("other",):
            m[f"autodiff.backward_self_us.{op}"] = per(self.rule_time.get(op, 0.0), sweeps) * 1e6
        m["autodiff.bce_loss_us_p50"] = _us(d["autodiff.bce_loss"], 0.5)
        m["autodiff.bce_loss_share"] = share("autodiff.bce_loss")

        m["models.forward_calls"] = len(forward)
        m["models.forward_us_p50"] = _us(forward, 0.5)
        m["models.forward_us_p90"] = _us(forward, 0.9)
        m["models.forward_self_share"] = sum(self.self_time[n] for n in FORWARD_SPANS) / wall
        m["models.build_model_us"] = _us(d["models.build_model"], 0.5)

        m["lnu.gated_reduce_calls"] = len(d["lnu.gated_reduce"])
        m["lnu.gated_reduce_us_p50"] = _us(d["lnu.gated_reduce"], 0.5)
        m["lnu.gated_reduce_us_p90"] = _us(d["lnu.gated_reduce"], 0.9)
        m["lnu.gated_reduce_share"] = share("lnu.gated_reduce")
        m["lnu.gate_elements_per_step"] = per(self.gate_elements, steps)

        m["experiments.adam_steps"] = steps
        m["experiments.adam_step_us_p50"] = _us(d["experiments.Adam.step"], 0.5)
        m["experiments.adam_share"] = share("experiments.Adam.step")
        m["experiments.evaluate_us_p50"] = _us(d["experiments.evaluate"], 0.5)
        m["experiments.evaluate_share"] = share("experiments.evaluate")
        m["experiments.generate_toy_data_us"] = _us(d["experiments.generate_toy_data"], 0.5)
        m["experiments.write_s"] = (sum(d["experiments.write_results_csv"])
                                    + sum(d["experiments.write_summary_json"]))
        m["experiments.grid_us"] = _us(d["experiments.decision_boundary_grid"], 0.5)
        m["experiments.write_grid_s"] = sum(d["experiments.write_grid_csv"])

        m["checks.fd_points"] = self.fd_points
        m["checks.fd_calls"] = fd_calls
        m["checks.fd_retry_ratio"] = per(fd_calls - self.fd_points, self.fd_points)
        m["checks.fd_graphs_per_point"] = per(self.fd_graphs, self.fd_points)
        m["checks.fd_share"] = share(FD_SPAN)

        m["softlogic.calls"] = len(softlogic)
        m["softlogic.call_us_p50"] = _us(softlogic, 0.5)
        m["softlogic.share"] = sum(softlogic) / wall

        m["trace.spans"] = len(self.spans)
        return m


def _us(durations: list[float], q: float) -> float:
    """Nearest-rank quantile of span durations, in microseconds (0 if none)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6

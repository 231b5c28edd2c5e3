"""Per-layer spans around rowgate's public functions, installed from outside.

rowgate modules import ops by name (``from .tensor import conv2d``), so a
function is wrapped at every name a rowgate module binds it to, and each
wrapper calls the original function, never another wrapper: a call is
counted once whichever binding its caller used.  Methods are wrapped on
their class.

A span's self time is its duration minus the spans opened inside it.  An
op's output gets a timed backward closure; its time is charged to the op
and to every net layer and gate stage that was open when the op ran.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

CATEGORIES = ("conv2d", "conv1d", "upsample2d", "resample_height", "pool_width",
              "batch_norm1d", "softmax_cross_entropy", "pointwise")
POINTWISE = ("add", "mul", "scale", "sub", "reshape", "relu", "sigmoid", "clip_open_unit",
             "dropout", "concat_channels", "sum_all", "mean_all")
# (module, function) -> category for every op that builds a graph node
OPS = {("rowgate.tensor", name): name for name in CATEGORIES[:-1]}
OPS.update({("rowgate.tensor", name): "pointwise" for name in POINTWISE})
OPS[("rowgate.posenc", "inject")] = "pointwise"

STAGES = {"width_pool": "width_pool", "coarsen": "coarsen",
          "attention_from_context": "conv_stack", "expand_attention": "expand",
          "apply_gate": "apply"}
LAYERS = ("stem", "down1", "enc", "down2", "ctx1", "ctx2", "ctx4", "dec", "head", "cls")
# (module, function) -> span key; True marks scopes that are charged backward time
SCOPES = {("rowgate.attention", "forward"): ("attention.forward", False),
          ("rowgate.train", "train"): ("train.train", False),
          ("rowgate.data", "augment"): ("train.data", False),
          ("rowgate.data", "synth_banded"): ("data.synth", False),
          ("rowgate.metrics", "evaluate"): ("metrics.evaluate", False)}
SCOPES.update({("rowgate.attention", fn): (f"attention.{stage}", True) for fn, stage in STAGES.items()})
METHODS = {("rowgate.net", "ToySegModel", "forward"): "net.forward",
           ("rowgate.tensor", "Tensor", "backward"): "tensor.backward",
           ("rowgate.optim", "SGDMomentum", "step"): "optim.step"}
# (enclosing span, finished span) -> key that also receives the inclusive time
ROLLUP = {("train.train", "net.forward"): "train.forward",
          ("train.train", "tensor.softmax_cross_entropy"): "train.loss",
          ("train.train", "tensor.backward"): "train.backward",
          ("metrics.evaluate", "net.forward"): "metrics.forward"}
ROLLED = {child for _, child in ROLLUP}
GRADCHECK_CASES = ("gate_none", "gate_sinusoidal", "gate_learnable")
# Every Nth gradcheck evaluation is repeated untraced, as the reference
# for trace.overhead_frac; its time is kept out of every span.
SHADOW_EVERY = 8
CONV2D_PER_FORWARD = 10

EXACT_COUNTS = ("tensor.graph_nodes", "tensor.conv2d.calls", "tensor.conv2d.madds",
                "attention.calls", "gradcheck.entries", "gradcheck.evals")

_ALL_TENSOR = [f"tensor.{c}.{d}" for c in CATEGORIES for d in ("fwd_ms", "bwd_ms")]
_ALL_ATTENTION = [f"attention.{s}.{d}" for s in STAGES.values() for d in ("fwd_ms", "bwd_ms")]
_ALL_NET = [f"net.{n}.{d}" for n in LAYERS for d in ("fwd_ms", "bwd_ms")]
# op categories a gate module runs on its own
GATE_OPS = ("conv1d", "resample_height", "pool_width", "batch_norm1d", "pointwise")
_TRAIN = ["train.data_ms", "train.forward_ms", "train.loss_ms", "train.backward_ms", "optim.step_ms"]
_GRADCHECK = ["gradcheck.entries", "gradcheck.evals", "gradcheck.eval_ms"] + [
    f"gradcheck.case.{c}.s" for c in GRADCHECK_CASES]
# Per-layer metrics whose layer works on each workload: each must see calls.
ACTIVE = {
    "train_gated": _ALL_TENSOR + _ALL_ATTENTION + _ALL_NET + _TRAIN + [
        "tensor.conv2d.calls", "attention.calls", "net.forward_ms", "data.synth_ms"],
    "eval_plain": [f"tensor.{c}.fwd_ms" for c in ("conv2d", "upsample2d", "pointwise")] + [
        f"net.{n}.fwd_ms" for n in LAYERS] + [
        "tensor.conv2d.calls", "net.forward_ms", "metrics.forward_ms", "metrics.confusion_ms",
        "data.synth_ms"],
    "gradcheck_gate": [f"tensor.{c}.{d}" for c in GATE_OPS for d in ("fwd_ms", "bwd_ms")] + (
        _ALL_ATTENTION + _GRADCHECK + ["attention.calls"]),
}


class TraceError(RuntimeError):
    """The wiring missed or doubled calls; the per-layer numbers would lie."""


class _TimedBackward:
    __slots__ = ("tr", "fn", "key", "scopes")

    def __init__(self, tr, fn, key, scopes):
        self.tr, self.fn, self.key, self.scopes = tr, fn, key, scopes

    def __call__(self, g):
        tr = self.tr
        t0 = perf_counter()
        self.fn(g)
        dt = perf_counter() - t0
        tr.bwd_s[self.key] += dt
        tr.bwd_calls[self.key] += 1
        for scope in self.scopes:
            tr.bwd_s[scope] += dt
            tr.bwd_calls[scope] += 1
        if tr.stack:
            tr.stack[-1][1] += dt


class Tracer:
    """Spans and counts, recorded while ``on``; wrappers pass through when off."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []  # [key, child seconds, charged with backward]
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.bwd_s: defaultdict[str, float] = defaultdict(float)
        self.bwd_calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.layer_names: dict[int, str] = {}
        self.case_s: list[float] = []
        self.eval_s = 0.0
        self.shadow_s = 0.0
        self.shadow_pairs: list[tuple[float, float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, key, charge, fn, args, kwargs):
        stack = self.stack
        if stack and stack[-1][0] == key:
            raise TraceError(f"{key} entered inside itself: a wrapper was applied twice")
        frame = [key, 0.0, charge]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.incl_s[key] += dt
            self.self_s[key] += dt - frame[1]
            self.calls[key] += 1
            if stack:
                stack[-1][1] += dt
            if key in ROLLED:
                for outer in stack:
                    rolled = ROLLUP.get((outer[0], key))
                    if rolled:
                        self.incl_s[rolled] += dt
                        self.calls[rolled] += 1

    def _adopt(self, out, key):
        """Give a new graph node a timed backward closure."""
        bw = getattr(out, "_backward", None)
        if bw is None or isinstance(bw, _TimedBackward):
            return  # a leaf, or a node an inner op already adopted
        scopes = tuple(f[0] for f in self.stack if f[2])
        out._backward = _TimedBackward(self, bw, key, scopes)
        self.counts["tensor.graph_nodes"] += 1

    # -- wrappers ------------------------------------------------------------

    def _wrap_op(self, fn, name):
        tr, key = self, f"tensor.{name}"

        def op(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            out = tr._span(key, False, fn, args, kwargs)
            tr._adopt(out, key)
            if name == "conv2d":
                c_out, c_in, kh, kw = (args[1] if len(args) > 1 else kwargs["weight"]).shape
                tr.counts["tensor.conv2d.madds"] += c_out * c_in * kh * kw * out.shape[1] * out.shape[2]
            return out

        return op

    def _wrap_scope(self, fn, key, charge):
        tr = self

        def scope(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            return tr._span(key, charge, fn, args, kwargs)

        return scope

    def _wrap_forward(self, fn):
        tr = self

        def forward(model, *args, **kwargs):
            if not tr.on:
                return fn(model, *args, **kwargs)
            for name, layer in model.layers.items():
                tr.layer_names[id(layer)] = name
            return tr._span("net.forward", False, fn, (model,) + args, kwargs)

        return forward

    def _wrap_layer(self, fn):
        tr = self

        def call(layer, *args, **kwargs):
            if not tr.on:
                return fn(layer, *args, **kwargs)
            name = tr.layer_names.get(id(layer))
            if name is None:
                raise TraceError("ConvLayer called outside ToySegModel.forward")
            return tr._span(f"net.{name}", True, fn, (layer,) + args, kwargs)

        return call

    def _wrap_gradcheck(self, fn):
        tr = self

        def gradcheck(f, params, *args, **kwargs):
            if not tr.on:
                return fn(f, params, *args, **kwargs)

            def timed_f():
                t0 = perf_counter()
                out = f()
                dt = perf_counter() - t0
                tr.eval_s += dt
                tr.counts["gradcheck.evals"] += 1
                if tr.counts["gradcheck.evals"] % SHADOW_EVERY == 0:
                    tr.on = False
                    t1 = perf_counter()
                    f()
                    shadow = perf_counter() - t1
                    tr.on = True
                    tr.shadow_s += shadow
                    tr.shadow_pairs.append((dt, shadow))
                    if tr.stack:
                        tr.stack[-1][1] += shadow
                return out

            tr.counts["gradcheck.entries"] += sum(t.size for _, t in params)
            shadow_before, t0 = tr.shadow_s, perf_counter()
            try:
                return tr._span("gradcheck.case", False, fn, (timed_f, params) + args, kwargs)
            finally:
                tr.case_s.append(perf_counter() - t0 - (tr.shadow_s - shadow_before))

        return gradcheck

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("rowgate")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"rowgate.{info.name}")
        # rowgate re-exports functions named like its modules (tensor,
        # train, gradcheck), so modules come from sys.modules, not attributes
        mod = sys.modules.__getitem__
        by_id = {}  # id of an original function -> its wrapper
        for module, name in OPS:
            fn = getattr(mod(module), name)
            by_id[id(fn)] = self._wrap_op(fn, name)
        for (module, name), (key, charge) in SCOPES.items():
            fn = getattr(mod(module), name)
            by_id[id(fn)] = self._wrap_scope(fn, key, charge)
        fn = mod("rowgate.gradcheck").gradcheck
        by_id[id(fn)] = self._wrap_gradcheck(fn)
        for name, module in list(sys.modules.items()):
            if name != "rowgate" and not name.startswith("rowgate."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patch(module, attr, by_id[id(value)])

        for (module, cls, attr), key in METHODS.items():
            klass = getattr(mod(module), cls)
            fn = getattr(klass, attr)
            wrapped = self._wrap_forward(fn) if key == "net.forward" else self._wrap_scope(fn, key, False)
            self._patch(klass, attr, wrapped)
        layer = mod("rowgate.net").ConvLayer
        self._patch(layer, "__call__", self._wrap_layer(layer.__call__))

    def _patch(self, owner, attr, wrapper) -> None:
        current = getattr(owner, attr)
        if getattr(current, "_perfbench_wrapper", False):
            raise TraceError(f"{owner.__name__}.{attr} is already wrapped")
        wrapper._perfbench_wrapper = True
        self._patched.append((owner, attr, current))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- report --------------------------------------------------------------

    def per_layer(self, workload: str, run) -> dict:
        """Per-layer metrics, normalised per traced unit of the workload."""
        units = run.traced_units
        if units < 1:
            raise TraceError("no traced units: the run was too short")
        ms = 1000.0 / units
        values: dict[str, tuple[float, str]] = {}
        seen: dict[str, int] = {}  # call counts behind each metric, for the coverage check

        def put(name, value, unit, calls):
            values[name] = (value, unit)
            seen[name] = calls

        op_keys = {cat: [f"tensor.{n}" for (_, n), c in OPS.items() if c == cat] for cat in CATEGORIES}
        for cat, keys in op_keys.items():
            put(f"tensor.{cat}.fwd_ms", sum(self.self_s[k] for k in keys) * ms, "ms",
                sum(self.calls[k] for k in keys))
            put(f"tensor.{cat}.bwd_ms", sum(self.bwd_s[k] for k in keys) * ms, "ms",
                sum(self.bwd_calls[k] for k in keys))
        put("tensor.conv2d.calls", self.calls["tensor.conv2d"] / units, "count", self.calls["tensor.conv2d"])
        put("tensor.conv2d.madds", self.counts["tensor.conv2d.madds"] / units, "count",
            self.calls["tensor.conv2d"])
        put("tensor.backward.sweep_ms", self.self_s["tensor.backward"] * ms, "ms",
            self.calls["tensor.backward"])
        nodes = self.counts["tensor.graph_nodes"]
        run_closures = sum(self.bwd_calls[k] for keys in op_keys.values() for k in keys)
        put("tensor.graph_nodes", nodes / units, "count", nodes)
        put("tensor.backward_used_frac", run_closures / nodes if nodes else 0.0, "ratio", nodes)

        for stage in STAGES.values():
            key = f"attention.{stage}"
            put(f"{key}.fwd_ms", self.incl_s[key] * ms, "ms", self.calls[key])
            put(f"{key}.bwd_ms", self.bwd_s[key] * ms, "ms", self.bwd_calls[key])
        put("attention.calls", self.calls["attention.forward"] / units, "count",
            self.calls["attention.forward"])
        for layer in LAYERS:
            key = f"net.{layer}"
            put(f"{key}.fwd_ms", self.incl_s[key] * ms, "ms", self.calls[key])
            put(f"{key}.bwd_ms", self.bwd_s[key] * ms, "ms", self.bwd_calls[key])
        put("net.forward_ms", self.incl_s["net.forward"] * ms, "ms", self.calls["net.forward"])

        for name, key in (("train.data_ms", "train.data"), ("train.forward_ms", "train.forward"),
                          ("train.loss_ms", "train.loss"), ("train.backward_ms", "train.backward"),
                          ("optim.step_ms", "optim.step"), ("metrics.forward_ms", "metrics.forward")):
            put(name, self.incl_s[key] * ms, "ms", self.calls[key])
        put("metrics.confusion_ms",
            (self.incl_s["metrics.evaluate"] - self.incl_s["metrics.forward"]) * ms, "ms",
            self.calls["metrics.evaluate"])
        # set-up runs once per process, so synthesis is per run, not per unit
        put("data.synth_ms", self.incl_s["data.synth"] * 1000.0, "ms", self.calls["data.synth"])

        evals = self.counts["gradcheck.evals"]
        put("gradcheck.entries", self.counts["gradcheck.entries"] / units, "count",
            self.calls["gradcheck.case"])
        put("gradcheck.evals", evals / units, "count", evals)
        put("gradcheck.eval_ms", self.eval_s * 1000.0 / evals if evals else 0.0, "ms", evals)
        per_suite = len(GRADCHECK_CASES)
        for i, case in enumerate(GRADCHECK_CASES):
            times = self.case_s[i::per_suite]
            put(f"gradcheck.case.{case}.s", sum(times) / units, "s", len(times))

        if self.shadow_pairs:
            overhead = statistics.median(t / u for t, u in self.shadow_pairs) - 1.0
        else:
            overhead = statistics.median(run.traced_ms) / statistics.median(run.untraced_ms) - 1.0
        put("trace.overhead_frac", overhead, "ratio", 1)

        self._check_coverage(workload, seen)
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    def _check_coverage(self, workload: str, seen: dict[str, int]) -> None:
        silent = [name for name in ACTIVE[workload] if seen[name] == 0]
        if silent:
            raise TraceError(f"{workload}: no calls seen for {', '.join(silent)}")
        forwards, convs = self.calls["net.forward"], self.calls["tensor.conv2d"]
        if convs != CONV2D_PER_FORWARD * forwards:
            raise TraceError(
                f"{workload}: {convs} conv2d calls over {forwards} forwards, "
                f"expected exactly {CONV2D_PER_FORWARD} per forward"
            )
        layer_calls = sum(self.calls[f"net.{n}"] for n in LAYERS)
        if layer_calls != convs:
            raise TraceError(f"{workload}: {layer_calls} layer calls but {convs} conv2d calls")

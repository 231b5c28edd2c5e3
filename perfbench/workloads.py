"""The three benchmark workloads: set-up, timed loop and output checks.

Each workload is a single-process closed loop with one caller: the next
call into rowgate starts when the previous one has returned.  Inputs are
generated from the workload seed; rowgate sees only those inputs.  Every
timed call goes through the rowgate module attribute at call time, so a
traced run sees it and a rewrite of the called function shows up.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

HEIGHT, WIDTH, CLASSES, NOISE = 96, 48, 6, 0.5
TRAIN_IMAGES = 16
EVAL_IMAGES = 16
EVAL_CHUNK = 4  # images per evaluate() call
MIN_TRAIN_STEPS = 20
DIGEST_STEPS = 16  # loss_digest covers this many steps, whatever the run length
MIN_EVAL_CALLS = 2 * EVAL_IMAGES // EVAL_CHUNK


def _mod(name):
    # rowgate re-exports functions named like some of its modules
    # (tensor, train, gradcheck), so attribute access would get those
    return importlib.import_module(f"rowgate.{name}")


@dataclass
class Run:
    samples: list[tuple[float, int]] = field(default_factory=list)  # (ms per op, ops covered)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    traced_units: int = 0
    traced_ms: list[float] = field(default_factory=list)
    untraced_ms: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def record(self, call_s: float, ops: int, traced: bool) -> None:
        ms = call_s * 1000.0 / ops
        self.samples.append((ms, ops))
        (self.traced_ms if traced else self.untraced_ms).append(ms)
        if traced:
            self.traced_units += ops

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.info.setdefault("check_failures", []).append(what)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _loop(seconds: float, min_calls: int, tracer, call, alternate: bool = True) -> None:
    """Call ``call(i, traced)`` until ``seconds`` have passed and ``min_calls`` were made.

    In a traced run every second call is traced, so the untraced calls in
    between give the reference for trace.overhead_frac; with ``alternate``
    off every call is traced.
    """
    end = perf_counter() + seconds
    i = 0
    while i < min_calls or perf_counter() < end:
        traced = tracer is not None and (not alternate or i % 2 == 1)
        if tracer is not None:
            tracer.on = traced
        call(i, traced)
        if tracer is not None:
            tracer.on = False
        i += 1


# ---------------------------------------------------------------------------
# train_gated
# ---------------------------------------------------------------------------


class TrainGated:
    """SGD steps of the gated CLI-default model, batch 4, 96x48 crop."""

    @staticmethod
    def setup(seed: int):
        cfgmod, data, net = _mod("config"), _mod("data"), _mod("net")
        values = cfgmod.resolve(None, [f"seed={seed}", "train.max_iteration=1"])
        model_cfg = cfgmod.build_model_config(values)
        if model_cfg.gate_layers != frozenset({1, 2, 3, 4}):
            raise RuntimeError(f"CLI default gate layers changed: {sorted(model_cfg.gate_layers)}")
        train_cfg = cfgmod.build_train_config(values)
        dataset = data.synth_banded(seed=seed, n_images=TRAIN_IMAGES, height=HEIGHT,
                                    width=WIDTH, num_classes=CLASSES, noise=NOISE)
        model = net.ToySegModel.build(model_cfg)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        return model, dataset, train_cfg, rng

    @staticmethod
    def run(state, seconds: float, tracer) -> Run:
        model, dataset, train_cfg, rng = state
        train = _mod("train")
        run = Run()
        losses: list[float] = []

        def step(i, traced):
            run.attempted += 1
            t0 = perf_counter()
            try:
                log = train.train(model, dataset, train_cfg, rng)
            except Exception as exc:  # a failed step is counted, and the run goes on
                run.failed += 1
                run.info.setdefault("errors", []).append(f"step {i}: {type(exc).__name__}: {exc}")
                losses.append(float("nan"))
                return
            run.record(perf_counter() - t0, 1, traced)
            loss = log.losses[-1]
            losses.append(loss)
            if not np.isfinite(loss):
                run.failed += 1

        _loop(seconds, MIN_TRAIN_STEPS, tracer, step)
        k = len(losses) // 4
        first, last = np.mean(losses[:k]), np.mean(losses[-k:])
        run.check(bool(np.all(np.isfinite(losses))), "every train loss is finite")
        run.check(bool(last < first), f"mean loss of last {k} steps {last:.6f} < first {k} {first:.6f}")
        run.info["train.loss_digest"] = _digest([np.array(losses[:DIGEST_STEPS])])
        run.info["train.loss_first_last"] = [float(first), float(last)]
        run.info["train.steps"] = len(losses)
        return run


# ---------------------------------------------------------------------------
# eval_plain
# ---------------------------------------------------------------------------


class EvalPlain:
    """evaluate() of the ungated model over synthetic 96x48 val images."""

    @staticmethod
    def setup(seed: int):
        cfgmod, data, net = _mod("config"), _mod("data"), _mod("net")
        values = cfgmod.resolve(None, [f"seed={seed}", "model.gate_layers="])
        model_cfg = cfgmod.build_model_config(values)
        val = data.synth_banded(seed=seed, n_images=EVAL_IMAGES, height=HEIGHT,
                                width=WIDTH, num_classes=CLASSES, noise=NOISE)
        return net.ToySegModel.build(model_cfg), val

    @staticmethod
    def run(state, seconds: float, tracer) -> Run:
        model, val = state
        metrics = _mod("metrics")
        chunks = [val[i : i + EVAL_CHUNK] for i in range(0, EVAL_IMAGES, EVAL_CHUNK)]
        first_pass: list[np.ndarray] = []
        calls_per_chunk = [0] * len(chunks)
        mismatched = 0
        run = Run()

        def call(i, traced):
            nonlocal mismatched
            chunk = chunks[i % len(chunks)]
            calls_per_chunk[i % len(chunks)] += 1
            run.attempted += len(chunk)
            t0 = perf_counter()
            report = metrics.evaluate(model, chunk)
            run.record(perf_counter() - t0, len(chunk), traced)
            labelled = sum(int((s.label != 255).sum()) for s in chunk)
            if i < len(chunks):
                first_pass.append(report.confusion)
            if int(report.confusion.sum()) != labelled or not np.array_equal(
                report.confusion, first_pass[i % len(chunks)]
            ):
                mismatched += len(chunk)

        _loop(seconds, MIN_EVAL_CALLS, tracer, call)
        # logits are checked on each distinct image once, outside the timed
        # calls; the model is fixed, so a bad image fails in every call
        bad_images = 0
        for c, chunk in enumerate(chunks):
            for sample in chunk:
                logits = model.forward(sample.image, training=False).data
                if logits.shape != (CLASSES, HEIGHT, WIDTH) or not np.all(np.isfinite(logits)):
                    bad_images += 1
                    run.failed += calls_per_chunk[c]
        run.failed += mismatched
        run.check(bad_images == 0, f"{bad_images} images give non-finite or mis-shaped logits")
        run.check(mismatched == 0, f"{mismatched} images in calls whose confusion is off")
        run.info["eval.confusion_digest"] = _digest(first_pass)
        run.info["eval.calls"] = len(run.samples)
        return run


# ---------------------------------------------------------------------------
# gradcheck_gate
# ---------------------------------------------------------------------------

# The gate-module cases of `rowgate gradcheck`, built as that command builds
# them: one configuration per positional mode, inputs from rng(seed + i).
# Its fourth case, the toy model with all five gates, is left out: at some
# seeds (8 among them) its inputs put a relu input next to its kink, the
# central difference crosses it and the case fails.  The command does not
# redraw such inputs; README.md has the details.
GATE_CASES = ("none", "sinusoidal", "learnable")


class GradcheckGate:
    """The three gate-module cases of the gradcheck suite, through rowgate.gradcheck."""

    @staticmethod
    def setup(seed: int):
        cfgmod, attn, tensor = _mod("config"), _mod("attention"), _mod("tensor")
        values = cfgmod.resolve(None, [f"seed={seed}"])
        eps = cfgmod.get_float(values, "gradcheck.epsilon")
        tol = cfgmod.get_float(values, "gradcheck.tolerance")
        cases = []
        for i, pe_mode in enumerate(GATE_CASES):
            cfg = attn.RowGateConfig(
                in_channels=8, out_channels=6, coarse_height=4, reduction=2,
                pe_mode=pe_mode, jitter_max=0, dropout_p=0.0,
            )
            rng = np.random.default_rng(seed + i)
            params = attn.init_params(cfg, rng)
            x_l = tensor.parameter(rng.normal(size=(8, 8, 6)))
            x_h = tensor.parameter(rng.normal(size=(6, 8, 6)))
            target = rng.normal(size=(6, 8, 6))
            cases.append((pe_mode, cfg, params, x_l, x_h, target))
        return cases, eps, tol

    @staticmethod
    def run(state, seconds: float, tracer) -> Run:
        cases, eps, tol = state
        attn, tensor, gradcheck = _mod("attention"), _mod("tensor"), _mod("gradcheck")
        run = Run()
        reports: list[str] = []

        def check_case(pe_mode, cfg, params, x_l, x_h, target):
            def f():
                out, _ = attn.forward(x_l, x_h, params, cfg, training=True)
                d = tensor.sub(out, tensor.tensor(target))
                return tensor.mul(d, d).mean()

            named = [("x_l", x_l), ("x_h", x_h)] + params.named()
            return gradcheck.gradcheck(f, named, eps=eps, tol=tol)

        def suite(i, traced):
            run.attempted += len(cases)
            t0 = perf_counter()
            try:
                results = [check_case(*case) for case in cases]
            except Exception as exc:  # counted as failed cases, and the run goes on
                run.failed += len(cases)
                run.info.setdefault("errors", []).append(f"suite {i}: {type(exc).__name__}: {exc}")
                return
            run.record(perf_counter() - t0, 1, traced)
            run.failed += sum(not r.passed for r in results)
            reports.append("\n".join(
                f"[{'PASS' if r.passed else 'FAIL'}] gate-module pe={case[0]}: "
                f"max relative error {r.max_rel_error!r}"
                for case, r in zip(cases, results)))

        # a traced suite is traced whole; its reference comes from shadow evaluations
        _loop(seconds, 1, tracer, suite, alternate=False)
        run.check(run.failed == 0 and len(reports) == len(run.samples), "every case passes")
        run.check(len(set(reports)) <= 1, "every suite in the run reports the same errors")
        run.info["gradcheck.report_digest"] = hashlib.sha256(reports[0].encode()).hexdigest()[:16] if reports else ""
        run.info["gradcheck.report"] = reports[0].splitlines() if reports else []
        run.info["gradcheck.suites"] = len(reports)
        return run


WORKLOADS = {
    "train_gated": TrainGated,
    "eval_plain": EvalPlain,
    "gradcheck_gate": GradcheckGate,
}

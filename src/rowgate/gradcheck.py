"""Finite-difference verification of reverse-mode gradients.

``gradcheck`` evaluates a scalar-valued closure, backpropagates, and then
re-evaluates the closure with every parameter entry nudged by +/-eps to
form central differences (f(t+eps) - f(t-eps)) / (2 eps).  Entries that
fail that two-point test are re-estimated with the four-point stencil
(f(t-2eps) - 8 f(t-eps) + 8 f(t+eps) - f(t+2eps)) / (12 eps), whose
truncation error falls like eps^4 instead of eps^2, so sharp curvature
of the loss does not fail a correct gradient.  The closure must be
deterministic; pass eval-mode forward functions or disable dropout/jitter
before checking.

The two-point probes of every entry of every parameter are one
``parallel.fork_map`` over the usable CPUs, so ``f`` must also be
fork-safe; that module says what runs where.  Checks under
``_MIN_FORK_ENTRIES`` entries stay in-process.

``suite`` is the suite behind ``rowgate gradcheck``, built from the
case builders and the kink-clear draw loop below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import attention as attn
from .errors import ConfigError, NumericalError
from .net import GATE_SITES, GRADCHECK_STREAM, ToySegConfig, ToySegModel, seed_stream
from .parallel import fork_map
from .tensor import Tensor, no_grad, parameter, relu_input_margin, softmax_cross_entropy, tensor, zero_grads

# Entries whose analytic and numeric magnitudes are both below this floor
# are compared against it instead, so float noise on a genuinely zero
# gradient does not masquerade as relative error.
_DENOMINATOR_FLOOR = 1e-4

# Gradchecks over fewer entries stay in-process: forking a worker costs
# more than sharing their probes saves.
_MIN_FORK_ENTRIES = 256

RELU_MARGIN = 1e-3  # smallest |relu input| a drawn case may have
MODEL_TOLERANCE = 1e-3  # the toy model's tolerance; the gate cases take the caller's
MAX_DRAWS = 1000  # draws before a case gives up


@dataclass
class ParamCheck:
    name: str
    max_rel_error: float
    max_abs_error: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    params: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((p.max_rel_error for p in self.params), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def worst(self) -> ParamCheck:
        return max(self.params, key=lambda p: p.max_rel_error)

    def format(self) -> str:
        lines = [f"gradcheck eps={self.epsilon:g} tol={self.tolerance:g}"]
        for p in self.params:
            lines.append(
                f"  {p.name:<28s} max_rel={p.max_rel_error:.3e} max_abs={p.max_abs_error:.3e}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {verdict} (max relative error {self.max_rel_error:.3e})")
        return "\n".join(lines)


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), _DENOMINATOR_FLOOR)
    return np.abs(analytic - numeric) / denom


def _probe(f: Callable[[], Tensor], flat: np.ndarray, i: int, step: float) -> tuple[float, float]:
    """Loss with flat[i] moved by +step and by -step; flat[i] is restored even if ``f`` raises.

    Both evaluations run under ``no_grad``: nothing differentiates them.
    """
    keep = flat[i]
    try:
        with no_grad():
            flat[i] = keep + step
            up = float(f().data)
            flat[i] = keep - step
            down = float(f().data)
    finally:
        flat[i] = keep
    return up, down


def _finite(pair, name: str, i: int) -> tuple[float, float]:
    up, down = pair
    if not (np.isfinite(up) and np.isfinite(down)):
        raise NumericalError(f"gradcheck: non-finite loss while perturbing {name}[{i}]")
    return up, down


def gradcheck(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``params`` is a sequence of (name, tensor) pairs; each tensor's data is
    perturbed in place and restored, and its grad is None afterwards.
    Raises ``NumericalError`` for a non-finite or non-scalar loss or an
    ``eps`` outside [1e-7, 1e-3], ``ConfigError`` unless ``tol`` is finite and > 0.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise NumericalError(f"gradcheck epsilon {eps:g} outside [1e-7, 1e-3]")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck tolerance must be finite and > 0, got {tol:g}")
    tensors = [t for _, t in params]
    zero_grads(tensors)
    try:
        loss = f()
        if loss.data.size != 1:
            raise NumericalError(f"gradcheck needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data):
            raise NumericalError("gradcheck: loss is non-finite")
        loss.backward()

        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]
        flats = [t.data.reshape(-1) for t in tensors]
        probes = fork_map(lambda job: _probe(f, *job, eps),
                          [(flat, i) for flat in flats for i in range(flat.size)], _MIN_FORK_ENTRIES)

        report = GradCheckReport(epsilon=eps, tolerance=tol)
        for (name, t), ana, flat in zip(params, analytic, flats):
            block = [_finite(next(probes), name, i) for i in range(flat.size)]
            ups, downs = np.array(block, dtype=float).reshape(-1, 2).T
            num = (ups - downs) / (2.0 * eps)
            for i in np.flatnonzero(_rel_errors(ana.reshape(-1), num) >= tol):
                up2, down2 = _finite(_probe(f, flat, i, 2.0 * eps), name, i)
                num[i] = (down2 - 8.0 * downs[i] + 8.0 * ups[i] - up2) / (12.0 * eps)
            num = num.reshape(t.data.shape)
            rel = _rel_errors(ana, num)
            idx = np.unravel_index(int(np.argmax(rel)), rel.shape)
            report.params.append(
                ParamCheck(
                    name=name,
                    max_rel_error=float(rel[idx]),
                    max_abs_error=float(np.max(np.abs(ana - num))),
                    worst_index=tuple(int(i) for i in idx),
                    analytic=float(ana[idx]),
                    numeric=float(num[idx]),
                )
            )
    finally:
        zero_grads(tensors)
    return report


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


@dataclass
class Case:
    f: Callable[[], Tensor]  # scalar loss
    params: list[tuple[str, Tensor]]  # the named tensors to check


def draw_clear(draw: Callable[[], Case]) -> tuple[Case, float]:
    """Call ``draw`` until no relu input of its loss is within RELU_MARGIN of its kink.

    A central difference across a kink is meaningless.  Returns the case
    and its margin; raises ``NumericalError`` after MAX_DRAWS draws.
    """
    for _ in range(MAX_DRAWS):
        case = draw()
        margin = relu_input_margin(case.f())
        if margin > RELU_MARGIN:
            return case, margin
    raise NumericalError(
        f"gradcheck: {MAX_DRAWS} draws all put a relu input within "
        f"{RELU_MARGIN:g} of its kink (last margin {margin:.3e})"
    )


def gate_case(
    config: attn.RowGateConfig, rng: np.random.Generator, height_l: int, height_h: int, width: int
) -> Case:
    """The gate module's squared error to a target; parameters, x_l, x_h, target drawn in that order."""
    params = attn.init_params(config, rng)
    x_l = parameter(rng.normal(size=(config.in_channels, height_l, width)))
    x_h = parameter(rng.normal(size=(config.out_channels, height_h, width)))
    target = rng.normal(size=x_h.shape)

    def f():
        out, _ = attn.forward(x_l, x_h, params, config, training=True)
        d = out - tensor(target)
        return (d * d).mean()

    return Case(f, [("x_l", x_l), ("x_h", x_h)] + params.named())


def toy_model(seed: int = 0, gate: attn.GateSettings = attn.GateSettings()) -> ToySegModel:
    """The smallest toy model with every gate site; ``gate`` sets pooling and encoding only."""
    gate = replace(gate, coarse_height=2, reduction=2, jitter_max=0, dropout_p=0.0)
    return ToySegModel.build(ToySegConfig(num_classes=3, in_channels=2, widths=(4, 6, 6),
                                          gate_layers=frozenset(GATE_SITES), gate=gate, seed=seed))


def toy_model_case(model: ToySegModel, rng: np.random.Generator) -> Case:
    """The model's cross-entropy on a fresh 16x16 image and labels."""
    image = rng.normal(size=(model.config.in_channels, 16, 16))
    labels = rng.integers(0, model.config.num_classes, size=(16, 16))
    return Case(lambda: softmax_cross_entropy(model.forward(image, training=True), labels),
                model.named_parameters())


def suite(seed: int, gate: attn.GateSettings, eps: float, tol: float) -> tuple[str, bool]:
    """Gate module per positional mode, then ``toy_model(seed, gate)``: (report text, all passed).

    Gate case i draws from ``default_rng(seed + i)``, the toy model's
    inputs from ``seed_stream(seed, GRADCHECK_STREAM)``.
    """
    cases = []
    for i, pe_mode in enumerate(("none", "sinusoidal", "learnable")):
        config = attn.RowGateConfig(in_channels=8, out_channels=6, coarse_height=4, reduction=2,
                                    pe_mode=pe_mode, jitter_max=0, dropout_p=0.0)
        rng = np.random.default_rng(seed + i)
        case, _ = draw_clear(lambda: gate_case(config, rng, 8, 8, 6))
        cases.append((f"gate-module pe={pe_mode}", case, tol))
    model = toy_model(seed, gate)
    rng = seed_stream(seed, GRADCHECK_STREAM)
    case, margin = draw_clear(lambda: toy_model_case(model, rng))
    cases.append(("toy-model all-gates", case, MODEL_TOLERANCE))

    lines, ok = [], True
    for name, case, case_tol in cases:
        report = gradcheck(case.f, case.params, eps=eps, tol=case_tol)
        ok = ok and report.passed
        lines.append(f"[{'PASS' if report.passed else 'FAIL'}] {name}: max relative error "
                     f"{report.max_rel_error:.3e} (tolerance {report.tolerance:g})")
    lines.append(f"relu margin (toy model): {margin:.3e}")
    return "\n".join(lines), ok

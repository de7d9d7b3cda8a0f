"""Central-finite-difference verification of analytic gradients.

Two levels: every primitive op against a random scalar projection of its
output, and the composed network loss probed at randomly sampled parameter
coordinates. Both use step 1e-5 in float64. Relative error uses a small
floor in the denominator so coordinates whose true gradient is ~0 are
judged by absolute error instead. A network probe that straddles a ReLU
kink is re-probed at smaller steps, and every re-probe is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TASKS, Example, build_vocab, make_batches
from .encoder import MASK_BIAS
from .errors import ConfigError
from .losses import LossWeights, cross_entropy, total_loss
from .model import DpmnModel
from .prompt import PromptConfig
from .runconfig import TrainConfig
from .tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat,
    embedding_lookup,
    layer_norm,
    linear,
    log_softmax,
    lstm_scan,
    mul,
    prefix,
    relu,
    reshape,
    sigmoid,
    slice_,
    softmax,
    sum_,
    tanh,
)

FD_STEP = 1e-5
REPROBE_STEPS = (1e-6, 1e-7)
OP_TOLERANCE = 1e-6
NETWORK_TOLERANCE = 1e-4
_REL_FLOOR = 1e-6


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)


def _shifted(loss_fn, flat: np.ndarray, j: int, step: float) -> tuple[float, float]:
    """loss_fn() with flat[j] moved up and down by step; flat[j] is restored."""
    kept = flat[j]
    flat[j] = kept + step
    up = loss_fn()
    flat[j] = kept - step
    down = loss_fn()
    flat[j] = kept
    return up, down


def _fd_max_rel(loss_fn, inputs: list[Tensor], grads: list[np.ndarray]) -> float:
    """Perturb every coordinate of every input and compare against `grads`."""
    worst = 0.0
    for t, g in zip(inputs, grads):
        flat = t.data.reshape(-1)
        gflat = np.zeros_like(flat) if g is None else g.reshape(-1)
        for j in range(flat.size):
            up, down = _shifted(loss_fn, flat, j, FD_STEP)
            worst = max(worst, relative_error(gflat[j], (up - down) / (2.0 * FD_STEP)))
    return worst


def check_op(forward, inputs: list[Tensor], rng: np.random.Generator) -> float:
    """Max relative error of d(projection of forward())/d(inputs)."""
    with Tape() as tape:
        out = forward()
        weights = Tensor(rng.normal(size=out.shape))
        loss = sum_(mul(out, weights))
    backward(tape, loss)
    grads = [t.grad for t in inputs]

    def loss_value() -> float:
        return float((forward().data * weights.data).sum())

    return _fd_max_rel(loss_value, inputs, grads)


def _op_catalog(rng: np.random.Generator):
    """(name, inputs, forward) triples with inputs kept away from kinks."""
    def t(*shape, low=-1.0, high=1.0):
        return Tensor(rng.uniform(low, high, size=shape))

    add_a, add_b = t(2, 5), t(5)
    mul_a, mul_b = t(2, 5), t(2, 1)
    relu_in = Tensor(rng.uniform(0.1, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4)))
    sig_in, tanh_in = t(3, 4, low=-2.0, high=2.0), t(3, 4, low=-2.0, high=2.0)
    soft_in, lsm_in = t(4, 5, low=-2.0, high=2.0), t(4, 5, low=-2.0, high=2.0)
    ln_x, ln_g, ln_b = t(3, 6), t(6, low=0.5, high=1.5), t(6)
    table = t(7, 4)
    ids = np.array([[0, 3, 6], [2, 2, 5]])
    cat_a, cat_b = t(2, 3), t(2, 5)
    sl_in = t(4, 5, 6)
    sum_in = t(3, 4, 5)
    rs_in = t(2, 3, 4)
    # a 2-slot prompt ahead of a 3-slot text, and over a previous prompt
    pre_m, pre_x = t(2, 4), t(3, 3, 4)
    over_m, over_x = t(2, 4), t(3, 5, 4)
    # unsorted lengths from 1 to the full length, so the packing permutation is
    # checked; each direction gets its own inputs because .grad accumulates
    scan_lengths = np.array([2, 4, 1])
    fw_scan = [t(3, 4, 3), t(3, 8), t(2, 8), t(8)]
    bw_scan = [t(3, 4, 3), t(3, 8), t(2, 8), t(8)]
    lin_x, lin_w, lin_b = t(2, 3, 4), t(4, 5), t(5)
    lin2_x, lin2_w = t(3, 4), t(4, 2)
    lin_nb_x, lin_nb_w = t(2, 3, 4), t(4, 3)
    # two heads of width 2; the second row's last key is padding
    qkv = t(2, 3, 12)
    att_bias = np.where(np.arange(3) < np.array([[3], [2]]), 0.0, MASK_BIAS)[:, None, None, :]

    return [
        ("add", [add_a, add_b], lambda: add(add_a, add_b)),
        ("mul", [mul_a, mul_b], lambda: mul(mul_a, mul_b)),
        ("relu", [relu_in], lambda: relu(relu_in)),
        ("sigmoid", [sig_in], lambda: sigmoid(sig_in)),
        ("tanh", [tanh_in], lambda: tanh(tanh_in)),
        ("softmax", [soft_in], lambda: softmax(soft_in, axis=1)),
        ("log_softmax", [lsm_in], lambda: log_softmax(lsm_in, axis=1)),
        ("layer_norm", [ln_x, ln_g, ln_b], lambda: layer_norm(ln_x, ln_g, ln_b)),
        ("embedding_lookup", [table], lambda: embedding_lookup(table, ids)),
        ("concat", [cat_a, cat_b], lambda: concat([cat_a, cat_b], axis=1)),
        ("slice", [sl_in], lambda: slice_(sl_in, (slice(None), 2, slice(1, 4)))),
        ("sum", [sum_in], lambda: sum_(sum_in, axis=1)),
        ("reshape", [rs_in], lambda: reshape(rs_in, (6, 4))),
        ("prefix", [pre_m, pre_x], lambda: prefix(pre_m, pre_x, skip=0)),
        ("prefix_overwrite", [over_m, over_x], lambda: prefix(over_m, over_x, skip=2)),
        ("lstm_scan", fw_scan, lambda: lstm_scan(fw_scan[0], scan_lengths, *fw_scan[1:])),
        ("lstm_scan_reverse", bw_scan,
         lambda: lstm_scan(bw_scan[0], scan_lengths, *bw_scan[1:], reverse=True)),
        ("linear", [lin_x, lin_w, lin_b], lambda: linear(lin_x, lin_w, lin_b)),
        ("linear_2d", [lin2_x, lin2_w], lambda: linear(lin2_x, lin2_w)),
        ("linear_no_bias", [lin_nb_x, lin_nb_w], lambda: linear(lin_nb_x, lin_nb_w)),
        ("attention", [qkv], lambda: attention(qkv, att_bias, num_heads=2)),
    ]


def check_all_ops(seed: int = 0) -> dict[str, float]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return {name: check_op(fwd, inputs, rng) for name, inputs, fwd in _op_catalog(rng)}


TINY_CONFIG = TrainConfig(
    num_layers=2,
    hidden_size=16,
    num_heads=2,
    ffn_size=32,
    max_seq_len=16,
    dropout=0.0,
    prompt=PromptConfig(length=2, form="deep", init="random", tuning="lm-plus-prompt"),
    loss_weights=LossWeights(0.4, 0.3, 0.3),
    batch_size=2,
)

_PROBE_EXAMPLES = (
    Example("probe0", "@USER you fool trash walk", "OFF", "TIN", "IND"),
    Example("probe1", "sunny park walk friend", "NOT"),
    Example("probe2", "awful loser show today", "OFF", "UNT"),
)


def build_probe_setup():
    """Tiny model plus one batch exercising all three task losses."""
    cfg = TINY_CONFIG
    examples = list(_PROBE_EXAMPLES)
    vocab = build_vocab(examples, min_freq=1)
    model = DpmnModel(cfg.encoder_config(vocab.size), cfg.prompt,
                      head_kind=cfg.head_kind, rng_seed=cfg.rng_seed)
    batch = make_batches(examples, vocab, len(examples), model.text_budget)[0]

    def compute_loss():
        logits = model.forward(batch)
        return total_loss(*(cross_entropy(logits[t], batch.labels[t]) for t in TASKS),
                          cfg.loss_weights)

    return model, batch, compute_loss


def _group_of(name: str) -> str:
    return name.split(".", 1)[0]


def _network_probe(loss_fn, base: float, flat: np.ndarray, j: int,
                   analytic: float) -> list[tuple[float, float]]:
    """(step, relative error) of each try at one probe; the last decides.

    Across a kink within the step, the central difference is off by half
    the gap between the one-sided differences; on a smooth stretch the gap
    (step * f'') is far below a real gradient error. So a failing probe
    whose gap is at least its error is tried again at the next step."""
    tries = []
    for step in (FD_STEP,) + REPROBE_STEPS:
        up, down = _shifted(loss_fn, flat, j, step)
        numeric = (up - down) / (2.0 * step)
        tries.append((step, relative_error(analytic, numeric)))
        gap = abs(up - 2.0 * base + down) / step
        if tries[-1][1] < NETWORK_TOLERANCE or gap < abs(numeric - analytic):
            break
    return tries


def check_network(n_probes: int, seed: int = 0,
                  reprobes: list[str] | None = None) -> dict[str, float]:
    """Probe random parameter coordinates of the composed network.

    Probes cycle through the parameter list so every module is hit, with
    the coordinate inside each parameter drawn at random. Returns the max
    relative error per top-level parameter group; a line per re-probe (see
    _network_probe) goes to `reprobes`.
    """
    model, _, compute_loss = build_probe_setup()
    params = list(model.parameters().values())
    rng = np.random.Generator(np.random.PCG64(seed))

    with Tape() as tape:
        loss = compute_loss()
    backward(tape, loss)
    base = loss.item()

    worst: dict[str, float] = {}
    for i in range(n_probes):
        p = params[i % len(params)]
        j = int(rng.integers(p.size))
        analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[j]
        tries = _network_probe(lambda: compute_loss().item(), base, p.data.reshape(-1), j,
                               analytic)
        if reprobes is not None:
            reprobes += [f"reprobe {p.name}[{j}] step {step:.0e} rel_err {err:.3e}"
                         for step, err in tries[1:]]
        group = _group_of(p.name)
        worst[group] = max(worst.get(group, 0.0), tries[-1][1])
    return worst


@dataclass
class GradcheckReport:
    op_errors: dict[str, float]
    network_errors: dict[str, float]
    probes: int
    reprobes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (all(v < OP_TOLERANCE for v in self.op_errors.values())
                and all(v < NETWORK_TOLERANCE for v in self.network_errors.values()))

    def lines(self) -> list[str]:
        out = []
        for name, err in self.op_errors.items():
            verdict = "ok" if err < OP_TOLERANCE else "FAIL"
            out.append(f"op {name:<18} max_rel_err {err:.3e}  {verdict}")
        for group, err in self.network_errors.items():
            verdict = "ok" if err < NETWORK_TOLERANCE else "FAIL"
            out.append(f"net {group:<17} max_rel_err {err:.3e}  {verdict}")
        out += self.reprobes
        out.append(f"probes {self.probes}  result {'PASS' if self.passed else 'FAIL'}")
        return out


def run_gradcheck(n_probes: int = 200, seed: int = 0) -> GradcheckReport:
    if n_probes < 1:
        raise ConfigError(f"gradcheck needs at least one network probe, got {n_probes}")
    op_errors = check_all_ops(seed)
    reprobes: list[str] = []
    network_errors = check_network(n_probes, seed, reprobes)
    op_coords = sum(t.size for _, inputs, _ in _op_catalog(
        np.random.Generator(np.random.PCG64(seed))) for t in inputs)
    return GradcheckReport(op_errors, network_errors, n_probes + op_coords, reprobes)

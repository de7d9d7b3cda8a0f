"""Central-finite-difference verification of analytic gradients.

Two levels: every primitive op against a random scalar projection of its
output, and the composed network loss probed at randomly sampled parameter
coordinates. Both use step 1e-5 in float64. Relative error uses a small
floor in the denominator so coordinates whose true gradient is ~0 are
judged by absolute error instead. A network probe that straddles a ReLU
kink is re-probed at smaller steps, and every re-probe is reported.

Neither level repeats work a finite difference does not need. A
one-direction `lstm_scan` entry runs the +- perturbations of its weights as
the directions of one scan: each direction's states are bit for bit those of
a scan of it alone. A network probe resumes at the first stage that reads
its parameter, told by its name, on what the taped base pass kept: for
`layer<i>.*` and `prompt.layer<i>` encoder layer i's input, then the rest
of the stack, the heads' read and every classify and loss; for
`head_<task>.lstm_*` a scan of that head's two directions, spliced into the
kept states, then that task's classify and loss; for any other
`head_<task>.*` that classify and loss on the kept states; for an embedding
a full forward. The total adds the kept losses of the other tasks as
always. Every op gets the bytes a full forward gives it and returns the
same floats, so every loss is the full forward's, bit for bit. No probe
forward draws dropout, so every stage sees what the base pass saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import TASKS, Example, build_vocab, make_batches
from .encoder import MASK_BIAS, attention_bias, encode_layer
from .errors import ConfigError
from .heads import BiLstmFfnHead
from .losses import LossWeights, cross_entropy, total_loss
from .prompt import PromptConfig
from .runconfig import TrainConfig
from .tensor import (
    Tape,
    Tensor,
    add,
    add_norm,
    attention,
    backward,
    embedding_lookup,
    ffn,
    linear,
    lstm_scan,
    mul,
    prefix,
    slice_,
    sum_,
)
from .trainer import build_model

FD_STEP = 1e-5
REPROBE_STEPS = (1e-6, 1e-7)
OP_TOLERANCE = 1e-6
NETWORK_TOLERANCE = 1e-4
_REL_FLOOR = 1e-6


def relative_error(analytic: float, numeric: float) -> float:
    """inf when either value is not finite, so no max() over errors drops it."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
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


def _projected_backward(forward, inputs: list[Tensor], rng: np.random.Generator):
    """The inputs' gradients of a random scalar projection of forward(),
    and the projection's weights."""
    with Tape() as tape:
        out = forward()
        weights = Tensor(rng.normal(size=out.shape))
        loss = sum_(mul(out, weights))
    backward(tape, loss)
    return [t.grad for t in inputs], weights.data


def check_op(forward, inputs: list[Tensor], rng: np.random.Generator) -> float:
    """Max relative error of d(projection of forward())/d(inputs)."""
    grads, weights = _projected_backward(forward, inputs, rng)
    return _fd_max_rel(lambda: float((forward().data * weights).sum()), inputs, grads)


def _check_scan(forward, inputs: list[Tensor], rng: np.random.Generator,
                reverse: bool) -> float:
    """check_op on a catalog entry `lstm_scan(x, _SCAN_LENGTHS, [(w_x, w_h,
    b, reverse)])`, with the same errors. x is perturbed call by call. The
    +- perturbation of each weight coordinate, in check_op's order, is
    direction 2m or 2m + 1 of one scan; each direction's block of the
    output, copied C-contiguous and projected, is the product a lone call
    gives, so it sums to the same float."""
    grads, weights = _projected_backward(forward, inputs, rng)
    x, *params = inputs
    worst = _fd_max_rel(lambda: float((forward().data * weights).sum()), [x], grads[:1])
    directions = []
    for p in params:
        for j in range(p.size):
            for step in (FD_STEP, -FD_STEP):
                moved = p.data.copy()
                moved.flat[j] += step  # kept + step, and kept - step, as _shifted sets them
                directions.append((*(Tensor(moved if q is p else q.data) for q in params),
                                   reverse))
    out = lstm_scan(x, _SCAN_LENGTHS, directions).data
    blocks = out.reshape(x.shape[0], len(directions), -1).swapaxes(0, 1)
    products = np.ascontiguousarray(blocks) * weights
    analytic = np.concatenate([g.reshape(-1) for g in grads[1:]])
    for g, up, down in zip(analytic, products[0::2], products[1::2]):
        numeric = (float(up.sum()) - float(down.sum())) / (2.0 * FD_STEP)
        worst = max(worst, relative_error(g, numeric))
    return worst


def _uniform(*shape, low=-1.0, high=1.0):
    return lambda rng: rng.uniform(low, high, size=shape)


def _kinkless(*shape):
    """Values of either sign at least 0.5 away from zero."""
    return lambda rng: rng.uniform(0.5, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


# unsorted lengths from 1 to the full length, so the packing permutation is checked
_SCAN_LENGTHS = np.array([2, 4, 1])
_SCAN_INPUTS = (_uniform(3, 4, 3), _uniform(3, 8), _uniform(2, 8), _uniform(8))
# two heads of width 2; the second row's last key is padding
_ATTENTION_BIAS = np.where(np.arange(3) < np.array([[3], [2]]), 0.0, MASK_BIAS)[:, None, None, :]
_ADD_NORM_INPUTS = (_uniform(2, 3, 4), _uniform(2, 3, 4), _uniform(4, low=0.5, high=1.5),
                    _uniform(4))
# |x @ w1| <= 0.4 and |b1| >= 0.5 keep every hidden pre-activation off the ReLU kink
_FFN_INPUTS = (_uniform(2, 2, 4), _uniform(4, 5, low=-0.1, high=0.1), _kinkless(5),
               _uniform(5, 3), _uniform(3))

# (name, input draws, op): each draw maps a generator to one input array,
# kept away from kinks, and op maps the input tensors to the output
OP_CATALOG = (
    ("add", (_uniform(2, 5), _uniform(5)), add),
    ("mul", (_uniform(2, 5), _uniform(2, 1)), mul),
    ("cross_entropy", (_uniform(4, 5, low=-2.0, high=2.0),),
     lambda logits: cross_entropy(logits, np.array([1, 4, -1, 0]))),
    ("total_loss", (_uniform(), _uniform(), _uniform()),
     lambda *parts: total_loss(*parts, LossWeights(0.5, 0.3, 0.2))),
    ("add_norm", _ADD_NORM_INPUTS, partial(add_norm, rate=0.0, rng=None)),
    # a generator built afresh per call draws the same mask every time
    ("add_norm_dropout", _ADD_NORM_INPUTS,
     lambda *a: add_norm(*a, 0.3, np.random.Generator(np.random.PCG64(0)))),
    ("embedding_lookup", (_uniform(7, 4),),
     lambda table: embedding_lookup(table, np.array([[0, 3, 6], [2, 2, 5]]))),
    ("slice", (_uniform(4, 5, 6),), lambda a: slice_(a, (slice(None), 2, slice(1, 4)))),
    ("sum", (_uniform(3, 4, 5),), partial(sum_, axis=1)),
    # a 2-slot prompt ahead of a 3-slot text, and over a previous prompt
    ("prefix", (_uniform(2, 4), _uniform(3, 3, 4)), partial(prefix, skip=0)),
    ("prefix_overwrite", (_uniform(2, 4), _uniform(3, 5, 4)), partial(prefix, skip=2)),
    # the check runs their weight perturbations in lockstep (_check_scan)
    ("lstm_scan", _SCAN_INPUTS, lambda x, *w: lstm_scan(x, _SCAN_LENGTHS, [(*w, False)])),
    ("lstm_scan_reverse", _SCAN_INPUTS,
     lambda x, *w: lstm_scan(x, _SCAN_LENGTHS, [(*w, True)])),
    ("linear", (_uniform(2, 3, 4), _uniform(4, 5), _uniform(5)), linear),
    ("linear_2d", (_uniform(3, 4), _uniform(4, 2)), linear),
    ("linear_no_bias", (_uniform(2, 3, 4), _uniform(4, 3)), linear),
    ("ffn", _FFN_INPUTS, ffn),
    ("attention", (_uniform(2, 3, 12),), lambda qkv: attention(qkv, _ATTENTION_BIAS, 2)),
    # only the first query row attends, as in a linear-head model's last layer;
    # K's gradient scales with that one row of Q, so no entry is drawn near 0
    ("attention_first_query", (_kinkless(2, 3, 12),),
     lambda qkv: attention(qkv, _ATTENTION_BIAS, 2, queries=1)),
)


def _op_catalog(seed: int):
    """(name, inputs, forward, rng) for every OP_CATALOG entry. Each entry
    draws its inputs, and then its check's projection weights, from its own
    generator seeded with the check seed and its name, so an entry's numbers
    depend on nothing else in the catalog."""
    catalog = []
    for name, draws, op in OP_CATALOG:
        rng = np.random.Generator(np.random.PCG64([seed, *name.encode()]))
        inputs = [Tensor(draw(rng)) for draw in draws]
        catalog.append((name, inputs, partial(op, *inputs), rng))
    return catalog


class OpErrors(dict):
    """The max relative error of each catalog op, by name; `coordinates`
    counts the input coordinates their checks perturbed."""

    def __init__(self, errors: dict[str, float], coordinates: int):
        super().__init__(errors)
        self.coordinates = coordinates


# the catalog's one-direction scans, by name, and whether each runs in reverse
_SCANS = {"lstm_scan": False, "lstm_scan_reverse": True}


def check_all_ops(seed: int = 0) -> OpErrors:
    catalog = _op_catalog(seed)
    errors = {}
    for name, inputs, forward, rng in catalog:
        check = partial(_check_scan, reverse=_SCANS[name]) if name in _SCANS else check_op
        errors[name] = check(forward, inputs, rng)
    return OpErrors(errors, sum(t.size for _, inputs, _, _ in catalog for t in inputs))


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
    model = build_model(cfg, vocab)
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
    whose gap is at least its error is tried again at the next step. An
    infinite error (a value that is not finite) is final: no step mends it."""
    tries = []
    for step in (FD_STEP,) + REPROBE_STEPS:
        up, down = _shifted(loss_fn, flat, j, step)
        numeric = (up - down) / (2.0 * step)
        err = relative_error(analytic, numeric)
        tries.append((step, err))
        gap = abs(up - 2.0 * base + down) / step
        if err < NETWORK_TOLERANCE or err == math.inf or gap < abs(numeric - analytic):
            break
    return tries


def _probe_losses(model, batch, compute_loss):
    """Run the probe loss on a tape, and backward. Return its value and, per
    parameter name, the loss as a function of the parameters, staged (above)."""
    weights = TINY_CONFIG.loss_weights
    layer_inputs: list[Tensor] = []
    with Tape() as tape:
        shared, lengths = model.encode_batch(batch, layer_inputs=layer_inputs)
        states = model.read(shared, lengths)
        parts = {task: cross_entropy(model.classify(states, task), batch.labels[task])
                 for task in TASKS}
        loss = total_loss(*parts.values(), weights)
    backward(tape, loss)
    attn_bias = attention_bias(model.bank, layer_inputs[0], lengths)
    queries = model.heads[TASKS[0]].reads

    def loss_from(read: Tensor, tasks=TASKS) -> float:
        """The total with the parts of `tasks` classified from `read`."""
        new = {task: cross_entropy(model.classify(read, task), batch.labels[task])
               for task in tasks}
        return total_loss(*{**parts, **new}.values(), weights).item()

    def from_layer(start: int) -> float:
        x = layer_inputs[start]
        for i in range(start, len(layer_inputs)):
            x = encode_layer(model.encoder, model.bank, i, x, attn_bias, queries=queries)
        return loss_from(model.read(x, lengths))

    def from_lstm(task: str) -> float:
        block = BiLstmFfnHead.bilstm([model.heads[task]], shared, lengths).data
        spliced = states.data.copy()
        width = block.shape[1]
        column = TASKS.index(task) * width
        spliced[:, column:column + width] = block
        return loss_from(Tensor(spliced), (task,))

    def staged(name: str):
        group = _group_of(name)
        if group.startswith("head_"):
            task = group.removeprefix("head_")
            if name.startswith(f"{group}.lstm_"):
                return partial(from_lstm, task)
            return partial(loss_from, states, (task,))
        layer = name.removeprefix("prompt.").split(".")[0]  # prompt.layer<i> enters layer i
        if layer.startswith("layer"):
            return partial(from_layer, int(layer.removeprefix("layer")))
        return lambda: compute_loss().item()

    return loss.item(), {name: staged(name) for name in model.parameters()}


def check_network(n_probes: int, seed: int = 0,
                  reprobes: list[str] | None = None) -> dict[str, float]:
    """Probe random parameter coordinates of the composed network.

    Probe i perturbs parameter i modulo the parameter count, in creation
    order, at a random coordinate: n probes reach only the first min(n,
    count) parameters. Returns the max relative error per top-level group;
    a line per re-probe (see _network_probe) goes to `reprobes`.
    """
    model, batch, compute_loss = build_probe_setup()
    params = list(model.parameters().values())
    rng = np.random.Generator(np.random.PCG64(seed))
    base, loss_fns = _probe_losses(model, batch, compute_loss)

    worst: dict[str, float] = {}
    for i in range(n_probes):
        p = params[i % len(params)]
        j = int(rng.integers(p.size))
        analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[j]
        tries = _network_probe(loss_fns[p.name], base, p.data.reshape(-1), j, analytic)
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
    if seed < 0:
        raise ConfigError(f"gradcheck seed must be non-negative, got {seed}")
    op_errors = check_all_ops(seed)
    reprobes: list[str] = []
    network_errors = check_network(n_probes, seed, reprobes)
    return GradcheckReport(op_errors, network_errors, n_probes + op_errors.coordinates, reprobes)

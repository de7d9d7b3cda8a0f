"""Complex-step verification of analytic gradients.

Two levels: every primitive op against a random scalar projection of its
output, and the composed network loss probed at randomly sampled parameter
coordinates. Each moves one coordinate of complex128 data by i*STEP and
takes Im(output) / STEP as the reference derivative (Squire & Trapp 1998):
no difference is taken, so there is no round-off, and a ReLU picks its
branch by the real part, so no move crosses a kink. Every input of a
complex call is complex: a float buffer refuses a complex addend. Relative
error uses a small floor in the denominator so coordinates whose true
gradient is ~0 are judged by absolute error instead.

Neither level repeats work the reference does not need. Each op catalog
entry names how its inputs' moved copies run: as the copies of one call
wherever the op gives each copy the bytes a lone call gives it (_stacked;
an LSTM entry's as the directions of one scan, _scan_moves), else one call
per copy. Every coordinate's output goes to one judgement (_numeric), so
every derivative is the per-coordinate loop's, bit for bit.

The network check tapes the float loss for the analytic gradient, then
holds every parameter complex while its probes run. Every probe is drawn
first, and the moved losses of each cycle through the parameters run as
one batch. A probe resumes at the first stage that reads its parameter,
told by its name, on what one untaped complex base pass kept: for
`layer<i>.*` and `prompt.layer<i>` encoder layer i on its kept input, then
the rest of the stack; one read of all those encoder outputs (for Bi-LSTM
heads, one lockstep scan of every head's directions over each); then every
classify and loss. For `head_<task>.lstm_*` its moved direction over the
kept encoder output, all of them as one scan, spliced into a copy of the
kept states, then that task's classify and loss; for any other
`head_<task>.*` that classify and loss on the kept states; for an
embedding a full forward. The total adds the kept losses of the other
tasks as always. Every op gets the bytes a full complex forward gives it
and returns the same values (each direction of a lockstep scan is bit for
bit a lone scan of it, over the same rows), so every loss is the full
forward's, bit for bit. No probe forward draws dropout, so every stage
sees what the base pass saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import TASKS, Example, build_vocab, make_batches
from .encoder import MASK_BIAS, attention_bias, encode_layer
from .errors import ConfigError
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

STEP = 1e-30  # Im f(x + i STEP) / STEP is f'(x) to O(STEP^2): no round-off to weigh
OP_TOLERANCE = 1e-6
NETWORK_TOLERANCE = 1e-4
_REL_FLOOR = 1e-6


def relative_error(analytic: float, numeric: float) -> float:
    """inf when either value is not finite, so no max() over errors drops it."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)


def _numeric(outs: np.ndarray, weights: np.ndarray) -> list[float]:
    """The complex-step derivative of each coordinate m, Im(projection of
    outs[m]) / STEP, from the op's output with it moved by i*STEP: the one
    place the op check takes a derivative, however the outputs were run.
    One multiply projects every output's imaginary part, and each output's
    C-contiguous block is summed alone, to the float a lone output's
    projection sums to."""
    return [float(p.sum()) / STEP for p in np.multiply(outs.imag, weights, order="C")]


def _moved_copies(a: np.ndarray) -> np.ndarray:
    """One copy of the complex array `a` per coordinate, on a new axis 0:
    copy j with coordinate j moved by i*STEP."""
    flat = a.reshape(-1)
    j = np.arange(flat.size)
    copies = np.repeat(flat[None], flat.size, axis=0)
    copies[j, j] += STEP * 1j
    return copies.reshape((-1,) + a.shape)


def _stacked(stacks: dict[int, tuple[int, ...]], op, inputs: list[Tensor],
             out: np.ndarray) -> list[np.ndarray]:
    """Each input's outputs of `op(*inputs)`, whose output is `out`, with
    each of its coordinates moved (_moved_copies), on a new axis 0. For each
    input i in `stacks` the copies are the rows of one call, one after
    another on the leading batch axis, with the inputs stacks[i] tiled to
    match: the op gives each copy its lone call's bytes. Every other input
    goes one call per copy."""
    moved = []
    for i, t in enumerate(inputs):
        copies = _moved_copies(t.data)
        if i not in stacks:
            moved.append(np.array([op(*inputs[:i], Tensor(c), *inputs[i + 1:]).data
                                   for c in copies]))
            continue
        args = [Tensor(copies.reshape((-1,) + t.shape[1:])) if m == i
                else Tensor(np.concatenate([u.data] * len(copies))) if m in stacks[i] else u
                for m, u in enumerate(inputs)]
        moved.append(op(*args).data.reshape(copies.shape[:1] + out.shape))
    return moved


# every input one call per copy: a weight, bias or gain, which every copy
# would share, a table, a loss's inputs, whose output sums over rows, and
# add_norm_dropout's, since a larger call draws another mask
_PER_COPY = partial(_stacked, {})
# the first input stacked, the rest one call per copy
_FIRST_STACKED = partial(_stacked, {0: ()})


def _scan_moves(reverse: bool, op, inputs: list[Tensor], out: np.ndarray) -> list[np.ndarray]:
    """Each input's moved outputs, as _stacked gives them, for an entry
    `lstm_scan(_SCAN_LENGTHS, [(x, w_x, w_h, b, reverse)])`: the move of
    each coordinate of each input, in order, is one direction of one scan,
    which reads its own copy of x where x is moved (_moved_copies). Every
    direction steps the lone call's rows, so its states are bit for bit
    the lone call's output."""
    x, *params = inputs
    directions = [(Tensor(c), *params, reverse) for c in _moved_copies(x.data)]
    directions += [(x, *(Tensor(c) if q is p else q for q in params), reverse)
                   for p in params for c in _moved_copies(p.data)]
    blocks = lstm_scan(_SCAN_LENGTHS, directions).data.reshape(len(out), len(directions), -1)
    return np.split(blocks.swapaxes(0, 1), np.cumsum([t.size for t in inputs])[:-1])


def check_op(op, inputs: list[Tensor], rng: np.random.Generator, moves=_PER_COPY) -> float:
    """Max relative error of d(projection of op(*inputs))/d(inputs), the
    projection's weights random. `moves` maps (op, the inputs as complex
    tensors, the op's output) to each input's outputs with each coordinate
    m moved by i*STEP, outs[m]."""
    with Tape() as tape:
        out = op(*inputs)
        weights = rng.normal(size=out.shape)
        loss = sum_(mul(out, Tensor(weights)))
    backward(tape, loss)
    complex_inputs = [Tensor(t.data.astype(np.complex128)) for t in inputs]
    worst = 0.0
    for t, outs in zip(inputs, moves(op, complex_inputs, out.data)):
        analytic = np.zeros(t.size) if t.grad is None else t.grad.reshape(-1)
        for a, numeric in zip(analytic, _numeric(outs, weights)):
            worst = max(worst, relative_error(a, numeric))
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


def _attention(qkv: Tensor, queries: int | None = None) -> Tensor:
    """attention over one or more copies of a 2-row qkv stacked on axis 0,
    _ATTENTION_BIAS tiled to match."""
    bias = np.concatenate([_ATTENTION_BIAS] * (qkv.shape[0] // 2))
    return attention(qkv, bias, 2, queries=queries)


_ADD_NORM_INPUTS = (_uniform(2, 3, 4), _uniform(2, 3, 4), _uniform(4, low=0.5, high=1.5),
                    _uniform(4))
_DROPOUT_RNG = np.random.Generator(np.random.PCG64(0))
_DROPOUT_START = _DROPOUT_RNG.bit_generator.state


def _add_norm_dropout(*inputs: Tensor) -> Tensor:
    """add_norm at rate 0.3 with the same mask on every call: the one
    generator is reset to PCG64(0)'s first state before each."""
    _DROPOUT_RNG.bit_generator.state = _DROPOUT_START
    return add_norm(*inputs, 0.3, _DROPOUT_RNG)


# |x @ w1| <= 0.4 and |b1| >= 0.5 keep every hidden pre-activation off the ReLU kink
_FFN_INPUTS = (_uniform(2, 2, 4), _uniform(4, 5, low=-0.1, high=0.1), _kinkless(5),
               _uniform(5, 3), _uniform(3))

# (name, input draws, op, moves): each draw maps a generator to one input
# array, kept away from kinks; op maps the input tensors to the output, and
# moves runs the inputs' moved copies (check_op)
OP_CATALOG = (
    ("add", (_uniform(2, 5), _uniform(5)), add, _FIRST_STACKED),
    ("mul", (_uniform(2, 5), _uniform(2, 1)), mul, partial(_stacked, {0: (1,), 1: (0,)})),
    ("cross_entropy", (_uniform(4, 5, low=-2.0, high=2.0),),
     lambda logits: cross_entropy(logits, np.array([1, 4, -1, 0])), _PER_COPY),
    ("total_loss", (_uniform(), _uniform(), _uniform()),
     lambda *parts: total_loss(*parts, LossWeights(0.5, 0.3, 0.2)), _PER_COPY),
    ("add_norm", _ADD_NORM_INPUTS, partial(add_norm, rate=0.0, rng=None),
     partial(_stacked, {0: (1,), 1: (0,)})),
    ("add_norm_dropout", _ADD_NORM_INPUTS, _add_norm_dropout, _PER_COPY),
    ("embedding_lookup", (_uniform(7, 4),),
     lambda table: embedding_lookup(table, np.array([[0, 3, 6], [2, 2, 5]])), _PER_COPY),
    ("slice", (_uniform(4, 5, 6),), lambda a: slice_(a, (slice(None), 2, slice(1, 4))),
     _FIRST_STACKED),
    ("sum", (_uniform(3, 4, 5),), partial(sum_, axis=1), _FIRST_STACKED),
    # a 2-slot prompt ahead of a 3-slot text, and over a previous prompt
    ("prefix", (_uniform(2, 4), _uniform(3, 3, 4)), partial(prefix, skip=0),
     partial(_stacked, {1: ()})),
    ("prefix_overwrite", (_uniform(2, 4), _uniform(3, 5, 4)), partial(prefix, skip=2),
     partial(_stacked, {1: ()})),
    ("lstm_scan", _SCAN_INPUTS, lambda *x_w: lstm_scan(_SCAN_LENGTHS, [(*x_w, False)]),
     partial(_scan_moves, False)),
    ("lstm_scan_reverse", _SCAN_INPUTS, lambda *x_w: lstm_scan(_SCAN_LENGTHS, [(*x_w, True)]),
     partial(_scan_moves, True)),
    ("linear", (_uniform(2, 3, 4), _uniform(4, 5), _uniform(5)), linear, _FIRST_STACKED),
    ("linear_2d", (_uniform(3, 4), _uniform(4, 2)), linear, _FIRST_STACKED),
    ("linear_no_bias", (_uniform(2, 3, 4), _uniform(4, 3)), linear, _FIRST_STACKED),
    ("ffn", _FFN_INPUTS, ffn, _FIRST_STACKED),
    ("attention", (_uniform(2, 3, 12),), _attention, _FIRST_STACKED),
    # only the first query row attends, as in a linear-head model's last layer;
    # K's gradient scales with that one row of Q, so no entry is drawn near 0
    ("attention_first_query", (_kinkless(2, 3, 12),), partial(_attention, queries=1),
     _FIRST_STACKED),
)


def _op_catalog(seed: int):
    """(name, op, inputs, rng, moves) for every OP_CATALOG entry. Each entry
    draws its inputs, and then its check's projection weights, from its own
    generator seeded with the check seed and its name, so an entry's numbers
    depend on nothing else in the catalog."""
    catalog = []
    for name, draws, op, moves in OP_CATALOG:
        rng = np.random.Generator(np.random.PCG64([seed, *name.encode()]))
        catalog.append((name, op, [Tensor(draw(rng)) for draw in draws], rng, moves))
    return catalog


class OpErrors(dict):
    """The max relative error of each catalog op, by name; `coordinates`
    counts the input coordinates their checks moved."""

    def __init__(self, errors: dict[str, float], coordinates: int):
        super().__init__(errors)
        self.coordinates = coordinates


def check_all_ops(seed: int = 0) -> OpErrors:
    catalog = _op_catalog(seed)
    return OpErrors({name: check_op(*check) for name, *check in catalog},
                    sum(t.size for _, _, inputs, _, _ in catalog for t in inputs))


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


def _moved(p: Tensor, j: int, fn):
    """fn() with p's flat coordinate j moved by i*STEP; the coordinate is restored."""
    flat = p.data.reshape(-1)
    kept = flat[j]
    flat[j] = kept + STEP * 1j
    try:
        return fn()
    finally:
        flat[j] = kept


def _probe_losses(model, batch, compute_loss):
    """The probe loss as a function of moved coordinates, staged (above),
    on the model's parameters, which must be complex: losses(copies) gives,
    for each copy (parameter, flat index), the complex loss with that one
    coordinate moved by i*STEP. The kept stage inputs come from one untaped
    pass."""
    weights = TINY_CONFIG.loss_weights
    layer_inputs: list[Tensor] = []
    shared, lengths = model.encode_batch(batch, layer_inputs=layer_inputs)
    states = model.read(shared, lengths)
    parts = {task: cross_entropy(model.classify(states, task), batch.labels[task])
             for task in TASKS}
    attn_bias = attention_bias(model.bank, layer_inputs[0], lengths)
    queries = model.heads[TASKS[0]].reads

    def loss_from(read: Tensor, tasks=TASKS) -> complex:
        """The total with the parts of `tasks` classified from `read`."""
        new = {task: cross_entropy(model.classify(read, task), batch.labels[task])
               for task in tasks}
        return complex(total_loss(*{**parts, **new}.values(), weights).data)

    def encoded(start: int) -> Tensor:
        """The encoder output from layer `start` on."""
        x = layer_inputs[start]
        for i in range(start, len(layer_inputs)):
            x = encode_layer(model.encoder, model.bank, i, x, attn_bias, queries=queries)
        return x

    def stage(p: Tensor):
        """(task, the head's Bi-LSTM direction index or None) for a head's
        parameter; (None, the first encoder layer that reads it, None for
        an embedding) for any other."""
        group = _group_of(p.name)
        if group.startswith("head_"):
            task = group.removeprefix("head_")
            if not p.name.startswith(f"{group}.lstm_"):
                return task, None
            return task, next(s for s, d in enumerate(model.heads[task].directions)
                              if any(w is p for w in d[:3]))
        layer = p.name.removeprefix("prompt.").split(".")[0]  # prompt.layer<i> enters layer i
        return None, int(layer.removeprefix("layer")) if layer.startswith("layer") else None

    def losses(copies) -> list[complex]:
        """Each copy's full forward, encoder output, or Bi-LSTM direction
        with its moved weight, is run first; then one read of all the
        outputs, one scan of all the directions over the kept encoder
        output, and each copy's classify and loss in order."""
        stages = [stage(p) for p, _ in copies]
        forwards, outputs, directions = [], [], []
        for (p, j), (task, where) in zip(copies, stages):
            if task is None and where is None:
                forwards.append(_moved(p, j, lambda: complex(compute_loss().data)))
            elif task is None:
                outputs.append(_moved(p, j, partial(encoded, where)))
            elif where is not None:
                moved = p.data.copy()
                moved.reshape(-1)[j] += STEP * 1j
                direction = model.heads[task].directions[where]
                directions.append((shared, *(Tensor(moved) if w is p else w for w in direction)))
        forwards = iter(forwards)
        reads = iter(model.read_each(outputs, lengths) if outputs else ())
        if directions:
            scanned = lstm_scan(lengths, directions).data
            h = scanned.shape[1] // len(directions)
            blocks = iter(scanned.reshape(len(scanned), len(directions), h).swapaxes(0, 1))
        result = []
        for (p, j), (task, where) in zip(copies, stages):
            if task is None:
                result.append(next(forwards) if where is None else loss_from(next(reads)))
            elif where is not None:
                spliced = states.data.copy()  # head j's [forward | backward] is block j
                column = (2 * TASKS.index(task) + where) * h
                spliced[:, column:column + h] = next(blocks)
                result.append(loss_from(Tensor(spliced), (task,)))
            else:
                result.append(_moved(p, j, partial(loss_from, states, (task,))))
        return result

    return losses


def check_network(n_probes: int, seed: int = 0) -> dict[str, float]:
    """Probe random parameter coordinates of the composed network.

    Probe i moves parameter i modulo the parameter count, in creation
    order, at a random coordinate: n probes reach only the first min(n,
    count) parameters. Every probe is drawn first, and a taped float pass
    gives the analytic gradient. Then every parameter is held complex, and
    its float array is restored however the probes end; the moved losses
    of each cycle through the parameters run as one batch (_probe_losses),
    so the batch's memory does not grow with n. Returns the max relative
    error per top-level group.
    """
    model, batch, compute_loss = build_probe_setup()
    params = list(model.parameters().values())
    rng = np.random.Generator(np.random.PCG64(seed))
    probes = []
    for i in range(n_probes):
        p = params[i % len(params)]
        probes.append((p, int(rng.integers(p.size))))
    with Tape() as tape:
        loss = compute_loss()
    backward(tape, loss)
    floats = [p.data for p in params]
    try:
        for p in params:
            p.data = p.data.astype(np.complex128)
        losses = _probe_losses(model, batch, compute_loss)
        moved = [loss for cycle in range(0, n_probes, len(params))
                 for loss in losses(probes[cycle:cycle + len(params)])]
    finally:
        for p, data in zip(params, floats):
            p.data = data
    worst: dict[str, float] = {}
    for (p, j), loss in zip(probes, moved):
        analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[j]
        group = _group_of(p.name)
        worst[group] = max(worst.get(group, 0.0), relative_error(analytic, loss.imag / STEP))
    return worst


@dataclass
class GradcheckReport:
    op_errors: dict[str, float]
    network_errors: dict[str, float]
    probes: int

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
        out.append(f"probes {self.probes}  result {'PASS' if self.passed else 'FAIL'}")
        return out


def run_gradcheck(n_probes: int = 200, seed: int = 0) -> GradcheckReport:
    if n_probes < 1:
        raise ConfigError(f"gradcheck needs at least one network probe, got {n_probes}")
    if seed < 0:
        raise ConfigError(f"gradcheck seed must be non-negative, got {seed}")
    op_errors = check_all_ops(seed)
    return GradcheckReport(op_errors, check_network(n_probes, seed),
                           n_probes + op_errors.coordinates)

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
entry names how its inputs' moved copies run: as the rows of one call,
stacked on the batch axis, wherever the op gives each copy a lone call's
bytes (_stacked; an LSTM entry's weight copies as the directions of one
scan, _scan_moves), else one call per copy. One judgement (_numeric) sums
every coordinate's projection of an input in one pass, and one
relative_error over arrays serves both levels.

The network check tapes the float loss for the analytic gradient, then
holds every parameter complex while its probes run. Every probe is drawn
first, and the moved losses of each cycle through the parameters run as
one batch. A probe runs alone only through the first stage that reads its
parameter, told by its name, on what one untaped complex base pass kept.
For `layer<i>.*` and `prompt.layer<i>` that is encoder layer i on its kept
input; then every such copy runs each later layer, the heads' read and
each classify as one call, stacked on the batch axis, and its loss alone
on its own rows. For `head_<task>.lstm_*` it is its moved direction over
the kept encoder output, all of them as one scan, spliced into a copy of
the kept states, then that task's classify and loss; for any other
`head_<task>.*` that classify and loss; for an embedding a full forward.
The total adds the kept losses of the other tasks.

So every op gets the bytes a full complex forward gives it, and every loss
is the full forward's, bit for bit: each direction of a lockstep scan is a
lone scan of it, and a stacked copy gets its lone call's bytes because its
data is complex (stacked float64 GEMM rows can round otherwise) and the
probe batch's longest length, like _SCAN_LENGTHS', is shared (a scan step
with one live row would run a one-row GEMM, which rounds otherwise). No
probe forward draws dropout, so every stage sees what the base pass saw.
"""

from __future__ import annotations

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


def relative_error(analytic, numeric) -> np.ndarray:
    """Each pair's |analytic - numeric| / max(|analytic|, |numeric|, floor),
    elementwise over arrays (a float64 scalar for scalars); inf where either
    value is not finite, so no max() over errors drops it."""
    a, n = np.asarray(analytic, np.float64), np.asarray(numeric, np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # the non-finite pairs become inf
        error = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), _REL_FLOOR)
    return np.where(np.isfinite(a) & np.isfinite(n), error, np.inf)[()]


def _numeric(outs: np.ndarray, weights: np.ndarray) -> list[float]:
    """The complex-step derivative of each coordinate m, Im(projection of
    outs[m]) / STEP, from the op's output with it moved by i*STEP: the one
    place the op check takes a derivative, however the outputs were run.
    One multiply projects every output's imaginary part into C-contiguous
    rows, one per output, and one sum along the rows gives each the float a
    lone output's projection sums to."""
    products = np.multiply(outs.imag, weights, order="C").reshape(len(outs), -1)
    return (products.sum(axis=1) / STEP).tolist()


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
    `_scan(reverse, x, w_x, w_h, b)`: x's copies as the rows of one call,
    and the move of each weight coordinate, in order, as one direction of
    one scan over x. Each direction steps the lone call's rows, so its
    states are bit for bit the lone call's output."""
    x, *params = inputs
    directions = [(*(Tensor(c) if q is p else q for q in params), reverse)
                  for p in params for c in _moved_copies(p.data)]
    moved_x = _stacked({0: ()}, lambda stacked: op(stacked, *params), [x], out)
    blocks = lstm_scan(x, _SCAN_LENGTHS, directions).data.reshape(len(out), len(directions), -1)
    return moved_x + np.split(blocks.swapaxes(0, 1), np.cumsum([p.size for p in params])[:-1])


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
        worst = max(worst, float(relative_error(analytic, _numeric(outs, weights)).max()))
    return worst


def _uniform(*shape, low=-1.0, high=1.0):
    return lambda rng: rng.uniform(low, high, size=shape)


def _kinkless(*shape):
    """Values of either sign at least 0.5 away from zero."""
    return lambda rng: rng.uniform(0.5, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


# unsorted lengths from 1 to the full length, so the packing permutation is
# checked; two rows share the longest, so stacked copies get their lone bits
_SCAN_LENGTHS = np.array([4, 1, 4])
_SCAN_INPUTS = (_uniform(3, 4, 3), _uniform(3, 8), _uniform(2, 8), _uniform(8))


def _scan(reverse: bool, x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """One LSTM direction over one or more copies of a 3-row x stacked on
    axis 0, _SCAN_LENGTHS tiled to match."""
    return lstm_scan(x, np.tile(_SCAN_LENGTHS, len(x.data) // 3), [(w_x, w_h, b, reverse)])


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
    ("lstm_scan", _SCAN_INPUTS, partial(_scan, False), partial(_scan_moves, False)),
    ("lstm_scan_reverse", _SCAN_INPUTS, partial(_scan, True), partial(_scan_moves, True)),
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
    Example("probe2", "awful loser show today walk", "OFF", "UNT"),
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

    def total(logits: dict[str, np.ndarray]) -> complex:
        """The total, the parts of the tasks in `logits` taken from them."""
        new = {task: cross_entropy(Tensor(z), batch.labels[task]) for task, z in logits.items()}
        return complex(total_loss(*{**parts, **new}.values(), weights).data)

    def run_layer(i: int, x: Tensor, copies: int) -> Tensor:
        """Encoder layer i over `copies` inputs stacked on the batch axis."""
        bias = np.concatenate([attn_bias] * copies)
        return encode_layer(model.encoder, model.bank, i, x, bias, queries=queries)

    def encoded(copies, starts: dict[int, int]) -> tuple[Tensor, list[int]]:
        """The encoder outputs of copies (parameter, flat index), stacked on
        the batch axis, and the order of their indices in the stack. Copy c
        runs alone through layer starts[c], the first that reads its moved
        coordinate; each later layer runs once over all that passed theirs."""
        x, order = None, []
        for i, kept in enumerate(layer_inputs):
            if order:
                x = run_layer(i, x, len(order))
            alone = [c for c, start in starts.items() if start == i]
            outputs = [_moved(*copies[c], partial(run_layer, i, kept, 1)).data for c in alone]
            if outputs:
                x = Tensor(np.concatenate(([x.data] if order else []) + outputs))
                order += alone
        return x, order

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
        """Each copy's full forward, first encoder layer, or Bi-LSTM
        direction with its moved weight, is run first. The encoder copies
        then run the rest of the stack, the read and every classify as one
        call each, stacked; the directions one scan over the kept encoder
        output. Each copy's losses come last, on its own rows."""
        stages = [stage(p) for p, _ in copies]
        result: list[complex | None] = [None] * len(copies)
        starts, scanned, directions = {}, [], []
        for c, ((p, j), (task, where)) in enumerate(zip(copies, stages)):
            if task is None and where is None:
                result[c] = _moved(p, j, lambda: complex(compute_loss().data))
            elif task is None:
                starts[c] = where
            elif where is not None:
                moved = p.data.copy()
                moved.reshape(-1)[j] += STEP * 1j
                directions.append(tuple(Tensor(moved) if w is p else w
                                        for w in model.heads[task].directions[where]))
                scanned.append(c)
            else:
                result[c] = _moved(p, j, lambda: total({task: model.classify(states, task).data}))
        if starts:
            x, order = encoded(copies, starts)
            read = model.read(x, np.tile(lengths, len(order)))
            logits = {task: np.split(model.classify(read, task).data, len(order))
                      for task in TASKS}  # one block of rows per copy
            for block, c in enumerate(order):
                result[c] = total({task: z[block] for task, z in logits.items()})
        if scanned:
            h = directions[0][1].shape[0]
            blocks = lstm_scan(shared, lengths, directions).data.reshape(-1, len(directions), h)
            for block, c in enumerate(scanned):
                task, where = stages[c]
                spliced = states.data.copy()  # head j's [forward | backward] is block j
                column = (2 * TASKS.index(task) + where) * h
                spliced[:, column:column + h] = blocks[:, block]
                result[c] = total({task: model.classify(Tensor(spliced), task).data})
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
    probes = [(p, int(rng.integers(p.size)))
              for p in (params[i % len(params)] for i in range(n_probes))]
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
    analytic = [0.0 if p.grad is None else p.grad.reshape(-1)[j] for p, j in probes]
    errors = relative_error(analytic, np.array([loss.imag for loss in moved]) / STEP)
    worst: dict[str, float] = {}
    for (p, _), error in zip(probes, errors.tolist()):
        group = _group_of(p.name)
        worst[group] = max(worst.get(group, 0.0), error)
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

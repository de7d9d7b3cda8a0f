"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops executed while a Tape is active are recorded in execution order, which
is already a topological order of the graph. backward() consumes the tape:
it replays the entries in reverse, visiting each recorded op once, and
releases each entry, with the arrays its op saved and its output's
gradient, as soon as the entry's backward has run. Afterwards only leaves
(tensors no entry produced: parameters and caller-made inputs) hold a
.grad, so a step's memory falls back to its weights and their gradients
once backward returns. Leaf gradients accumulate additively across tapes
and are only cleared explicitly (see Adam.zero_grad); a consumed tape
cannot be replayed.

Data is float64 everywhere. Only the gradient check's complex-step passes
run the ops' forwards on complex128, which a Tensor keeps; no backward
sees it. Ops save what their backward reads and no more. Every op takes
Tensors. The loss ops live in dpmn.losses; the unfused ops, log_softmax
among them, in tests/reference_ops.py.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError, EmbeddingIndexError, ShapeError

_active_tape = None

INIT_STD = 0.02  # BERT-style initializer scale
LAYER_NORM_EPS = 1e-12


class Tensor:
    """N-dimensional float64 value with an optional gradient slot; a
    complex128 array (the gradient check's) stays complex."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        data = np.asarray(data)
        self.data = data if data.dtype == np.complex128 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{label})"

    # operator sugar; the module-level functions hold the actual logic
    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, idx):
        return slice_(self, idx)


class ParameterStore:
    """Named parameters in creation order; the one place parameters are made.

    A parameter without a fill is a weight matrix and draws
    Normal(0, INIT_STD^2) from `rng`, or from the store's own generator when
    none is given. A fill that is a function of that generator returns the
    values it draws; a constant, or an array broadcast to the shape, draws
    nothing.

    A store given `loaded` arrays (a checkpoint's records) draws nothing at
    all: each parameter adopts, without a copy, the loaded array of its
    name, which must have its shape (`saved_array`). Call `reject_unknown`
    once every parameter exists.
    """

    def __init__(self, rng: np.random.Generator,
                 loaded: dict[str, np.ndarray] | None = None):
        self.rng = rng
        self.loaded = loaded
        self.tensors: dict[str, Tensor] = {}

    def new(self, name: str, shape, fill=None,
            rng: np.random.Generator | None = None) -> Tensor:
        rng = self.rng if rng is None else rng
        if self.loaded is not None:
            values = saved_array(self.loaded, name, shape)
        elif fill is None:
            values = rng.normal(0.0, INIT_STD, size=shape)
        elif callable(fill):
            values = fill(rng)
        else:
            values = np.full(shape, fill, dtype=np.float64)
        t = self.tensors[name] = Tensor(values, name=name)
        return t

    def reject_unknown(self, arrays: dict[str, np.ndarray]) -> None:
        unknown = arrays.keys() - self.tensors.keys()
        if unknown:
            raise ConfigError(f"parameter names do not match: unknown {sorted(unknown)[:3]}")


def saved_array(arrays: dict[str, np.ndarray], name: str, shape) -> np.ndarray:
    """arrays[name], checked to be there and to have `shape`: the name and
    shape check between a model's parameters and a set of saved arrays."""
    values = arrays.get(name)
    if values is None:
        raise ConfigError(f"parameter names do not match: missing {name!r}")
    if np.shape(values) != tuple(shape):
        raise ConfigError(f"shape mismatch for {name!r}: "
                          f"have {tuple(shape)}, got {np.shape(values)}")
    return values


class Tape:
    """Ordered record of executed ops, consumed by one backward().

    Each entry is (output tensor, parent tensors, backward fn); the backward
    fn closes over whatever activations it needs. Node identity is the
    tensor object itself. Use as a context manager around the forward pass.
    len() counts the recorded entries, also after backward() has released
    them.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] | None = []
        self._consumed = 0  # entries a backward() released; 0 until then

    def __len__(self):
        return self._consumed if self._entries is None else len(self._entries)

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise ContractError("a Tape is already active; nesting is not supported")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> None:
    if _active_tape is not None:
        _active_tape._entries.append((out, parents, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # never mutate g in place; it may alias another node's grad
    t.grad = g if t.grad is None else t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dLoss/dx into .grad of every leaf reachable from loss,
    consuming the tape.

    Each entry is released as soon as its backward has run, and its
    output's .grad is reset to None, so only leaves keep a gradient.
    Replaying a consumed tape, or one still recording, raises ContractError.
    """
    entries = tape._entries
    if entries is None:
        raise ContractError("this tape was consumed by an earlier backward")
    if tape is _active_tape:
        raise ContractError("backward needs a closed tape: leave its with block first")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not any(out is loss for out, _, _ in entries):
        raise ContractError("loss was not produced by an op recorded on this tape")
    tape._entries, tape._consumed = None, len(entries)
    _accumulate(loss, np.ones_like(loss.data))
    while entries:
        out, parents, backward_fn = entries.pop()
        g, out.grad = out.grad, None
        if g is not None:  # else not on the path from loss
            for parent, pg in zip(parents, backward_fn(g)):
                if pg is not None:
                    _accumulate(parent, pg)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    _record(out, (a, b), bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from None

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )

    _record(out, (a, b), bw)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., k] @ w [k, n] (+ b [n]) as one flat GEMM and one tape entry."""
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs x [..., k] @ w [k, n], got {x.shape} @ {w.shape}")
    k, n = w.shape
    flat = x.data.reshape(-1, k)
    y = flat @ w.data
    if b is not None:
        if b.shape != (n,):
            raise ShapeError(f"linear bias {b.shape} does not match {n} outputs")
        y += b.data
    out = Tensor(y.reshape(x.shape[:-1] + (n,)))

    def bw(g):
        g2 = g.reshape(-1, n)
        grads = ((g2 @ w.data.T).reshape(x.shape), flat.T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    _record(out, (x, w) if b is None else (x, w, b), bw)
    return out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(relu(linear(x, w1, b1)), w2, b2) for x [..., k], w1 [k, f] and
    w2 [f, n]: two flat GEMMs and one tape entry. The backward keeps only the
    hidden activations and zeroes their gradient where they are not
    positive, which is where the ReLU was off."""
    if (x.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn needs x [..., k], w1 [k, f], b1 [f], w2 [f, n] and b2 [n], got "
                         f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}")
    k, n = w1.shape[0], w2.shape[1]
    flat = x.data.reshape(-1, k)
    hid = flat @ w1.data
    hid += b1.data
    np.maximum(hid, 0.0, out=hid)
    y = hid @ w2.data
    y += b2.data
    out = Tensor(y.reshape(x.shape[:-1] + (n,)))

    def bw(g):
        g2 = g.reshape(-1, n)
        d_hid = g2 @ w2.data.T
        d_hid *= hid > 0  # where the ReLU was on: pre > 0 iff relu(pre) > 0, NaN included
        return ((d_hid @ w1.data.T).reshape(x.shape), flat.T @ d_hid, d_hid.sum(axis=0),
                hid.T @ g2, g2.sum(axis=0))

    _record(out, (x, w1, b1, w2, b2), bw)
    return out


def attention(qkv: Tensor, bias: np.ndarray, num_heads: int,
              queries: int | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over a packed projection.

    qkv [batch, seq, 3d] holds Q, K and V side by side, each split into
    num_heads heads of d / num_heads columns. `bias` is a constant added to
    the scores [batch, heads, queries, seq] before the softmax (a mask).
    Only the first `queries` positions (all of them when None) attend;
    returns their context, heads merged, as [batch, queries, d]. Every key
    and value is read, so K and V get a gradient at every position and Q an
    exact zero past `queries`. One tape entry; the backward is derived by
    hand as in FlashAttention, without tiling.
    """
    if qkv.ndim != 3 or qkv.shape[2] % (3 * num_heads):
        raise ShapeError(f"attention needs qkv [batch, seq, 3d] for {num_heads} heads, "
                         f"got {qkv.shape}")
    batch, seq, width = qkv.shape
    rows = seq if queries is None else queries
    if queries is not None and not 1 <= queries <= seq:
        raise ShapeError(f"attention queries {queries} is outside 1..{seq}")
    d = width // 3
    head_size = d // num_heads
    scale = head_size ** -0.5
    q, k, v = qkv.data.reshape(batch, seq, 3, num_heads, head_size).transpose(2, 0, 3, 1, 4)
    q = q[:, :, :rows]
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    try:
        scores += bias
    except ValueError:
        raise ShapeError(f"attention bias {np.shape(bias)} does not broadcast to "
                         f"scores {scores.shape}") from None
    # the softmax, in place: scores becomes the weights
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = Tensor((weights @ v).transpose(0, 2, 1, 3).reshape(batch, rows, d))

    def bw(g):
        g_context = g.reshape(batch, rows, num_heads, head_size).transpose(0, 2, 1, 3)
        d_qkv = np.empty((3, batch, num_heads, seq, head_size))
        np.matmul(weights.swapaxes(-1, -2), g_context, out=d_qkv[2])
        # d_weights, turned into d_scores in place
        d_scores = g_context @ v.swapaxes(-1, -2)
        d_scores -= (d_scores * weights).sum(axis=-1, keepdims=True)
        d_scores *= weights
        d_scores *= scale
        np.matmul(d_scores, k, out=d_qkv[0, :, :, :rows])
        d_qkv[0, :, :, rows:] = 0.0
        np.matmul(d_scores.swapaxes(-1, -2), q, out=d_qkv[1])
        return (d_qkv.transpose(1, 3, 0, 2, 4).reshape(qkv.shape),)

    _record(out, (qkv,), bw)
    return out


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, rate: float,
             rng: np.random.Generator | None) -> Tensor:
    """layer_norm(x + dropout(y)): the residual sum normalized over the last
    axis to zero mean and unit variance, then scaled by gain and shifted by
    bias. One tape entry with a hand-written backward.

    Inverted dropout draws y's zero/scale mask from `rng`; without a
    generator (evaluation) or at rate 0 nothing is dropped and nothing is
    drawn. Mean and variance are sums divided by the width, as np.mean and
    np.var compute them.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if x.shape != y.shape or x.ndim < 1 or not gain.shape == bias.shape == x.shape[-1:]:
        raise ShapeError(f"add_norm needs x and y [..., d], gain [d] and bias [d], got "
                         f"{x.shape}, {y.shape}, {gain.shape} and {bias.shape}")
    keep = None  # the boolean dropout mask; kept values are scaled by `scale`
    if rng is not None and rate != 0.0:
        keep = rng.random(y.shape) >= rate
        scale = 1.0 / (1.0 - rate)
    # the residual sum, centred and then scaled into xhat in place
    xhat = x.data + (y.data if keep is None else y.data * keep * scale)
    n = xhat.shape[-1]
    xhat -= xhat.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat *= inv
    out = Tensor(xhat * gain.data)
    out.data += bias.data

    def bw(g):
        gx = g * gain.data
        dx = gx - gx.sum(axis=-1, keepdims=True) / n
        dx -= xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / n)
        dx *= inv
        return (dx, dx if keep is None else dx * keep * scale,
                _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    _record(out, (x, y, gain, bias), bw)
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":  # a boolean array would act as a mask
        raise ShapeError(f"embedding_lookup needs integer ids, got dtype {ids.dtype}")
    if ids.size:
        bad = (ids < 0) | (ids >= table.shape[0])
        if bad.any():
            raise EmbeddingIndexError(int(ids[bad].flat[0]), table.shape[0])
    out = Tensor(table.data[ids])

    def bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dt,)

    _record(out, (table,), bw)
    return out


def slice_(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints, slices, None, ...); backward scatters into a zero
    buffer. Any other index, which may select an element twice and would get
    its gradient once, is a ShapeError."""
    for i in idx if isinstance(idx, tuple) else (idx,):
        basic = isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
        if not basic or isinstance(i, bool):
            raise ShapeError(f"slice_ takes basic indexing only, got {idx!r}")
    out = Tensor(a.data[idx])

    def bw(g):
        da = np.zeros_like(a.data)
        da[idx] += g
        return (da,)

    _record(out, (a,), bw)
    return out


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    _record(out, (a,), bw)
    return out


def prefix(m: Tensor, x: Tensor, skip: int) -> Tensor:
    """m [p, d] in every row's first p slots, then x [batch, seq, d] from slot
    `skip` on: skip 0 puts the prompt ahead of the text, skip p overwrites a
    previous prompt. One tape entry; m's gradient sums the prompt slots over
    the batch, and x's first `skip` slots get a zero gradient.
    """
    if m.ndim != 2 or x.ndim != 3 or m.shape[1] != x.shape[2]:
        raise ShapeError(f"prefix needs m [p, d] and x [batch, seq, d], "
                         f"got {m.shape} and {x.shape}")
    if not 0 <= skip <= x.shape[1]:
        raise ShapeError(f"prefix skip {skip} is outside the {x.shape[1]} slots of x")
    p = m.shape[0]
    tiled = np.broadcast_to(m.data, (x.shape[0],) + m.shape)
    out = Tensor(np.concatenate([tiled, x.data[:, skip:]], axis=1))

    def bw(g):
        dx = np.zeros(x.shape)
        dx[:, skip:] = g[:, p:]
        return g[:, :p].sum(axis=0), dx

    _record(out, (m, x), bw)
    return out


@lru_cache(maxsize=8)
def _gate_scales(batch: int, k: int, hidden: int):
    """sigmoid(z) = tanh(z/2)/2 + 1/2 on the i/f/o gates, read-only: the column
    scale of k directions side by side [k*4h] (of one: its first 4h), and a
    step's scale and shift as its block [batch, k, 4h], which a step applies
    without broadcasting."""
    half = np.ones(4 * hidden)
    half[:3 * hidden] = 0.5
    step_half = np.broadcast_to(half, (batch, k, 4 * hidden)).copy()
    scales = np.tile(half, k), step_half, 1.0 - step_half
    for a in scales:
        a.flags.writeable = False
    return scales


def lstm_scan(x: Tensor, lengths: np.ndarray, directions) -> Tensor:
    """k masked LSTM directions over one x [batch, seq, d], in lockstep; returns
    their final states side by side, [batch, k*h], direction j in columns
    j*h to (j+1)*h.

    Each direction is (w_x, w_h, b, reverse), all of one hidden size h:
    w_x [d, 4h], w_h [h, 4h] and b [4h] pack the gates in the order i, f, o,
    g. A row of length n is live for steps 0..n-1, and step t reads position
    t, or n-1-t in reverse: padded positions never touch a state, and the
    result is the state after the row's last live step. A row of length 0
    keeps a zero state.

    The rows are packed by length: sorted once by descending length (stably),
    the rows live at step t are a prefix, which alone is updated, and the
    caller's row order is restored on the output and on dx. The lengths are
    checked, sorted and counted as a Python list: on a few rows, numpy calls
    cost more than the gradient check's small scans compute. The weights are
    concatenated and halved afresh on every call; only the gate constants,
    read-only and keyed by shape, are kept. The buffers are time-major, a
    row's k directions side by side in slots, the forward directions first:
    each orientation's directions fill adjacent slots, and each step runs
    every ufunc once over the live rows of all slots, one contiguous block,
    the recurrent matmul batched over k. The inputs are gathered once per
    orientation in step order, padded ones zeroed; a padded position keeps
    index t, so each row's order is a permutation. Each orientation's input
    projection is one GEMM written straight into its slots' columns, and one
    add puts in every bias. The gate activations overwrite the projection,
    and the h, c and tanh(c) histories are kept. One np.tanh covers all four
    gates, as sigmoid(z) = (1 + tanh(z/2)) / 2 with the i/f/o columns of the
    weights halved (an exact scaling). The forward buffers take the inputs'
    type, so complex inputs (the gradient check's) give complex states.

    The whole scan is one tape entry. Its backward copies each step's gates
    gate-major, [4, n, k, h], so each gate is one contiguous block, forms the
    gate gradients there and writes them over the activations before the
    recurrent matmul. Then one GEMM per orientation gives its directions'
    dw_x, a matmul batched over k (on C-contiguous states, as a lone scan
    has) gives dw_h, and one sum over the buffer gives every db. dx is
    summed in forward step order, the directions as k scans on one tape
    would, the last first, and scattered back once. Each direction's result
    and gradients are bit for bit those of a scan of it alone: every
    direction steps the same rows, so its recurrent products keep a lone
    scan's shapes.
    """
    lengths = np.asarray(lengths)
    if x.ndim != 3:
        raise ShapeError(f"lstm_scan needs x of rank 3, got {x.shape}")
    if not directions:
        raise ShapeError("lstm_scan needs at least one direction")
    batch, seq, d = x.shape
    k, hidden = len(directions), directions[0][1].shape[0]
    gates = 4 * hidden
    for w_x, w_h, b, _ in directions:
        if w_x.shape != (d, gates) or w_h.shape != (hidden, gates) or b.shape != (gates,):
            raise ShapeError(f"lstm_scan weights disagree: w_x {w_x.shape}, w_h {w_h.shape}, "
                             f"b {b.shape} for x {x.shape} and hidden size {hidden}")
    if lengths.shape != (batch,):
        raise ShapeError(f"lstm_scan needs one length per row, got {lengths.shape} for x {x.shape}")
    if lengths.dtype.kind not in "iu":  # np.integer: signed or unsigned
        raise ShapeError(f"lstm_scan needs integer lengths, got dtype {lengths.dtype}")
    lens = lengths.tolist()
    if min(lens, default=0) < 0 or max(lens, default=0) > seq:
        raise ContractError("length exceeds the sequence axis")

    # packed row r is row order[r]: the rows sorted stably by descending length
    order = sorted(range(batch), key=lens.__getitem__, reverse=True)
    packed = [lens[i] for i in order]
    top = packed[0] if batch else 0  # no row is live past its longest length
    live = []  # rows live at step t, a prefix
    for n in range(batch, 0, -1):
        live += [n] * (packed[n - 1] - len(live))
    unorder = [0] * batch  # row i is packed row unorder[i]
    for r, i in enumerate(order):
        unorder[i] = r
    order, packed, unorder = np.array((order, packed, unorder), dtype=np.intp)
    steps = np.arange(top)[:, None]
    padded = steps >= packed  # [top, batch]
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    # slot s runs direction inner[s]: the forward directions first, in the caller's order
    inner = sorted(range(k), key=lambda j: directions[j][3])
    slot = sorted(range(k), key=inner.__getitem__)  # direction j runs in slot slot[j]
    forward = k - sum(reverse for *_, reverse in directions)
    half_k, step_half, step_shift = _gate_scales(batch, k, hidden)
    w_x, w_h, b = ([directions[j][i].data for j in inner] for i in range(3))
    # the weights in slot order, their i/f/o columns halved in place
    w_x_half = np.concatenate(w_x, axis=1)
    w_x_half *= half_k
    w_h_half = np.concatenate(w_h).reshape(k, hidden, gates)
    w_h_half *= half_k[:gates]
    b_half = np.concatenate(b)
    b_half *= half_k
    # the position reverse step t reads
    back = None if forward == k else np.where(padded, steps, packed - 1 - steps)
    dtype = np.result_type(x.data, *w_x, *w_h, *b)  # complex in the gradient check
    act = np.empty((top, batch, k, gates), dtype)
    flat = act.reshape(top * batch, k * gates)  # a view: row (t, r) holds every slot's gates
    oriented = []  # (inputs [top * batch, d], columns) of each orientation present
    for positions, lo, hi in ((steps, 0, forward), (back, forward, k)):
        if lo == hi:
            continue
        xs = x.data[order, positions]  # [top, batch, d]
        xs[padded] = 0.0  # a non-finite padded input cannot reach dw_x
        xs = xs.reshape(top * batch, d)
        cols = slice(lo * gates, hi * gates)
        np.matmul(xs, w_x_half[:, cols], out=flat[:, cols])
        oriented.append((xs, cols))
    flat += b_half
    # slot t + 1 holds the state after step t, and step t reads slot t
    hs = np.zeros((top + 1, batch, k, hidden), dtype)
    cs = np.zeros((top + 1, batch, k, hidden), dtype)
    tanh_c = np.zeros((top, batch, k, hidden), dtype)
    recurrent = np.empty((batch, k, gates), dtype)
    for t in range(top):
        n = live[t]
        a = act[t, :n]
        np.matmul(hs[t, :n].transpose(1, 0, 2), w_h_half, out=recurrent[:n].transpose(1, 0, 2))
        a += recurrent[:n]
        np.tanh(a, out=a)
        a *= step_half[:n]  # g is scaled by 1 and shifted by 0
        a += step_shift[:n]
        c = cs[t + 1, :n]
        np.multiply(a[..., h1:h2], cs[t, :n], out=c)
        c += a[..., :h1] * a[..., h3:]
        np.tanh(c, out=tanh_c[t, :n])
        np.multiply(a[..., h2:h3], tanh_c[t, :n], out=hs[t + 1, :n])
    # row i's state is in time slot lengths[i], packed row unorder[i]
    out = Tensor(hs[lengths[:, None], unorder[:, None], slot].reshape(batch, k * hidden))

    def bw(g_out):
        dh = g_out.reshape(batch, k, hidden)[order[:, None], inner]
        dc = np.zeros((batch, k, hidden))
        w_h_t = np.ascontiguousarray(np.stack(w_h).transpose(0, 2, 1))  # C-contiguous, as w_h.T
        act[padded] = 0.0  # rows not live at a step get no gradient there
        blocks = act.reshape(top, batch, k, 4, hidden)
        gate = np.empty((4, batch, k, hidden))  # a step's gates, one contiguous block each
        grad = np.empty((4, batch, k, hidden))  # their derivatives, then their gradients
        for t in range(top - 1, -1, -1):
            n = live[t]
            a, fac = gate[:, :n], grad[:, :n]
            np.copyto(a, blocks[t, :n].transpose(2, 0, 1, 3))
            dh_n, dc_n, tc = dh[:n], dc[:n], tanh_c[t, :n]
            dc_n += dh_n * (a[2] * (1.0 - tc * tc))  # o(1 - tanh(c)^2) carries dh to dc
            # gate derivatives times their partners: g.i(1-i), c_prev.f(1-f),
            # tanh(c).o(1-o) and i(1-g^2); then the gate gradients
            np.multiply(a[:3], 1.0 - a[:3], out=fac[:3])
            fac[0] *= a[3]
            fac[1] *= cs[t, :n]
            fac[2] *= tc
            np.multiply(a[0], 1.0 - a[3] * a[3], out=fac[3])
            fac[:2] *= dc_n
            fac[2] *= dh_n
            fac[3] *= dc_n
            dc_n *= a[1]  # f carries dc back a step
            np.copyto(blocks[t, :n], fac.transpose(1, 2, 0, 3))
            np.matmul(act[t, :n].transpose(1, 0, 2), w_h_t, out=dh_n.transpose(1, 0, 2))
        d_w_x = np.empty((d, k, gates))
        for xs, cols in oriented:
            np.matmul(xs.T, flat[:, cols], out=d_w_x.reshape(d, k * gates)[:, cols])
        # each direction's states C-contiguous, as a lone scan's are
        states = np.ascontiguousarray(hs[:top].reshape(top * batch, k, hidden).transpose(1, 0, 2))
        d_w_h = states.transpose(0, 2, 1) @ flat.reshape(top * batch, k, gates).transpose(1, 0, 2)
        del states  # before dx's buffers
        d_b = flat.sum(axis=0).reshape(k, gates)
        # dx in forward step order, (t, r) for position t of packed row r;
        # a reverse direction's steps map to it through `back`
        for j in range(k - 1, -1, -1):  # as k scans on one tape sum dx: the last first
            w_x_j, _, _, reverse = directions[j]
            dx_j = (act[:, :, slot[j]].reshape(top * batch, gates) @ w_x_j.data.T)
            dx_j = dx_j.reshape(top, batch, d)
            if reverse:
                dx_j = dx_j[back, np.arange(batch)]
            if j == k - 1:
                dx_steps = dx_j
            else:
                dx_steps += dx_j
        dx = np.zeros(x.shape)
        dx[order, :top] = dx_steps.transpose(1, 0, 2)
        return (dx, *(g for s in slot for g in (d_w_x[:, s], d_w_h[s], d_b[s])))

    _record(out, (x, *(w for direction in directions for w in direction[:3])), bw)
    return out

"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops executed while a Tape is active are recorded in execution order, which
is already a topological order of the graph. backward() replays the tape in
reverse, visiting each recorded op once. Gradients accumulate additively
into Tensor.grad and are only cleared explicitly (see Adam.zero_grad).

Everything is float64: at desk scale memory is irrelevant and the gradient
checks need the precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, EmbeddingIndexError, ShapeError

_active_tape = None

INIT_STD = 0.02  # BERT-style initializer scale
LAYER_NORM_EPS = 1e-12


class Tensor:
    """N-dimensional float64 value with an optional gradient slot."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
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

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        return slice_(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)


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
    """Ordered record of executed ops.

    Each entry is (output tensor, parent tensors, backward fn); the backward
    fn closes over whatever activations it needs. Node identity is the
    tensor object itself. Use as a context manager around the forward pass.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self):
        return len(self._entries)

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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # never mutate g in place; it may alias another node's grad
    t.grad = g if t.grad is None else t.grad + g


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dLoss/dx into .grad for every tensor reachable from loss."""
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not any(out is loss for out, _, _ in tape._entries):
        raise ContractError("loss was not produced by an op recorded on this tape")
    _accumulate(loss, np.ones_like(loss.data))
    for out, parents, backward_fn in reversed(tape._entries):
        g = out.grad
        if g is None:
            continue  # not on the path from loss
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


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    _record(out, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
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


def linear(x, w, b=None) -> Tensor:
    """x [..., k] @ w [k, n] (+ b [n]) as one flat GEMM and one tape entry."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs x [..., k] @ w [k, n], got {x.shape} @ {w.shape}")
    k, n = w.shape
    flat = x.data.reshape(-1, k)
    y = flat @ w.data
    if b is not None:
        b = _as_tensor(b)
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


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """linear(relu(linear(x, w1, b1)), w2, b2) for x [..., k], w1 [k, f] and
    w2 [f, n]: two flat GEMMs and one tape entry. The backward keeps the
    hidden activations and zeroes their gradient where the ReLU was off."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.ndim < 1 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn needs x [..., k], w1 [k, f], b1 [f], w2 [f, n] and b2 [n], got "
                         f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}")
    k, n = w1.shape[0], w2.shape[1]
    flat = x.data.reshape(-1, k)
    hid = flat @ w1.data
    hid += b1.data
    live = hid > 0
    np.maximum(hid, 0.0, out=hid)
    y = hid @ w2.data
    y += b2.data
    out = Tensor(y.reshape(x.shape[:-1] + (n,)))

    def bw(g):
        g2 = g.reshape(-1, n)
        d_hid = g2 @ w2.data.T
        d_hid *= live
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
    qkv = _as_tensor(qkv)
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
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    out = Tensor((weights @ v).transpose(0, 2, 1, 3).reshape(batch, rows, d))

    def bw(g):
        g_context = g.reshape(batch, rows, num_heads, head_size).transpose(0, 2, 1, 3)
        d_qkv = np.empty((3, batch, num_heads, seq, head_size))
        np.matmul(weights.swapaxes(-1, -2), g_context, out=d_qkv[2])
        d_weights = g_context @ v.swapaxes(-1, -2)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
        d_scores *= scale
        np.matmul(d_scores, k, out=d_qkv[0, :, :, :rows])
        d_qkv[0, :, :, rows:] = 0.0
        np.matmul(d_scores.swapaxes(-1, -2), q, out=d_qkv[1])
        return (d_qkv.transpose(1, 3, 0, 2, 4).reshape(qkv.shape),)

    _record(out, (qkv,), bw)
    return out


def add_norm(x, y, gain, bias, rate: float, rng: np.random.Generator | None) -> Tensor:
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
    x, y, gain, bias = (_as_tensor(t) for t in (x, y, gain, bias))
    if x.shape != y.shape or x.ndim < 1 or not gain.shape == bias.shape == x.shape[-1:]:
        raise ShapeError(f"add_norm needs x and y [..., d], gain [d] and bias [d], got "
                         f"{x.shape}, {y.shape}, {gain.shape} and {bias.shape}")
    mask = None
    if rng is not None and rate != 0.0:
        mask = (rng.random(y.shape) >= rate) / (1.0 - rate)
    # the residual sum, centred and then scaled into xhat in place
    xhat = x.data + (y.data if mask is None else y.data * mask)
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
        return (dx, dx if mask is None else dx * mask,
                _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    _record(out, (x, y, gain, bias), bw)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    _record(out, (a,), bw)
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    ids = np.asarray(ids)
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


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty list")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"cannot concatenate shapes {shapes} along axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        offsets = np.cumsum([0] + sizes)
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    _record(out, tuple(tensors), bw)
    return out


def slice_(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints and slices); backward scatters into a zero buffer."""
    a = _as_tensor(a)
    out = Tensor(a.data[idx])

    def bw(g):
        da = np.zeros_like(a.data)
        da[idx] += g
        return (da,)

    _record(out, (a,), bw)
    return out


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    _record(out, (a,), bw)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(a.shape),))
    return out


def prefix(m: Tensor, x: Tensor, skip: int) -> Tensor:
    """m [p, d] in every row's first p slots, then x [batch, seq, d] from slot
    `skip` on: skip 0 puts the prompt ahead of the text, skip p overwrites a
    previous prompt. One tape entry; m's gradient sums the prompt slots over
    the batch, and x's first `skip` slots get a zero gradient.
    """
    m, x = _as_tensor(m), _as_tensor(x)
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


def lstm_scan(x: Tensor, lengths: np.ndarray, w_x: Tensor, w_h: Tensor, b: Tensor,
              reverse: bool = False) -> Tensor:
    """One masked LSTM direction over x [batch, seq, d]; returns h [batch, hidden].

    w_x [d, 4h], w_h [h, 4h] and b [4h] pack the gates in the order i, f, o, g.
    A row of length n is live for steps 0..n-1, and step t reads position t,
    or n-1-t in reverse: padded positions never touch a state, and the result
    is the state after the row's last live step, at its last real position
    (forward) or at position 0 (reverse). A row of length 0 keeps a zero state.

    The rows are packed by length: sorted once by descending length (stably),
    the rows live at step t are a prefix, which alone is updated, and the
    caller's row order is restored on the output and on dx. The inputs are
    gathered once in step order, padded ones zeroed; a padded position keeps
    index t, so each row's order is a permutation and dx scatters back
    without collisions. The buffers are time-major, so every step reads and
    writes contiguous slices: the input projection of every step is one GEMM
    ahead of the recurrence, each step's gate activations overwrite it in
    place, and the h, c and tanh(c) histories are kept. One np.tanh covers
    all four gates, as sigmoid(z) = (1 + tanh(z/2)) / 2 with the i/f/o
    columns of the weights halved once per call (an exact scaling). The whole
    scan is one tape entry whose backward is hand-written backpropagation
    through time; dw_h is one GEMM after the loop.
    """
    x, w_x, w_h, b = _as_tensor(x), _as_tensor(w_x), _as_tensor(w_h), _as_tensor(b)
    lengths = np.asarray(lengths)
    if x.ndim != 3:
        raise ShapeError(f"lstm_scan needs x of rank 3, got {x.shape}")
    batch, seq, d = x.shape
    hidden = w_h.shape[0]
    gates = 4 * hidden
    if w_x.shape != (d, gates) or w_h.shape != (hidden, gates) or b.shape != (gates,):
        raise ShapeError(f"lstm_scan weights disagree: w_x {w_x.shape}, w_h {w_h.shape}, "
                         f"b {b.shape} for x {x.shape}")
    if lengths.shape != (batch,):
        raise ShapeError(f"lstm_scan needs one length per row, got {lengths.shape} for x {x.shape}")
    if not np.issubdtype(lengths.dtype, np.integer):
        raise ShapeError(f"lstm_scan needs integer lengths, got dtype {lengths.dtype}")
    if ((lengths < 0) | (lengths > seq)).any():
        raise ContractError("length exceeds the sequence axis")

    lengths = lengths.astype(np.intp)
    order = np.argsort(-lengths, kind="stable")
    packed = lengths[order]
    top = int(packed.max(initial=0))  # no row is live past its longest length
    steps = np.arange(top)[:, None]
    is_live = steps < packed  # [top, batch]
    live = is_live.sum(axis=1).tolist()  # rows live at step t, a prefix
    positions = np.where(is_live & reverse, packed - 1 - steps, steps)
    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    # sigmoid(z) = tanh(z/2)/2 + 1/2: i/f/o columns scaled by half, then shifted
    half = np.where(np.arange(gates) < h3, 0.5, 1.0)
    shift = np.where(np.arange(gates) < h3, 0.5, 0.0)
    xs = x.data[order, positions]  # [top, batch, d]
    xs[~is_live] = 0.0  # a non-finite padded input cannot reach dw_x
    xs = xs.reshape(top * batch, d)
    act = (xs @ (w_x.data * half) + b.data * half).reshape(top, batch, gates)
    w_h_half = w_h.data * half
    # slot t + 1 holds the state after step t, and step t reads slot t
    hs = np.zeros((top + 1, batch, hidden))
    cs = np.zeros((top + 1, batch, hidden))
    tanh_c = np.zeros((top, batch, hidden))
    for t in range(top):
        n = live[t]
        a = act[t, :n]
        a += hs[t, :n] @ w_h_half
        np.tanh(a, out=a)
        a *= half  # whole rows are contiguous; g is scaled by 1 and shifted by 0
        a += shift
        c = cs[t + 1, :n]
        np.multiply(a[:, h1:h2], cs[t, :n], out=c)
        c += a[:, :h1] * a[:, h3:]
        np.tanh(c, out=tanh_c[t, :n])
        np.multiply(a[:, h2:h3], tanh_c[t, :n], out=hs[t + 1, :n])
    out = Tensor(hs[packed, np.arange(batch)][np.argsort(order)])

    def bw(g_out):
        # every step's gate derivatives times their partners, in one pass each:
        # g.i(1-i), c_prev.f(1-f), tanh(c).o(1-o) and i(1-g^2) in gate order,
        # then o(1 - tanh(c)^2), which carries dh into dc, and f, which carries
        # dc back a step; contiguous, so each step reads plain prefixes
        i, g = act[..., :h1], act[..., h3:]
        factors = np.empty((top, batch, gates))
        sig = act[..., :h3]
        np.multiply(sig, 1.0 - sig, out=factors[..., :h3])
        factors[..., :h1] *= g
        factors[..., h1:h2] *= cs[:top]
        factors[..., h2:h3] *= tanh_c
        np.multiply(i, 1.0 - g * g, out=factors[..., h3:])
        to_c = act[..., h2:h3] * (1.0 - tanh_c * tanh_c)
        forget = np.ascontiguousarray(act[..., h1:h2])
        d_gates = np.zeros((top, batch, gates))
        blocks, d_blocks = (a.reshape(top, batch, 4, hidden) for a in (factors, d_gates))
        dh = g_out[order]
        dc = np.zeros((batch, hidden))
        w_h_t = np.ascontiguousarray(w_h.data.T)
        for t in range(top - 1, -1, -1):
            n = live[t]
            dh_n, dc_n, dz = dh[:n], dc[:n], d_blocks[t, :n]
            dc_n += dh_n * to_c[t, :n]
            np.multiply(blocks[t, :n], dc_n[:, None], out=dz)
            np.multiply(dh_n, blocks[t, :n, 2], out=dz[:, 2])
            dc_n *= forget[t, :n]
            np.matmul(d_gates[t, :n], w_h_t, out=dh_n)
        flat = d_gates.reshape(top * batch, gates)
        dx = np.zeros(x.shape)
        dx[order, positions] = (flat @ w_x.data.T).reshape(top, batch, d)
        d_w_h = hs[:top].reshape(top * batch, hidden).T @ flat
        return dx, xs.T @ flat, d_w_h, flat.sum(axis=0)

    _record(out, (x, w_x, w_h, b), bw)
    return out

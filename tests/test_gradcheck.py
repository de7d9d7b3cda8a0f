"""The network gradient check runs each probe alone only through the first
stage that reads the probed parameter, and every encoder-side copy on from
there stacked on the batch axis with the others; the op check runs the
moved copies of many inputs as the rows of one call (an LSTM entry's
weight copies as the directions of one scan) and judges each input's
coordinates in one pass. These tests hold every staged complex loss to the
full complex forward's bytes and both checks' output to the unstaged,
per-coordinate loops'."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpmn import gradcheck
from dpmn.cli import main
from dpmn.gradcheck import (
    OP_CATALOG,
    STEP,
    _group_of,
    _op_catalog,
    _probe_losses,
    _scan_moves,
    _stacked,
    build_probe_setup,
    check_all_ops,
    check_network,
    check_op,
    relative_error,
)
from dpmn.encoder import TransformerLayer
from dpmn.heads import BiLstmFfnHead
from dpmn.model import DpmnModel
from dpmn.tensor import Tape, Tensor, _record, backward, lstm_scan, mul, sum_

PROBE_PARAMETERS = 58  # of the probe network with Bi-LSTM heads


def _complex(params):
    """Every parameter's data as complex128, as check_network holds it."""
    for p in params:
        p.data = p.data.astype(np.complex128)


def _hexed(loss):
    return loss.real.hex(), loss.imag.hex()


def _unstaged_check_network(n_probes, seed=0, losses=None):
    """check_network as it was before staging: every loss a full complex
    forward. Each probe's loss, as float hex, goes to `losses`."""
    model, _, compute_loss = build_probe_setup()
    params = list(model.parameters().values())
    rng = np.random.Generator(np.random.PCG64(seed))
    with Tape() as tape:
        loss = compute_loss()
    backward(tape, loss)
    _complex(params)
    worst = {}
    for i in range(n_probes):
        p = params[i % len(params)]
        j = int(rng.integers(p.size))
        analytic = 0.0 if p.grad is None else p.grad.reshape(-1)[j]
        moved = _moved_loss(compute_loss, p, j)
        if losses is not None:
            losses.append(_hexed(moved))
        group = _group_of(p.name)
        worst[group] = max(worst.get(group, 0.0), relative_error(analytic, moved.imag / STEP))
    return worst


def _unbatched_check_all_ops(seed, numerics=None):
    """check_all_ops as it was before any batching, written out apart from
    the check: every entry's taped projection, then every coordinate of the
    complex inputs moved by i*STEP call by call, and the projection of the
    output's imaginary part divided by STEP. Each numeric derivative, as
    float hex, goes to `numerics`."""
    errors = {}
    for name, op, inputs, rng, _ in _op_catalog(seed):
        with Tape() as tape:
            out = op(*inputs)
            weights = rng.normal(size=out.shape)
            loss = sum_(mul(out, Tensor(weights)))
        backward(tape, loss)
        held = [Tensor(t.data.astype(np.complex128)) for t in inputs]
        worst = 0.0
        for t, h in zip(inputs, held):
            flat = h.data.reshape(-1)
            for j in range(flat.size):
                kept = flat[j]
                flat[j] = kept + STEP * 1j
                numeric = float((op(*held).data.imag * weights).sum()) / STEP
                flat[j] = kept
                if numerics is not None:
                    numerics.append(numeric.hex())
                analytic = 0.0 if t.grad is None else t.grad.flat[j]
                worst = max(worst, relative_error(analytic, numeric))
        errors[name] = worst
    return errors


@pytest.mark.parametrize("seed", [0, 31, 294])
def test_check_all_ops_gives_the_unbatched_errors_bit_for_bit(seed):
    """Every coordinate, stacked, lockstep or lone, gets the numeric
    derivative the per-coordinate loop gives it, so every error is the
    loop's. Seeds 31 and 294 are where a central difference failed
    lstm_scan_reverse and lstm_scan by round-off."""
    numerics, numeric = [], gradcheck._numeric

    def recording(outs, weights):
        taken = numeric(outs, weights)
        numerics.extend(n.hex() for n in taken)
        return taken

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "_numeric", recording)
        errors = check_all_ops(seed)
    reference_numerics = []
    reference = _unbatched_check_all_ops(seed, reference_numerics)
    assert len(numerics) == errors.coordinates
    assert numerics == reference_numerics
    assert [(k, v.hex()) for k, v in errors.items()] == [
        (k, v.hex()) for k, v in reference.items()]
    assert max(errors.values()) < gradcheck.OP_TOLERANCE


@pytest.mark.parametrize("seed", [31, 62, 68, 127, 128, 181, 246, 249, 251, 275, 294])
def test_check_all_ops_passes_where_a_central_difference_failed_by_round_off(seed):
    """At these seeds a central difference at step 1e-5 failed a correct
    lstm_scan, attention, prefix_overwrite or ffn by round-off alone: each
    failing coordinate's true gradient lay between 4e-7 and 3e-5. The
    complex step takes no difference, so each passes."""
    assert max(check_all_ops(seed).values()) < gradcheck.OP_TOLERANCE


def test_an_lstm_entry_runs_its_perturbations_as_two_scans(monkeypatch):
    """Per entry: the taped scan; one scan of x's 36 copies stacked on the
    batch axis, 108 rows with the lengths tiled; and one scan of 48
    directions, one for each coordinate of w_x, w_h and b, over x itself."""
    calls = []

    def counted(x, lengths, directions):
        calls.append((x.shape, lengths.tolist(), len(directions)))
        return lstm_scan(x, lengths, directions)

    monkeypatch.setattr(gradcheck, "lstm_scan", counted)
    check_all_ops(0)
    assert calls == 2 * [((3, 4, 3), [4, 1, 4], 1), ((108, 4, 3), [4, 1, 4] * 36, 1),
                         ((3, 4, 3), [4, 1, 4], 48)]


# Each entry's op calls at seed 0: the taped call, one per stacked input, and
# one per coordinate of an input that goes one call per copy. An LSTM
# entry's op runs for the taped call and its stacked x; its weight moves run
# as one scan of their own (see above).
_OP_CALLS = {
    "add": 1 + 1 + 5, "mul": 1 + 2, "cross_entropy": 1 + 20, "total_loss": 1 + 3,
    "add_norm": 1 + 2 + 8, "add_norm_dropout": 1 + 56, "embedding_lookup": 1 + 28,
    "slice": 1 + 1, "sum": 1 + 1, "prefix": 1 + 1 + 8, "prefix_overwrite": 1 + 1 + 8,
    "lstm_scan": 1 + 1, "lstm_scan_reverse": 1 + 1, "linear": 1 + 1 + 25,
    "linear_2d": 1 + 1 + 8, "linear_no_bias": 1 + 1 + 12, "ffn": 1 + 1 + 43,
    "attention": 1 + 1, "attention_first_query": 1 + 1,
}


def test_each_catalog_entry_makes_its_pinned_number_of_op_calls(monkeypatch):
    """Every input a _stacked entry names, stacked or tiled, is one of its
    inputs, so a mistyped index cannot quietly leave an input one call per
    copy; each count is the one its moves imply, and the one check_all_ops
    makes."""
    for name, _, inputs, _, moves in _op_catalog(0):
        if moves.func is _scan_moves:
            continue
        assert moves.func is _stacked, name
        stacks = moves.args[0]
        named = {*stacks, *(m for tiled in stacks.values() for m in tiled)}
        assert named <= set(range(len(inputs))), name
        per_copy = sum(t.size for i, t in enumerate(inputs) if i not in stacks)
        assert _OP_CALLS[name] == 1 + len(stacks) + per_copy, name
    calls = dict.fromkeys(_OP_CALLS, 0)

    def counted(name, op):
        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    monkeypatch.setattr(gradcheck, "OP_CATALOG", tuple(
        (name, draws, counted(name, op), moves) for name, draws, op, moves in OP_CATALOG))
    check_all_ops(0)
    assert calls == _OP_CALLS


def _scan_with_skewed(index, skew):
    """lstm_scan with each direction's weight `index` (1: w_h, 2: b) passed
    through _skewed, so its gradient goes through `skew`."""
    def scan(x, lengths, directions):
        return lstm_scan(x, lengths, [tuple(_skewed(w, skew) if i == index else w
                                            for i, w in enumerate(d)) for d in directions])
    return scan


@pytest.mark.parametrize("index", [1, 2], ids=["w_h", "b"])
def test_a_scan_weight_gradient_off_by_a_relative_1e_5_fails_both_lstm_entries(
        monkeypatch, index):
    """The lockstep path alone moves the weights: a w_h or b gradient
    off by a relative 1e-5 on its largest coordinate fails both entries
    through check_all_ops, and the unskewed wrapper passes them."""
    entries = ("lstm_scan", "lstm_scan_reverse")
    monkeypatch.setattr(gradcheck, "lstm_scan", _scan_with_skewed(index, _unchanged))
    errors = check_all_ops(0)
    assert all(errors[name] < gradcheck.OP_TOLERANCE for name in entries)
    monkeypatch.setattr(gradcheck, "lstm_scan",
                        _scan_with_skewed(index, _largest_off_by_relative_1e_5))
    errors = check_all_ops(0)
    assert all(errors[name] >= gradcheck.OP_TOLERANCE for name in entries)


def _recording_probe_losses(monkeypatch):
    """A list that receives each staged network loss, as float hex, in the
    order check_network's batches give them."""
    losses, probe_losses = [], gradcheck._probe_losses

    def recorded(model, batch, compute_loss):
        staged = probe_losses(model, batch, compute_loss)

        def recording(copies):
            taken = staged(copies)
            losses.extend(_hexed(loss) for loss in taken)
            return taken
        return recording

    monkeypatch.setattr(gradcheck, "_probe_losses", recorded)
    return losses


@pytest.mark.parametrize("n_probes, seed", [(200, 0), (200, 8), (200, 22), (50, 0)])
def test_staged_check_gives_the_unstaged_losses_and_errors(monkeypatch, n_probes, seed):
    """Every probe's complex loss, in order, then the errors. Seeds 8 and 22
    probe head_b.ffn.b1[5], whose ReLU pre-activation lies within 1e-5 of
    its kink, through the per-task stage; 50 probes at seed 0 is the
    benchmark's check."""
    losses = _recording_probe_losses(monkeypatch)
    staged = check_network(n_probes, seed)
    reference_losses = []
    reference = _unstaged_check_network(n_probes, seed, reference_losses)
    assert len(losses) == n_probes
    assert losses == reference_losses
    assert list(staged.items()) == list(reference.items())
    assert max(staged.values()) < gradcheck.NETWORK_TOLERANCE


def _moved_loss(compute_loss, p, j):
    """The full complex forward's loss with p's coordinate j moved by i*STEP."""
    flat = p.data.reshape(-1)
    kept = flat[j]
    flat[j] = kept + STEP * 1j
    loss = complex(compute_loss().data)
    flat[j] = kept
    return loss


@settings(deadline=None, max_examples=6)
@given(head_kind=st.sampled_from(["bilstm-ffn", "linear"]), seed=st.integers(0, 2**32 - 1))
def test_every_staged_loss_is_the_full_forward_loss_bit_for_bit(head_kind, seed):
    """One coordinate of every parameter moved by i*STEP, all in one batch
    and each alone: every staged loss equals a full complex forward's. A
    parameter assigned to too late a stage would reuse an output its
    move changed, and a batch that mixed its copies up would give one copy
    another's loss."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "TINY_CONFIG", replace(gradcheck.TINY_CONFIG, head_kind=head_kind))
        model, batch, compute_loss = build_probe_setup()
        _complex(model.parameters().values())
        losses = _probe_losses(model, batch, compute_loss)
    rng = np.random.Generator(np.random.PCG64(seed))
    copies = [(p, int(rng.integers(p.size))) for p in model.parameters().values()]
    full = [_hexed(_moved_loss(compute_loss, *copy)) for copy in copies]
    assert [_hexed(loss) for loss in losses(copies)] == full
    assert [_hexed(losses([copy])[0]) for copy in copies] == full


@pytest.mark.parametrize("head_kind, starts", [
    ("bilstm-ffn", {"forward": 2, "layer0": 13, "layer1": 13, "lstm_scan": 18, "classify": 12}),
    ("linear", {"forward": 2, "layer0": 13, "layer1": 13, "classify": 6}),
])
def test_a_probe_reruns_only_the_stages_that_read_its_parameter(monkeypatch, head_kind, starts):
    """An embedding re-runs a full forward. A parameter of encoder layer i,
    or prompt matrix i, runs the stack from layer i, the last layer
    computing only the positions the heads read, then the heads' read and
    every classify, each over the probe batch's three rows. A head's
    Bi-LSTM parameter scans its moved direction alone, then runs its own
    task's classify; its other parameters only that classify."""
    monkeypatch.setattr(gradcheck, "TINY_CONFIG",
                        replace(gradcheck.TINY_CONFIG, head_kind=head_kind))
    model, batch, compute_loss = build_probe_setup()
    _complex(model.parameters().values())
    losses = _probe_losses(model, batch, compute_loss)
    calls = []

    def spy(owner, attr, label, wrap=lambda f: f):
        method = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            calls.append(label(*args))
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrap(wrapped))

    spy(model, "forward", lambda batch: ("forward",))
    spy(TransformerLayer, "forward",
        lambda layer, x, *args: (layer.wq.name.split(".")[0], args[-1], len(x.data)))
    spy(model, "read", lambda shared, lengths: ("read", lengths.tolist()))
    spy(BiLstmFfnHead, "bilstm",
        lambda heads, shared, lengths: ("bilstm", len(heads), len(shared.data)), staticmethod)
    spy(gradcheck, "lstm_scan",
        lambda x, lengths, directions: ("lstm_scan", len(x.data), len(directions)))
    spy(model, "classify", lambda states, task: ("classify", task, len(states.data)))
    queries = model.heads["a"].reads  # what the last layer computes: None for all
    joint = [("read", [8, 7, 8])] + ([("bilstm", 3, 3)] if head_kind == "bilstm-ffn" else [])
    classify_all = [("classify", task, 3) for task in "abc"]
    counts = dict.fromkeys(starts, 0)
    for name, p in model.parameters().items():
        calls.clear()
        losses([(p, 0)])
        counts[calls[0][0]] += 1
        task = name[len("head_")] if name.startswith("head_") else None
        layer = name.removeprefix("prompt.").split(".")[0]
        stack = [("layer0", None, 3), ("layer1", queries, 3)]
        if ".lstm_" in name:
            assert calls == [("lstm_scan", 3, 1), ("classify", task, 3)], name
        elif task is not None:
            assert calls == [("classify", task, 3)], name
        elif layer.startswith("layer"):
            assert calls == stack[int(layer[-1]):] + joint + classify_all, name
        else:
            assert name.startswith("embedding.") and calls[0] == ("forward",), name
    assert counts == starts


def test_a_network_check_scans_its_staged_probes_in_two_calls(monkeypatch):
    """check_network(50, 0), the benchmark's check, makes six lstm_scan
    calls: the taped float pass and the untaped complex base pass (six
    directions over the three rows of the encoder output each); one in
    each of the full forwards of its two embedding probes; one read of its
    26 encoder-layer probes' copies, six directions over their 78 rows
    stacked; and one scan of its 14 Bi-LSTM weight probes' moved
    directions over the kept encoder output. A probe that scanned alone
    would add a call."""
    calls = []

    def counted(x, lengths, directions):
        calls.append((len(x.data), len(directions)))
        return lstm_scan(x, lengths, directions)

    monkeypatch.setattr("dpmn.heads.lstm_scan", counted)
    monkeypatch.setattr(gradcheck, "lstm_scan", counted)
    check_network(50, 0)
    assert calls == [(3, 6)] * 2 + [(3, 6)] * 2 + [(78, 6), (3, 14)]


def test_a_network_check_runs_each_encoder_copy_alone_only_through_its_first_layer(
        monkeypatch):
    """check_network(50, 0)'s 26 encoder-side copies, 13 entering at each
    layer: each runs its first layer alone, on the probe batch's three
    rows; then layer 1 runs once over the 13 copies that entered at layer
    0, stacked, and each head classifies all 26 copies' 78 rows in one
    call. The passes before them (the taped float pass, the complex base
    pass and two embedding probes' full forwards) run on three rows."""
    layers, classified = [], []
    forward, classify = TransformerLayer.forward, DpmnModel.classify

    def layer(self, x, *args, **kwargs):
        layers.append((self.wq.name.split(".")[0], len(x.data)))
        return forward(self, x, *args, **kwargs)

    def head(self, states, task):
        classified.append((task, len(states.data)))
        return classify(self, states, task)

    monkeypatch.setattr(TransformerLayer, "forward", layer)
    monkeypatch.setattr(DpmnModel, "classify", head)
    check_network(50, 0)
    passes = 4 * [("layer0", 3), ("layer1", 3)]
    assert layers == passes + 13 * [("layer0", 3)] + [("layer1", 39)] + 13 * [("layer1", 3)]
    assert classified[:12] == 4 * [(task, 3) for task in "abc"]
    assert [call for call in classified if call[1] != 3] == [(task, 78) for task in "abc"]


def _drawn_copies(model, n_probes, seed):
    """The copies of check_network's first n_probes probes."""
    params = list(model.parameters().values())
    rng = np.random.Generator(np.random.PCG64(seed))
    return [(p, int(rng.integers(p.size)))
            for p in (params[i % len(params)] for i in range(n_probes))]


def test_losses_batched_by_parameter_cycle_are_those_of_one_batch():
    """Two cycles through the parameters and a part of a third: each
    cycle's copies as a batch of their own give the losses of all of them
    as one batch, bit for bit."""
    model, batch, compute_loss = build_probe_setup()
    _complex(model.parameters().values())
    losses = _probe_losses(model, batch, compute_loss)
    copies = _drawn_copies(model, 2 * PROBE_PARAMETERS + 5, 3)
    cycle = PROBE_PARAMETERS
    one_batch = [_hexed(loss) for loss in losses(copies)]
    cycled = [_hexed(loss) for at in range(0, len(copies), cycle)
              for loss in losses(copies[at:at + cycle])]
    assert cycled == one_batch


def test_a_network_check_batches_one_parameter_cycle_at_a_time(monkeypatch):
    """check_network's batches hold at most one copy pair per parameter, so
    its peak memory does not grow with the probe count: four cycles peak
    within a tenth of one cycle's peak (one batch of four cycles peaks at
    about four times it)."""
    sizes, probe_losses = [], gradcheck._probe_losses

    def recorded(model, batch, compute_loss):
        losses = probe_losses(model, batch, compute_loss)

        def sized(copies):
            sizes.append(len(copies))
            return losses(copies)
        return sized

    monkeypatch.setattr(gradcheck, "_probe_losses", recorded)
    check_network(2 * PROBE_PARAMETERS + 5, 0)
    assert sizes == [PROBE_PARAMETERS] * 2 + [5]
    monkeypatch.undo()

    def peak(n_probes):
        tracemalloc.start()
        try:
            check_network(n_probes, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    check_network(4 * PROBE_PARAMETERS, 0)  # scans keep constants cached by shape
    assert peak(4 * PROBE_PARAMETERS) < 1.1 * peak(PROBE_PARAMETERS)


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_check_network_leaves_every_parameter_its_own_float_array(monkeypatch, raises):
    """check_network holds every parameter complex while its probes run.
    When it returns, and when a probe raises, each parameter holds its
    original float64 array again: the same object with the same bytes."""
    built, held = [], []
    setup, probe_losses = gradcheck.build_probe_setup, gradcheck._probe_losses

    def recorded_setup():
        model, batch, compute_loss = setup()
        built.extend((p, p.data, p.data.tobytes()) for p in model.parameters().values())
        return model, batch, compute_loss

    def recorded(model, batch, compute_loss):
        losses = probe_losses(model, batch, compute_loss)

        def checked(copies):
            held.append({p.data.dtype for p, _, _ in built})
            taken = losses(copies)
            if raises:
                raise RuntimeError("a probe failed")
            return taken
        return checked

    monkeypatch.setattr(gradcheck, "build_probe_setup", recorded_setup)
    monkeypatch.setattr(gradcheck, "_probe_losses", recorded)
    if raises:
        with pytest.raises(RuntimeError, match="a probe failed"):
            check_network(PROBE_PARAMETERS + 5)
    else:
        check_network(PROBE_PARAMETERS + 5)
    assert len(built) == PROBE_PARAMETERS
    assert held == [{np.dtype(np.complex128)}] * (1 if raises else 2)
    for p, data, values in built:
        assert p.data is data, p.name
        assert p.data.dtype == np.float64 and p.data.tobytes() == values, p.name


@pytest.mark.parametrize("name", [entry[0] for entry in OP_CATALOG])
def test_each_op_on_its_inputs_cast_to_complex_gives_the_float_call(name):
    """The complex step differentiates each op on its real-part branch.
    Called on its inputs cast to complex, at seeds 0-99, every catalog op
    returns complex128 whose imaginary part is exactly 0 and whose real
    part is within 1e-14 of the float call's largest magnitude (zgemm and
    dgemm need not sum in one order). An op that cast to float, or whose
    branch left the real line, fails here."""
    for seed in range(100):
        _, op, inputs, _, _ = next(entry for entry in _op_catalog(seed) if entry[0] == name)
        floats = op(*inputs).data
        held = op(*(Tensor(t.data.astype(np.complex128)) for t in inputs)).data
        assert held.dtype == np.complex128, seed
        assert not held.imag.any(), seed
        assert np.abs(held.real - floats).max() <= 1e-14 * np.abs(floats).max(), seed


@pytest.mark.parametrize("n_probes", [1, 50, PROBE_PARAMETERS, PROBE_PARAMETERS + 5])
def test_n_probes_reach_exactly_the_first_min_n_58_parameters(monkeypatch, n_probes):
    """Probes cycle through the parameters in creation order: at the
    benchmark's 50, the last eight (head_c's forward bias, backward
    direction and FFN) are never probed, though `net head_c` is printed."""
    probed, probe_losses = [], gradcheck._probe_losses

    def recorded(model, batch, compute_loss):
        losses = probe_losses(model, batch, compute_loss)

        def moved(copies):
            probed.extend(p.name for p, _ in copies)
            return losses(copies)
        return moved

    monkeypatch.setattr(gradcheck, "_probe_losses", recorded)
    check_network(n_probes)
    names = list(build_probe_setup()[0].parameters())
    assert len(names) == PROBE_PARAMETERS
    assert [name for name in names if name in probed] == names[:min(n_probes, PROBE_PARAMETERS)]
    if n_probes == 50:
        assert names[50:] == ["head_c.lstm_forward.b", "head_c.lstm_backward.w_x",
                              "head_c.lstm_backward.w_h", "head_c.lstm_backward.b",
                              "head_c.ffn.w1", "head_c.ffn.b1", "head_c.ffn.w2", "head_c.ffn.b2"]


@pytest.mark.parametrize("name", ["the probe batch", "_SCAN_LENGTHS"])
def test_every_stacked_scan_step_has_two_live_rows(name):
    """The gradient check stacks its copies on the batch axis, where each
    gets its lone call's bytes only if no scan step has a single live row:
    numpy runs a one-row recurrent product as a matrix-vector one, which
    rounds differently from the stacked call's GEMM. So the lengths share
    their longest, the probe batch's (prompt slots counted) and the LSTM
    entries' alike."""
    if name == "the probe batch":
        model, batch, _ = build_probe_setup()
        lengths = batch.lengths + model.bank.prompt_len
    else:
        lengths = gradcheck._SCAN_LENGTHS
    live = [int((lengths > t).sum()) for t in range(lengths.max())]
    assert min(live) >= 2, (
        f"{name} {lengths.tolist()} leaves one live row at a scan step, where its stacked "
        f"copies would not get their lone call's bits: give two rows the longest length")


def _scalar_relative_error(analytic, numeric):
    """The rule on one pair, in Python floats: inf unless both are finite."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), gradcheck._REL_FLOOR)


_judged = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e-6, 1e308, -1e308]))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_judged, _judged), min_size=1, max_size=8))
def test_relative_error_over_arrays_is_the_scalar_rule_on_each_pair(pairs):
    """Finite, zero, subnormal, near-floor, huge and non-finite values: each
    element of the array form is the scalar rule's float, bit for bit, and
    a scalar pair gives a float64 scalar of the same bits."""
    analytic, numeric = (np.array(column) for column in zip(*pairs))
    errors = relative_error(analytic, numeric)
    assert errors.shape == (len(pairs),)
    assert [e.hex() for e in errors.tolist()] == [
        _scalar_relative_error(a, n).hex() for a, n in pairs]
    for a, n in pairs:
        error = relative_error(a, n)
        assert isinstance(error, np.float64) and error.hex() == _scalar_relative_error(a, n).hex()


@pytest.mark.parametrize("analytic, numeric", [(math.nan, 1.0), (1.0, math.nan),
                                               (math.nan, math.nan), (math.inf, 1.0),
                                               (-math.inf, -math.inf), (0.0, math.inf)])
def test_a_value_that_is_not_finite_is_an_infinite_error(analytic, numeric):
    """max() keeps its first argument against a NaN, so a NaN error would
    vanish from every maximum the check takes."""
    assert relative_error(analytic, numeric) == math.inf


def _doubled_with_nan_gradient(a):
    out = Tensor(2.0 * a.data)
    _record(out, (a,), lambda g: (np.full(a.shape, np.nan),))
    return out


def test_a_nan_backward_fails_check_op():
    a = Tensor(np.array([0.5, -1.0, 2.0]))
    error = check_op(_doubled_with_nan_gradient, [a], np.random.Generator(np.random.PCG64(0)))
    assert error == math.inf and not error < gradcheck.OP_TOLERANCE


def _skewed(a, skew):
    """`a` itself on the forward; on the backward, the gradient reaching `a`
    passes through `skew`, which edits its copy in place."""
    out = Tensor(a.data)

    def bw(g):
        g = np.array(g, dtype=np.float64)  # a copy, writable even when 0-d
        skew(g)
        return (g,)

    _record(out, (a,), bw)
    return out


def _check_skewed(name, skew):
    """check_op on catalog entry `name` (seed 0), its first input's gradient
    passed through `skew`."""
    _, op, inputs, rng, _ = next(entry for entry in _op_catalog(0) if entry[0] == name)
    return check_op(lambda first, *rest: op(_skewed(first, skew), *rest), inputs, rng)


def _unchanged(g):
    pass


def _largest_off_by_relative_1e_5(g):
    g.flat[np.argmax(np.abs(g))] *= 1.0 + 1e-5


@pytest.mark.parametrize("name", [entry[0] for entry in OP_CATALOG])
def test_a_backward_off_by_a_relative_1e_5_on_one_coordinate_fails_check_op(name):
    """The skew passes unchanged, and fails once it moves the first input's
    largest gradient coordinate by a relative 1e-5: ten times the gate."""
    assert _check_skewed(name, _unchanged) < gradcheck.OP_TOLERANCE
    assert _check_skewed(name, _largest_off_by_relative_1e_5) >= gradcheck.OP_TOLERANCE


def _largest_in_row_1(g):
    """An LSTM entry's x gradient off by a relative 1e-5 on its largest
    coordinate in row 1, the length-1 row, live at step 0 alone."""
    _largest_off_by_relative_1e_5(g[1])


@pytest.mark.parametrize("name, skew", [
    ("attention", _largest_off_by_relative_1e_5),
    ("attention_first_query", _largest_off_by_relative_1e_5),
    ("add_norm", _largest_off_by_relative_1e_5),
    ("ffn", _largest_off_by_relative_1e_5),
    ("lstm_scan", _largest_off_by_relative_1e_5),
    ("lstm_scan_reverse", _largest_off_by_relative_1e_5),
    ("lstm_scan", _largest_in_row_1),
    ("lstm_scan_reverse", _largest_in_row_1),
])
def test_a_first_input_gradient_off_by_a_relative_1e_5_fails_its_entry_through_check_all_ops(
        monkeypatch, name, skew):
    """The catalog op is replaced inside gradcheck by one whose first input
    (qkv or x), stacked into copies, has its gradient passed through the
    skew: unchanged it passes, and a relative 1e-5 off fails it."""
    catalog = gradcheck.OP_CATALOG

    def with_skew(skew):
        def entry(name_, draws, op, moves):
            if name_ != name:
                return name_, draws, op, moves
            return name_, draws, lambda first, *rest: op(_skewed(first, skew), *rest), moves
        monkeypatch.setattr(gradcheck, "OP_CATALOG", tuple(entry(*e) for e in catalog))
        return check_all_ops(0)[name]

    assert with_skew(_unchanged) < gradcheck.OP_TOLERANCE
    assert with_skew(skew) >= gradcheck.OP_TOLERANCE


def test_a_gradient_of_1e_5_where_the_true_one_is_0_fails_check_op():
    """With queries=1 only the first query row attends, so every Q column
    past it (qkv[:, 1:, :4]) has a gradient of exactly 0."""
    seen = []

    def bump_idle_query(g):
        seen.append(g[:, 1:, :4].copy())
        g[1, 2, 3] += 1e-5

    error = _check_skewed("attention_first_query", bump_idle_query)
    assert not seen[0].any()
    assert error >= gradcheck.OP_TOLERANCE


def _ffn_with_nan_bias_gradient(x, w1, b1, w2, b2):
    """The head FFN with a backward whose output-bias gradient is NaN."""
    hid = np.maximum(x.data @ w1.data + b1.data, 0.0)
    out = Tensor(hid @ w2.data + b2.data)

    def bw(g):
        d_hid = (g @ w2.data.T) * (hid > 0)
        return (d_hid @ w1.data.T, x.data.T @ d_hid, d_hid.sum(axis=0), hid.T @ g,
                np.full(b2.shape, np.nan))

    _record(out, (x, w1, b1, w2, b2), bw)
    return out


def test_a_nan_parameter_gradient_fails_check_network_and_the_command(monkeypatch, capsys):
    """Every head's ffn.b2 gets a NaN gradient; 58 probes reach each of them."""
    monkeypatch.setattr("dpmn.heads.ffn", _ffn_with_nan_bias_gradient)
    worst = check_network(PROBE_PARAMETERS)
    assert {group for group, err in worst.items() if err == math.inf} == {
        "head_a", "head_b", "head_c"}
    assert max(err for group, err in worst.items()
               if not group.startswith("head_")) < gradcheck.NETWORK_TOLERANCE
    assert main(["gradcheck", "--probes", str(PROBE_PARAMETERS)]) == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    for group in ("head_a", "head_b", "head_c"):
        assert f"net {group}            max_rel_err inf  FAIL" in lines
    assert lines[-1].endswith("result FAIL")
    assert "numeric failure" in captured.err

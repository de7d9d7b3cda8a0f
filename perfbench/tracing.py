"""Per-layer spans recorded from outside the program.

During a traced round the public entry points into each dpmn module are
replaced by wrappers that record a span (name, start, end, parent) and the
change in len(tape) across the call. Nothing in the library is edited, and
nothing is wrapped outside traced rounds. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from dpmn import checkpoint, data, gradcheck, model, optim, tensor, trainer
from dpmn.encoder import EncoderStack, TransformerLayer
from dpmn.heads import BiLstmFfnHead

# Span fields, in order. count is the tape growth across the call, or for
# tensor.backward the tape length it replays.
ROUND, NAME, START, END, PARENT, COUNT = range(6)

TRAIN = "trainer.train"      # the benchmark's own span around train()
NETWORK = "gradcheck.check_network"
_CONTEXTS = (TRAIN, NETWORK)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self.tape = None
        self._stack: list[int] = []
        self._rounds: dict[int, tuple[int, int]] = {}   # round -> span index range

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.round, name, 0.0, 0.0, parent, 0])
        self._stack.append(index)
        return index

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    def _close(self, index: int, start: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[START], span[END] = start, perf_counter()

    def wrap(self, fn, name, count=None):
        """fn with a span around each call; name may be a function of the args."""
        def traced(*args, **kwargs):
            tape = self.tape
            before = len(tape) if tape is not None else 0
            index = self._open(name(args) if callable(name) else name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, start)
                if count is not None:
                    self.spans[index][COUNT] = count(args)
                elif tape is not None and self.tape is tape:
                    self.spans[index][COUNT] = len(tape) - before
        return traced

    def _targets(self):
        """(owner, attribute, span name[, count]) for every wrapped entry point."""
        return [
            (data, "parse_tsv", "data.parse_tsv"),
            (trainer, "build_vocab", "data.build_vocab"),
            (gradcheck, "build_vocab", "data.build_vocab"),
            (trainer, "make_batches", "data.make_batches"),
            (model.DpmnModel, "__init__", "model.init"),
            (model.DpmnModel, "forward",
             lambda a: "model.forward.notape" if self.tape is None else "model.forward.tape"),
            (EncoderStack, "embed", "encoder.embed"),
            (model, "encode", "encoder.encode"),
            (TransformerLayer, "forward", lambda a: "encoder." + a[0].wq.name.split(".")[0]),
            (model, "head_forward", lambda a: "heads.head_" + a[3]),
            (BiLstmFfnHead, "bilstm", "heads.bilstm"),
            (BiLstmFfnHead, "ffn", "heads.ffn"),
            (trainer, "cross_entropy", "losses.cross_entropy"),
            (trainer, "total_loss", "losses.total_loss"),
            (trainer, "backward", "tensor.backward", lambda a: len(a[0])),
            (optim.Adam, "step", "optim.step"),
            (optim.Adam, "zero_grad", "optim.zero_grad"),
            (trainer, "evaluate_model", "trainer.evaluate_model"),
            (trainer, "checkpoint_bytes", "checkpoint.checkpoint_bytes"),
            (checkpoint, "checkpoint_bytes", "checkpoint.checkpoint_bytes"),
            (checkpoint, "parse_checkpoint", "checkpoint.parse_checkpoint"),
            (trainer, "parse_checkpoint_header", "runconfig.parse_checkpoint_header"),
            (model.DpmnModel, "load_state", "model.load_state"),
            (gradcheck, "check_all_ops", "gradcheck.check_all_ops"),
            (gradcheck, "check_network", "gradcheck.check_network"),
        ]

    @contextlib.contextmanager
    def installed(self, round_index: int):
        """Wrap every target for one round and restore the originals after it."""
        self.round = round_index
        saved = []
        enter, exit_ = tensor.Tape.__enter__, tensor.Tape.__exit__

        def tape_enter(tape):
            result = enter(tape)
            self.tape = tape
            return result

        def tape_exit(tape, *exc):
            self.tape = None
            return exit_(tape, *exc)

        try:
            for owner, attr, *spec in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, *spec))
            for attr, fn in (("__enter__", tape_enter), ("__exit__", tape_exit)):
                saved.append((tensor.Tape, attr, tensor.Tape.__dict__[attr]))
                setattr(tensor.Tape, attr, fn)
            first = len(self.spans)
            with self.span("bench.round"):
                yield
            self._rounds[round_index] = (first, len(self.spans))
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.tape = None

    def round_metrics(self, round_index: int, factor: float) -> dict[str, float]:
        """Per-layer totals of one traced round: ms (or s) of wall time per
        round divided by the machine's slowdown factor (see calibrate.py),
        and tape entries per training step."""
        first, end = self._rounds[round_index]
        spans = self.spans[first:end]
        total = defaultdict(float)
        own = defaultdict(float)           # self time
        taped = defaultdict(int)           # tape growth inside train()
        taped_own = defaultdict(int)
        calls = defaultdict(int)           # calls per (context, name)
        context = []
        for s in spans:
            parent = s[PARENT] - first if s[PARENT] >= 0 else -1
            inherited = context[parent] if parent >= 0 else None
            context.append(s[NAME] if s[NAME] in _CONTEXTS else inherited)
            duration = s[END] - s[START]
            total[s[NAME]] += duration
            own[s[NAME]] += duration
            calls[(inherited, s[NAME])] += 1
            if parent >= 0:
                own[spans[parent][NAME]] -= duration
            if inherited == TRAIN:
                taped[s[NAME]] += s[COUNT]
                taped_own[s[NAME]] += s[COUNT]
                if parent >= 0 and s[NAME] != "tensor.backward":
                    taped_own[spans[parent][NAME]] -= s[COUNT]

        steps = calls[(TRAIN, "tensor.backward")] or 1  # no steps: counts stay 0
        layers = [n for n in total if n.startswith("encoder.layer")]
        heads = ("heads.head_a", "heads.head_b", "heads.head_c")
        losses = ("losses.cross_entropy", "losses.total_loss")

        def ms(*names):
            return 1e3 * sum(total[n] for n in names) / factor

        def per_step(*names):
            return sum(taped[n] for n in names) / steps

        train_evals = sum(s[END] - s[START] for s, c in zip(spans, context)
                          if c == TRAIN and s[NAME] == "trainer.evaluate_model")
        return {
            "heads.bilstm.fwd_ms": ms("heads.bilstm"),
            "heads.ffn.fwd_ms": ms("heads.ffn"),
            **{f"{h}.fwd_ms": ms(h) for h in heads},
            "tensor.tape_entries.heads": per_step(*heads),
            "encoder.embed.fwd_ms": ms("encoder.embed"),
            "encoder.layer0.fwd_ms": ms("encoder.layer0"),
            "encoder.layer1.fwd_ms": ms("encoder.layer1"),
            "encoder.layers.fwd_ms": ms(*layers),
            "tensor.tape_entries.encoder": per_step("encoder.embed", *layers),
            "encoder.encode.self_ms": 1e3 * own["encoder.encode"] / factor,
            "tensor.tape_entries.prompt": taped_own["encoder.encode"] / steps,
            "tensor.backward_ms": ms("tensor.backward"),
            "tensor.tape_entries": per_step("tensor.backward"),
            "losses.fwd_ms": ms(*losses),
            "tensor.tape_entries.losses": per_step(*losses),
            "optim.step_ms": ms("optim.step"),
            "optim.zero_grad_ms": ms("optim.zero_grad"),
            "data.make_batches_ms": ms("data.make_batches"),
            "trainer.evaluate_model_ms": 1e3 * train_evals / factor,
            "data.parse_tsv_ms": ms("data.parse_tsv"),
            "data.build_vocab_ms": ms("data.build_vocab"),
            "model.init_ms": ms("model.init"),
            "model.forward.notape_ms": ms("model.forward.notape"),
            "checkpoint.checkpoint_bytes_ms": ms("checkpoint.checkpoint_bytes"),
            "checkpoint.parse_checkpoint_ms": ms("checkpoint.parse_checkpoint"),
            "runconfig.parse_checkpoint_header_ms": ms("runconfig.parse_checkpoint_header"),
            "model.load_state_ms": ms("model.load_state"),
            "gradcheck.check_all_ops_s": total["gradcheck.check_all_ops"] / factor,
            "gradcheck.check_network_s": total[NETWORK] / factor,
            "gradcheck.loss_evals": calls[(NETWORK, "model.forward.notape")]
            + calls[(NETWORK, "model.forward.tape")],
        }

    def write(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tround\tname\tstart_s\tend_s\tparent\tcount\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s[ROUND]}\t{s[NAME]}\t{s[START] - origin:.9f}\t"
                        f"{s[END] - origin:.9f}\t{s[PARENT]}\t{s[COUNT]}\n")

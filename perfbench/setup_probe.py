"""Child process that measures set-up: interpreter start, `import dpmn`,
parse_tsv of the workload corpora, build_vocab and model construction.

Prints "ready" when it would take its first training step; the parent
times the interval from spawning it to that line.

    python3 perfbench/setup_probe.py <workload> <seed> <train.tsv> <dev.tsv> <test.tsv>
"""

import os
import sys

import blas

blas.pin()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from dpmn import DpmnModel, build_vocab, parse_tsv  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    name, seed, train_path, dev_path, test_path = argv
    cfg = WORKLOADS[name].config(int(seed), None)
    train = parse_tsv(train_path)
    parse_tsv(dev_path)
    parse_tsv(test_path)
    vocab = build_vocab(train, cfg.min_freq)
    DpmnModel(cfg.encoder_config(vocab.size), cfg.prompt, head_kind=cfg.head_kind,
              rng_seed=cfg.rng_seed, lstm_hidden=cfg.lstm_hidden,
              head_ffn_size=cfg.head_ffn_size)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

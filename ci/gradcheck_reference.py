"""Hold both gradient checks to their unbatched references, bit for bit.

Run it from any directory; it imports `dpmn` from this tree's `src` and the
references from `tests/test_gradcheck.py`:

    OPENBLAS_NUM_THREADS=1 python3 ci/gradcheck_reference.py

The op check, at every seed 0-299: every complex-step derivative, in order,
and every entry's error equal the per-coordinate loop's
(`_unbatched_check_all_ops`), and every error is under the op gate. The
network check, at 200 probes and every seed 0-29, with Bi-LSTM and with
linear heads: every staged complex loss, in order, and every group's error
equal the unstaged check's (`_unstaged_check_network`), a full complex
forward per probe. The script exits 0 and prints one line when all hold; an
assertion names the first seed that differs.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from dpmn import gradcheck  # noqa: E402
from dpmn.gradcheck import OP_TOLERANCE, check_all_ops, check_network  # noqa: E402
from test_gradcheck import (  # noqa: E402
    _hexed,
    _unbatched_check_all_ops,
    _unstaged_check_network,
)


def hexed(errors):
    return [(name, err.hex()) for name, err in errors.items()]


def check_ops() -> None:
    numerics, numeric = [], gradcheck._numeric

    def recording(outs, weights):
        taken = numeric(outs, weights)
        numerics.extend(n.hex() for n in taken)
        return taken

    gradcheck._numeric = recording
    try:
        for seed in range(300):
            numerics.clear()
            reference_numerics = []
            errors = check_all_ops(seed)
            assert hexed(errors) == hexed(_unbatched_check_all_ops(seed, reference_numerics)), seed
            assert len(numerics) == errors.coordinates, seed
            assert numerics == reference_numerics, seed
            assert max(errors.values()) < OP_TOLERANCE, seed
    finally:
        gradcheck._numeric = numeric


def check_networks() -> None:
    losses, probe_losses = [], gradcheck._probe_losses

    def recorded(model, batch):
        staged = probe_losses(model, batch)

        def recording_losses(copies):
            taken = staged(copies)
            losses.extend(_hexed(loss) for loss in taken)
            return taken
        return recording_losses

    gradcheck._probe_losses = recorded
    config = gradcheck.TINY_CONFIG
    try:
        for head_kind in ("bilstm-ffn", "linear"):
            gradcheck.TINY_CONFIG = replace(config, head_kind=head_kind)
            for seed in range(30):
                losses.clear()
                errors = hexed(check_network(200, seed))
                reference_losses = []
                assert errors == hexed(_unstaged_check_network(200, seed, reference_losses)), (
                    head_kind, seed)
                assert len(losses) == 200, (head_kind, seed)
                assert losses == reference_losses, (head_kind, seed)
    finally:
        gradcheck.TINY_CONFIG = config
        gradcheck._probe_losses = probe_losses


def main() -> int:
    check_ops()
    check_networks()
    print("op derivatives and errors at seeds 0-299, all under the op gate, and network losses "
          "and errors at seeds 0-29, for both head kinds, equal the references")
    return 0


if __name__ == "__main__":
    sys.exit(main())

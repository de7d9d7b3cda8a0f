"""Command-line surface: subcommands, artifacts, and exit codes."""

import struct
import warnings

import numpy as np
import pytest

from dpmn.checkpoint import checkpoint_bytes, load_checkpoint, parse_checkpoint
from dpmn.cli import main
from dpmn.data import generate_synthetic_corpus, write_tsv
from dpmn.errors import DataError, HierarchyError, IntegrityError, ParseError
from dpmn.gradcheck import GradcheckReport
from dpmn.optim import Adam

from conftest import MISMATCHED_RECORDS, one_record_checkpoint, reseal

FAST_CONFIG = """\
learning_rate = 0.001
batch_size = 16
max_epochs = 2
num_layers = 2
hidden_size = 16
num_heads = 2
ffn_size = 32
max_seq_len = 24
dropout = 0.0
prompt_length = 1
"""


@pytest.fixture
def workdir(tmp_path):
    corpus = generate_synthetic_corpus(24, seed=6)
    train_path = tmp_path / "train.tsv"
    dev_path = tmp_path / "dev.tsv"
    write_tsv(train_path, corpus)
    write_tsv(dev_path, generate_synthetic_corpus(12, seed=7))
    config_path = tmp_path / "run.cfg"
    config_path.write_text(FAST_CONFIG, encoding="utf-8")
    return tmp_path


def test_train_then_eval_roundtrip(workdir, capsys):
    out = workdir / "out"
    code = main(["train", "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"), "--out", str(out)])
    assert code == 0
    assert (out / "model.ckpt").exists()
    assert (out / "runlog.csv").exists()
    assert "best epoch" in capsys.readouterr().out

    code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                 "--data", str(workdir / "dev.tsv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "task a: macro_f1" in printed
    assert "confusion" in printed


def test_train_is_deterministic_across_invocations(workdir):
    outs = []
    for run in ("one", "two"):
        out = workdir / run
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--train", str(workdir / "train.tsv"),
                     "--dev", str(workdir / "dev.tsv"), "--out", str(out)]) == 0
        outs.append(((out / "model.ckpt").read_bytes(), (out / "runlog.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_bad_config_exits_two(workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("loss_weight_main = 0.9\nloss_weight_auxi1 = 0.9\nloss_weight_auxi2 = 0.9\n")
    code = main(["train", "--config", str(bad),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_two(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("warp_speed = 9\n")
    assert main(["train", "--config", str(bad),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv")]) == 2


@pytest.mark.parametrize("key", ["train_path", "dev_path"])
def test_config_cannot_name_corpora(workdir, capsys, key):
    bad = workdir / "paths.cfg"
    bad.write_text(f"{key} = x\n")
    assert main(["train", "--config", str(bad),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv")]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_optimizer_key_exits_two(workdir, capsys):
    """Adam is the only update rule, so no key selects one."""
    bad = workdir / "adam.cfg"
    bad.write_text(FAST_CONFIG + "optimizer = adam\n")
    assert main(["train", "--config", str(bad), "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv")]) == 2
    assert "unknown config key 'optimizer'" in capsys.readouterr().err


def test_missing_corpus_exits_three(workdir, capsys):
    code = main(["train", "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "absent.tsv"),
                 "--dev", str(workdir / "dev.tsv")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_malformed_corpus_exits_three(workdir):
    mangled = workdir / "mangled.tsv"
    mangled.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n1\tx\tNOT\tTIN\tNULL\n")
    assert main(["train", "--config", str(workdir / "run.cfg"),
                 "--train", str(mangled), "--dev", str(workdir / "dev.tsv")]) == 3


HEADER = "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"


@pytest.mark.parametrize("command,flag", [
    ("train", "--train"), ("train", "--dev"), ("ablate", "--dev"), ("sweep", "--dev"),
    ("eval", "--data"),
])
@pytest.mark.parametrize("row,fault", [
    ("1\tx\tOFF\n", "line 2: expected 5 fields, got 3"),  # a parse error
    ("1\tx\tNOT\tTIN\tNULL\n", "line 2: label_b=TIN with label_a=NOT"),  # a hierarchy error
])
def test_a_malformed_corpus_is_named_with_its_fault(workdir, capsys, checkpoint,
                                                    command, flag, row, fault):
    """Which corpus is bad is on stderr, with the line and the fault; exit 3
    and no --out."""
    bad = workdir / "bad.tsv"
    bad.write_text(HEADER + row, encoding="utf-8")
    out = workdir / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(bad)]
    else:
        grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] * (command == "sweep")
        corpora = {"--train": str(workdir / "train.tsv"), "--dev": str(workdir / "dev.tsv"),
                   flag: str(bad)}
        argv = [command, *grid, "--config", str(workdir / "run.cfg"), "--out", str(out),
                "--train", corpora["--train"], "--dev", corpora["--dev"]]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: cannot read corpus {bad}: {fault}\n"
    assert not out.exists()


def _header_only(workdir):
    empty = workdir / "empty.tsv"
    write_tsv(empty, [])
    return str(empty)


@pytest.mark.parametrize("command,empty_flag", [
    ("train", "--train"), ("train", "--dev"), ("ablate", "--train"), ("ablate", "--dev"),
    ("sweep", "--train"), ("sweep", "--dev"),
])
def test_header_only_corpus_exits_three(workdir, capsys, command, empty_flag):
    corpora = {"--train": str(workdir / "train.tsv"), "--dev": str(workdir / "dev.tsv")}
    corpora[empty_flag] = _header_only(workdir)
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    argv = [command, *grid, "--config", str(workdir / "run.cfg")]
    for flag, path in corpora.items():
        argv += [flag, path]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and corpora[empty_flag] in err


def test_eval_header_only_corpus_exits_three(workdir, capsys):
    out = workdir / "out"
    assert main(["train", "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"), "--out", str(out)]) == 0
    empty = _header_only(workdir)
    assert main(["eval", "--checkpoint", str(out / "model.ckpt"), "--data", empty]) == 3
    assert empty in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A model.ckpt trained with FAST_CONFIG, shared by the eval tests."""
    root = tmp_path_factory.mktemp("trained")
    write_tsv(root / "train.tsv", generate_synthetic_corpus(24, seed=6))
    write_tsv(root / "dev.tsv", generate_synthetic_corpus(12, seed=7))
    (root / "run.cfg").write_text(FAST_CONFIG, encoding="utf-8")
    assert main(["train", "--config", str(root / "run.cfg"), "--train", str(root / "train.tsv"),
                 "--dev", str(root / "dev.tsv"), "--out", str(root / "out")]) == 0
    return root / "out" / "model.ckpt"


def _unreadable_input_exits_three(argv, path, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err


@pytest.mark.parametrize("flag", ["--train", "--dev"])
def test_directory_as_training_corpus_exits_three(workdir, capsys, flag):
    corpora = {"--train": str(workdir / "train.tsv"), "--dev": str(workdir / "dev.tsv")}
    corpora[flag] = str(workdir)
    argv = ["train", "--config", str(workdir / "run.cfg")]
    for name, path in corpora.items():
        argv += [name, path]
    _unreadable_input_exits_three(argv, workdir, capsys)


def test_directory_as_eval_input_exits_three(workdir, checkpoint, capsys):
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(checkpoint), "--data", str(workdir)], workdir, capsys)
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(workdir), "--data", str(workdir / "dev.tsv")], workdir, capsys)


def _as_format_2(blob):
    """The same model as a version-2 file, whose header names the optimizer."""
    header, arrays = parse_checkpoint(blob)
    header = header.replace("\nmin_freq = ", "\noptimizer = adam\nmin_freq = ", 1)
    body = checkpoint_bytes(header, arrays)[:-4]
    return reseal(body[:4] + struct.pack("<I", 2) + body[8:])


def test_checkpoint_and_label_errors_are_data_errors():
    """The CLI reports every input-file error it catches as one DataError:
    a checkpoint's IntegrityError, and a corpus row's HierarchyError, which
    is a ParseError carrying its line number."""
    assert issubclass(IntegrityError, DataError)
    assert issubclass(HierarchyError, ParseError)
    error = HierarchyError(3, "label_b=TIN with label_a=NOT")
    assert (str(error), error.line_no) == ("line 3: label_b=TIN with label_a=NOT", 3)


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:40] + bytes([blob[40] ^ 1]) + blob[41:],
    lambda blob: blob[:10],
    lambda blob: reseal(blob[:4] + struct.pack("<I", 1) + blob[8:-4]),
    _as_format_2,
], ids=["flipped-byte", "truncated", "format-version-1", "format-version-2"])
def test_corrupted_checkpoint_exits_three(workdir, checkpoint, capsys, damage):
    damaged = workdir / "damaged.ckpt"
    damaged.write_bytes(damage(checkpoint.read_bytes()))
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")], damaged, capsys)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_checkpoint_with_a_non_finite_record_exits_three_before_scoring(workdir, checkpoint,
                                                                        capsys, value):
    """One value of head_a.ffn.b2 is replaced in the file, which is then
    resealed, so only the record's values are wrong: eval names the record
    and scores nothing, so no arithmetic warns."""
    _, arrays = load_checkpoint(checkpoint)
    record = np.asarray(arrays["head_a.ffn.b2"], dtype="<f8")
    damaged_record = record.copy()
    damaged_record[-1] = value
    blob = checkpoint.read_bytes()
    assert blob.count(record.tobytes()) == 1
    damaged = workdir / "non_finite.ckpt"
    damaged.write_bytes(reseal(blob[:-4].replace(record.tobytes(), damaged_record.tobytes())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("data error") and str(damaged) in captured.err
    assert "'head_a.ffn.b2'" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_checkpoint_with_overflowing_extents_exits_three(workdir, capsys):
    damaged = workdir / "overflow.ckpt"
    damaged.write_bytes(one_record_checkpoint(2**21, 2**21, 2**22))
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")], damaged, capsys)


@pytest.mark.parametrize("kind", sorted(MISMATCHED_RECORDS))
def test_checkpoint_whose_records_do_not_fit_its_model_exits_three(workdir, checkpoint,
                                                                    capsys, kind):
    header, arrays = load_checkpoint(checkpoint)
    arrays, name = MISMATCHED_RECORDS[kind](arrays)
    damaged = workdir / "mismatched.ckpt"
    damaged.write_bytes(checkpoint_bytes(header, arrays))
    assert main(["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(damaged) in err and repr(name) in err


# Config lines a trained FAST_CONFIG checkpoint cannot describe a model with:
# the model rejects "seed" and "lstm-hidden", not the config, and "token-ids"
# names prompt_token_ids, which is no longer a key.
_INVALID_CONFIG = {"batch-size": "batch_size = 0", "heads": "num_heads = 0",
                   "seed": "rng_seed = -1", "lstm-hidden": "lstm_hidden = 0",
                   "token-ids": "prompt_init = token\nprompt_token_ids = 999"}
# Config lines the config accepts and the model rejects; with min_freq 1000
# the vocabulary is the reserved ids alone, so token init finds no row to copy.
_MODEL_REJECTS = {"seed": "rng_seed = -1", "lstm-hidden": "lstm_hidden = 0",
                  "token-ids": "prompt_init = token\nmin_freq = 1000"}


@pytest.mark.parametrize("lines", [*_INVALID_CONFIG.values(), "vocab.0 = x"],
                         ids=[*_INVALID_CONFIG, "vocab"])
def test_checkpoint_with_invalid_config_exits_three(workdir, checkpoint, capsys, lines):
    header, arrays = load_checkpoint(checkpoint)
    keys = {line.split(" = ")[0] for line in lines.splitlines()}
    kept = [line for line in header.splitlines() if line.split(" = ")[0] not in keys]
    damaged = workdir / "invalid.ckpt"
    damaged.write_bytes(checkpoint_bytes("\n".join(kept) + "\n" + lines + "\n", arrays))
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")], damaged, capsys)


@pytest.mark.parametrize("lines", _MODEL_REJECTS.values(), ids=_MODEL_REJECTS)
def test_config_the_model_cannot_take_exits_two(workdir, capsys, lines):
    (workdir / "run.cfg").write_text(FAST_CONFIG + lines + "\n", encoding="utf-8")
    assert main(["train", "--config", str(workdir / "run.cfg"), "--train",
                 str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv")]) == 2
    assert capsys.readouterr().err.startswith("config error")


def test_a_head_size_no_machine_can_allocate_exits_two_naming_the_allocation(workdir, capsys):
    """head_ffn_size 10^15 asks numpy for the head FFN's first weight,
    [64, 10^15] float64: about 512 PB, more than a 47-bit user address
    space holds, so no overcommit setting grants it and no page is touched.
    The model cannot be built, so it is a config error: one stderr line
    with numpy's account of the allocation, no traceback, and no --out."""
    config = FAST_CONFIG.replace("hidden_size = 16", "hidden_size = 64")
    (workdir / "run.cfg").write_text(config + "head_ffn_size = 1000000000000000\n",
                                     encoding="utf-8")
    out = workdir / "out"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--train",
                 str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv"),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "config error: the model does not fit in memory: Unable to allocate")
    assert "(64, 1000000000000000)" in captured.err
    assert not out.exists()


def test_running_out_of_memory_after_the_model_is_built_is_not_a_config_error(
        workdir, monkeypatch):
    """Only the model's build reports a refused allocation as a config
    error: one later in a valid run, here where the dev batches are made
    after --out is created, propagates as itself."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate the dev batches")

    monkeypatch.setattr("dpmn.trainer.make_batches", refuse)
    out = workdir / "out"
    with pytest.raises(MemoryError, match="dev batches"):
        main(["train", "--config", str(workdir / "run.cfg"), "--train",
              str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv"), "--out", str(out)])
    assert out.is_dir()


def _refused_before_any_output(workdir, capsys, argv, named):
    out = workdir / "out"
    assert main([*argv, "--train", str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv"),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and named in captured.err
    assert not out.exists()


# Config lines that parse but that no model can be built from. The sweep grid
# sets its own prompt, so only the last two reach it.
_UNBUILDABLE = {"no-text-slot": "prompt_length = 24",
                "token-ids": _MODEL_REJECTS["token-ids"],
                "heads": "hidden_size = 10\nnum_heads = 4",
                "seed": "rng_seed = -1"}


@pytest.mark.parametrize("command,name", [
    *[(command, name) for command in ("train", "ablate") for name in _UNBUILDABLE],
    ("sweep", "heads"), ("sweep", "seed"),
])
def test_config_the_model_cannot_take_exits_two_before_any_output(workdir, capsys,
                                                                   command, name):
    lines = _UNBUILDABLE[name].splitlines()
    keys = {line.split(" = ")[0] for line in lines}
    kept = [line for line in FAST_CONFIG.splitlines() if line.split(" = ")[0] not in keys]
    (workdir / "run.cfg").write_text("\n".join(kept + lines) + "\n", encoding="utf-8")
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    _refused_before_any_output(workdir, capsys, [command, *grid, "--config",
                                                 str(workdir / "run.cfg")], "")


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_a_zero_default_lstm_hidden_exits_two_naming_the_key(workdir, capsys, command):
    """hidden_size 1 halves to an lstm_hidden of 0 when the key is unset:
    refused as a config error naming it, not raised from inside the heads."""
    lines = ["hidden_size = 1", "num_heads = 1"]
    kept = [line for line in FAST_CONFIG.splitlines()
            if line.split(" = ")[0] not in ("hidden_size", "num_heads")]
    (workdir / "run.cfg").write_text("\n".join(kept + lines) + "\n", encoding="utf-8")
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    _refused_before_any_output(workdir, capsys, [command, *grid, "--config",
                                                 str(workdir / "run.cfg")], "lstm_hidden")


def test_checkpoint_with_a_repeated_vocab_token_exits_three(workdir, checkpoint, capsys):
    """The last vocab.N line of a resealed header repeats vocab.3's token."""
    header, arrays = load_checkpoint(checkpoint)
    lines = header.splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("vocab."))
    repeated = next(line for line in lines if line.startswith("vocab.3 = ")).split(" = ")[1]
    lines[last] = lines[last].split(" = ")[0] + " = " + repeated
    damaged = workdir / "repeated.ckpt"
    damaged.write_bytes(checkpoint_bytes("\n".join(lines) + "\n", arrays))
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")], damaged, capsys)


@pytest.mark.parametrize("spell", ["-1", "0{}", "+{}", " {}"])
def test_checkpoint_with_a_misspelt_vocab_id_exits_three(workdir, checkpoint, capsys, spell):
    """The last vocab line's id spelt as the writer never writes it."""
    header, arrays = load_checkpoint(checkpoint)
    lines = header.splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("vocab."))
    key, token = lines[last].split(" = ")
    lines[last] = "vocab." + spell.format(key.removeprefix("vocab.")) + " = " + token
    damaged = workdir / "misspelt.ckpt"
    damaged.write_bytes(checkpoint_bytes("\n".join(lines) + "\n", arrays))
    _unreadable_input_exits_three(
        ["eval", "--checkpoint", str(damaged), "--data", str(workdir / "dev.tsv")], damaged, capsys)


def test_non_finite_parameter_exits_four(workdir, capsys, monkeypatch):
    step = Adam.step

    def overflowing(self):
        step(self)
        self.params["head_a.ffn.b2"].data[0] = np.inf

    monkeypatch.setattr(Adam, "step", overflowing)
    assert main(["train", "--config", str(workdir / "run.cfg"), "--train",
                 str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure") and "head_a.ffn.b2 at training step 1" in err


def test_an_overflowing_run_exits_four_without_a_runtime_warning(workdir, capsys):
    """At learning_rate 1e200 the first update overflows the weights. The
    trainer names the first non-finite loss; numpy's overflow and invalid
    value warnings, which came before it, are not raised."""
    (workdir / "run.cfg").write_text(
        FAST_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e200"), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", str(workdir / "run.cfg"), "--train",
                     str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv")])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "numeric failure: non-finite loss at training step 2\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_utf8_corpus_exits_three(workdir, capsys):
    mangled = workdir / "latin1.tsv"
    mangled.write_bytes(b"id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n1\tcaf\xe9\tNOT\tNULL\tNULL\n")
    _unreadable_input_exits_three(
        ["train", "--config", str(workdir / "run.cfg"), "--train", str(mangled),
         "--dev", str(workdir / "dev.tsv")], mangled, capsys)


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--probes", "40", "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert "result PASS" in printed
    assert "op linear" in printed


def test_gradcheck_passes_at_a_kink_without_a_reprobe(capsys):
    """Seed 8 probes head_b.ffn.b1[5], whose ReLU pre-activation on one
    probe example lies within 1e-5 of the kink. The complex step moves no
    real part, so it crosses no kink: every line is an op, a network group
    or the result."""
    assert main(["gradcheck", "--probes", "200", "--seed", "8"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(line.split()[0] in ("op", "net", "probes") for line in printed)
    assert printed[-1].endswith("result PASS")
    ops = {line.split()[1] for line in printed if line.startswith("op ")}
    assert {"linear", "linear_2d", "attention"} <= ops


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_gradcheck_without_network_probes_exits_two(capsys, probes):
    assert main(["gradcheck", "--probes", probes]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "PASS" not in captured.out


def test_gradcheck_with_a_negative_seed_exits_two(capsys):
    assert main(["gradcheck", "--probes", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "seed" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_gradcheck_failure_exits_four(monkeypatch, capsys):
    failing = GradcheckReport(op_errors={"linear": 1.0}, network_errors={}, probes=1)
    monkeypatch.setattr("dpmn.cli.run_gradcheck", lambda **kw: failing)
    assert main(["gradcheck"]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_ablate_writes_tables(workdir, capsys):
    out = workdir / "ablation"
    code = main(["ablate", "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"), "--out", str(out)])
    assert code == 0
    table = (out / "ablation.csv").read_text()
    assert len(table.splitlines()) == 7
    assert (out / "ablation.md").exists()
    assert "| full |" in capsys.readouterr().out


def test_sweep_runs_filtered_grid(workdir, capsys):
    code = main(["sweep", "--lengths", "0,1", "--forms", "deep,light",
                 "--inits", "random", "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"),
                 "--out", str(workdir / "sweepdir")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("length,form,init")
    # (0, deep) is invalid and filtered: 3 runs remain
    assert len([l for l in lines if l and l[0].isdigit()]) == 3
    assert (workdir / "sweepdir" / "sweep.csv").exists()


def test_sweep_without_a_valid_setting_exits_two(workdir, capsys):
    _refused_before_any_output(workdir, capsys, [
        "sweep", "--lengths", "0", "--forms", "deep", "--inits", "random",
        "--config", str(workdir / "run.cfg")], "no valid prompt setting")


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_prompt_token_ids_key_exits_two_before_any_output(workdir, capsys, command):
    """Token init always copies the rows after the reserved ids, so no key
    picks them: a config that still names prompt_token_ids is refused."""
    (workdir / "run.cfg").write_text(FAST_CONFIG + "prompt_init = token\nprompt_token_ids = 3\n",
                                     encoding="utf-8")
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    _refused_before_any_output(workdir, capsys, [command, *grid, "--config",
                                                 str(workdir / "run.cfg")],
                               "unknown config key 'prompt_token_ids'")


@pytest.mark.parametrize("lines", [
    "prompt_init = token\nprompt_token_ids = 5",  # ids the vocabulary holds
    "prompt_length = 2\nprompt_init = token\nprompt_token_ids = 3,999",
], ids=["in-vocab", "out-of-vocab"])
def test_sweep_rejects_prompt_token_ids_before_any_output(workdir, capsys, lines):
    """No key picks token-init ids any more, so a sweep config that names
    prompt_token_ids is refused whether or not its ids fit the vocabulary."""
    keys = {line.split(" = ")[0] for line in lines.splitlines()}
    kept = [line for line in FAST_CONFIG.splitlines() if line.split(" = ")[0] not in keys]
    (workdir / "run.cfg").write_text("\n".join(kept) + "\n" + lines + "\n", encoding="utf-8")
    _refused_before_any_output(workdir, capsys, [
        "sweep", "--lengths", "1,2", "--forms", "deep", "--inits", "random,token",
        "--config", str(workdir / "run.cfg")], "unknown config key 'prompt_token_ids'")


@pytest.mark.parametrize("lengths,forms,inits,named", [
    ("2,-1", "deep", "random", "prompt length must be >= 0, got -1"),
    ("2", "deep,lite", "random", "got 'lite'"),
    ("2", "deep", "random,tokn", "got 'tokn'"),
    ("2,-1", "deep,lite", "random,tokn", "got 'tokn'"),
    ("0", "deep", "random,tokn", "got 'tokn'"),  # every point is a skipped (0, deep) one
], ids=["negative-length", "misspelt-form", "misspelt-init", "all-three",
        "init-of-skipped-points"])
def test_sweep_with_a_misspelt_or_negative_value_exits_two(workdir, capsys, lengths, forms,
                                                          inits, named):
    """Only the (0, deep) points are skipped; any other invalid grid value
    is named before anything is printed or written."""
    _refused_before_any_output(workdir, capsys, [
        "sweep", "--lengths", lengths, "--forms", forms, "--inits", inits,
        "--config", str(workdir / "run.cfg")], named)


@pytest.mark.parametrize("lengths,forms,inits,named", [
    ("1,1", "deep", "random", "length 1 is given more than once"),
    ("0,2", "light,deep,light", "random", "form 'light' is given more than once"),
    ("2", "deep", "token,random,token", "init 'token' is given more than once"),
], ids=["length", "form", "init"])
def test_sweep_with_a_repeated_value_exits_two_before_training(workdir, capsys, lengths, forms,
                                                               inits, named):
    """A value given twice would train its grid points twice and write their
    rows twice; it is refused before anything is trained, printed or written."""
    _refused_before_any_output(workdir, capsys, [
        "sweep", "--lengths", lengths, "--forms", forms, "--inits", inits,
        "--config", str(workdir / "run.cfg")], named)


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_non_finite_learning_rate_exits_two_before_any_output(workdir, capsys, value):
    (workdir / "run.cfg").write_text(FAST_CONFIG.replace("learning_rate = 0.001",
                                                         f"learning_rate = {value}"),
                                     encoding="utf-8")
    _refused_before_any_output(workdir, capsys, ["train", "--config", str(workdir / "run.cfg")],
                               "learning_rate")


def test_sweep_length_without_room_for_text_exits_two_before_training(workdir, capsys):
    """max_seq_len is 24: length 1 could run, length 24 leaves no text slot."""
    out = workdir / "sweepdir"
    assert main(["sweep", "--lengths", "1,24", "--forms", "deep", "--inits", "random",
                 "--config", str(workdir / "run.cfg"), "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prompt length 24 leaves no room for text" in captured.err
    assert not (out / "sweep.csv").exists()


def test_ablate_prompt_without_room_for_text_exits_two_before_training(workdir, capsys):
    """The prompt-off variants could run; the prompt variants cannot."""
    cfg = workdir / "long.cfg"
    cfg.write_text(FAST_CONFIG.replace("prompt_length = 1", "prompt_length = 24"))
    out = workdir / "ablation"
    assert main(["ablate", "--config", str(cfg), "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prompt length 24 leaves no room for text" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_out_naming_a_file_exits_three_before_training(workdir, capsys, command):
    taken = workdir / "taken"
    taken.write_text("not a directory\n")
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    assert main([command, *grid, "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv"),
                 "--out", str(taken)]) == 3
    captured = capsys.readouterr()
    assert "epoch 1:" not in captured.out
    assert captured.out == ""  # no run started: no ablation variant, no sweep header
    assert "data error" in captured.err and str(taken) in captured.err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_an_empty_out_exits_two_before_any_output(workdir, capsys, monkeypatch, command):
    monkeypatch.chdir(workdir)
    before = sorted(workdir.rglob("*"))
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    assert main([command, *grid, "--config", "run.cfg", "--train", "train.tsv",
                 "--dev", "dev.tsv", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: out_dir must not be empty\n"
    assert sorted(workdir.rglob("*")) == before


@pytest.mark.parametrize("command,artifact", [
    ("train", "model.ckpt"), ("ablate", "ablation.md"), ("sweep", "sweep.csv"),
])
def test_artifact_that_cannot_be_written_exits_three_naming_it(workdir, capsys,
                                                               command, artifact):
    out = workdir / "out"
    (out / artifact).mkdir(parents=True)
    grid = ["--lengths", "1", "--forms", "deep", "--inits", "random"] if command == "sweep" else []
    assert main([command, *grid, "--config", str(workdir / "run.cfg"),
                 "--train", str(workdir / "train.tsv"), "--dev", str(workdir / "dev.tsv"),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(out / artifact) in err


def test_sweep_bad_lengths_exit_two(workdir):
    assert main(["sweep", "--lengths", "one", "--forms", "deep",
                 "--inits", "random", "--train", str(workdir / "train.tsv"),
                 "--dev", str(workdir / "dev.tsv")]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required --train/--dev
    assert exc.value.code == 2

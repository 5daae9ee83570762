import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import test_cli
from test_cli import assert_reaped, synth_dir, tiny_run_config  # noqa: F401 (fixture)
from test_speakernet import tiny_cfg

from freqattn import cli
from freqattn import config as cfgmod
from freqattn import features as feats
from freqattn import shares
from freqattn import speakernet as sn
from freqattn.errors import NumericError


def square(x):
    return x * x


def fail_at_3_and_4(x):
    if x in (3, 4):
        raise ValueError(f"item {x}")
    return x


class TestMapItems:
    """`Workers(fn, limit).map(items)` is [fn(x) for x in items] over one share
    per CPU, at most `limit`."""

    cpus = test_cli.TestScoreSplit.cpus

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_list_comprehension(self, cpus, n, count):
        split = shares.openblas_threads() is not None
        forks = cpus(n)
        items = list(range(count))
        with shares.Workers(square, count) as workers:
            assert workers.map(items) == [square(x) for x in items]
        assert len(forks) == (max(min(n, count) - 1, 0) if split else 0)
        assert_reaped(forks)

    def test_no_fork_without_the_blas_calls(self, cpus, monkeypatch):
        monkeypatch.setattr(shares, "openblas_threads", lambda: None)
        forks = cpus(3)
        with shares.Workers(square, 7) as workers:
            assert workers.map(list(range(7))) == [x * x for x in range(7)]
        assert forks == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_earliest_failing_item_is_raised(self, cpus, n):
        # items 3 and 4 fall in different shares at 2 and 3 CPUs: at 2 the
        # earlier is a child's, at 3 this process's
        forks = cpus(n)
        with shares.Workers(fail_at_3_and_4, 7) as workers, \
                pytest.raises(ValueError, match="^item 3$"):
            workers.map(list(range(7)))
        assert_reaped(forks)


def serial_train(net, head, examples, opts, frames, rng):
    """The one-process training loop, the reference for `sn.train`: each
    example's gradient terms go straight into the parameters' gradients, in
    example order. The mean loss per epoch."""
    params = net.parameters() + head.parameters()
    optimizers = [sn.Adam(p.value, p.grad, opts.lr) for p in params]
    losses = []
    for _ in range(opts.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(order), opts.batch_size):
            batch = order[start:start + opts.batch_size]
            for p in params:
                p.grad[...] = 0.0
            for j in batch:
                label, x, _ = examples[j]
                x = feats.crop(x, frames, rng)
                if opts.augment:
                    x = feats.spec_mask(x, rng)
                emb, cache = sn.forward_train(net, x[None])
                res = sn.aam_loss(head, emb, label)
                sn.backward(net, cache, res.grad_emb)
                head.weight.grad += res.grad_weight
                total += res.loss
            for p, optimizer in zip(params, optimizers):
                p.grad *= 1.0 / len(batch)
                optimizer.step()
        losses.append(total / len(examples))
    return losses


def tiny_model(variant, aggregation, seed=21):
    cfg = tiny_cfg(variant, aggregation=aggregation, stages=((4, 3, 2), (8, 3, 2)),
                   attention_k=(2, 4))
    rng = np.random.default_rng(seed)
    net = sn.SpeakerNet(cfg, rng)
    return net, sn.AamHead(4, cfg.embedding_dim, 0.2, 30.0, rng)


def tiny_examples(count=22):
    data = feats.synth_dataset(4, -(-count // 4), seed=20, min_frames=150, max_frames=260)
    return [(u.speaker, feats.mvn(u.features), f"utt{i}") for i, u in enumerate(data)][:count]


def train_config(tmp_path, corpus, variant, aggregation, augment):
    cfg = tiny_run_config()
    cfg.network.attention_variant = variant
    cfg.network.aggregation = aggregation
    cfg.train.augment = augment
    cfg.train_list = str(corpus / "train.txt")
    path = tmp_path / "run.cfg"
    path.write_text(cfgmod.serialize_config(cfg))
    return path


VARIANTS = [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")]


class TestTrainSplit:
    """train splits each mini-batch over one share per CPU, each example's
    gradient in its own slot of a shared block, and adds the slots in example
    order."""

    cpus = test_cli.TestScoreSplit.cpus

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("variant,aggregation", VARIANTS)
    def test_equals_the_serial_loop_at_any_cpu_count(self, cpus, variant, aggregation,
                                                      augment):
        # 22 examples in batches of 5: the last batch has 2, fewer than 3 shares
        opts = sn.TrainOptions(epochs=2, batch_size=5, augment=augment)
        net, head = tiny_model(variant, aggregation)
        want = serial_train(net, head, tiny_examples(), opts, 200, np.random.default_rng(23))
        weights = [p.value.copy() for p in net.parameters() + head.parameters()]
        for n in (1, 2, 3):
            forks = cpus(n)
            net, head = tiny_model(variant, aggregation)
            history = sn.train(net, head, tiny_examples(), opts, 200, np.random.default_rng(23))
            assert [h.mean_loss for h in history] == want
            for a, p in zip(weights, net.parameters() + head.parameters()):
                assert np.array_equal(a, p.value), p.name
            assert len(forks) == (n - 1 if shares.openblas_threads() else 0)
            assert_reaped(forks)

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("variant,aggregation", VARIANTS)
    def test_checkpoint_and_stdout_are_identical_at_any_cpu_count(
            self, synth_dir, tmp_path, capsys, cpus, variant, aggregation, augment):
        cfg_path = train_config(tmp_path, synth_dir, variant, aggregation, augment)
        ckpt = tmp_path / "m.ckpt"
        outputs = []
        for n in (1, 2, 3):
            forks = cpus(n)
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
            outputs.append((capsys.readouterr().out, ckpt.read_bytes()))
            assert_reaped(forks)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_earliest_bad_example_is_raised_from_any_batch_position(self, cpus):
        # two bad examples side by side at each position of the first batch:
        # every share count reports the first, as one process does
        opts = sn.TrainOptions(epochs=1, batch_size=5)
        order = np.random.default_rng(23).permutation(22)   # train's first draw
        huge = np.full((64, 200), 1e300)                    # its embedding overflows
        for position in range(opts.batch_size):
            examples = tiny_examples()
            for name, at in (("first", position), ("second", position + 1)):
                if at < opts.batch_size:
                    examples[order[at]] = (0, huge, name)
            errors = []
            for n in (1, 2, 3):
                forks = cpus(n)
                net, head = tiny_model("mfsc", "avg_max")
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NumericError) as caught:
                    sn.train(net, head, examples, opts, 200, np.random.default_rng(23))
                errors.append(str(caught.value))
                assert_reaped(forks)
            assert errors[0] == ("first: aam_loss: embedding has zero or non-finite "
                                 "norm (epoch 1, batch 1)"), position
            assert errors == 3 * errors[:1], position

    def test_interrupt_in_this_process_kills_the_workers(self, cpus, monkeypatch):
        blas = shares.openblas_threads()
        if blas is None:
            pytest.skip("train runs in one process without OpenBLAS's thread calls")
        main_pid, forward, calls = os.getpid(), sn.forward_train, []

        def third_example_here_is_interrupted(*args):
            if os.getpid() == main_pid:
                calls.append(1)
                if len(calls) == 3:
                    raise KeyboardInterrupt
            return forward(*args)
        monkeypatch.setattr(sn, "forward_train", third_example_here_is_interrupted)
        threads = blas[0]()
        forks = cpus(3)
        net, head = tiny_model("mfsc", "avg_max")
        with pytest.raises(KeyboardInterrupt):
            sn.train(net, head, tiny_examples(), sn.TrainOptions(epochs=1, batch_size=5),
                     200, np.random.default_rng(23))
        assert len(forks) == 2
        assert_reaped(forks)
        assert blas[0]() == threads

    def test_worker_that_dies_is_one_error_line(self, synth_dir, tmp_path, capsys, cpus,
                                                monkeypatch):
        if shares.openblas_threads() is None:
            pytest.skip("train runs in one process without OpenBLAS's thread calls")
        main_pid, forward = os.getpid(), sn.forward_train

        def die_in_worker(*args):
            if os.getpid() != main_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return forward(*args)
        monkeypatch.setattr(sn, "forward_train", die_in_worker)
        cfg_path = train_config(tmp_path, synth_dir, "mfsc", "avg_max", False)
        forks = cpus(3)
        ckpt = tmp_path / "m.ckpt"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: worker process {forks[0]} ended without a result "
                            rf"\(signal 9\)\n", err), err
        assert not ckpt.exists()
        assert len(forks) == 2
        assert_reaped(forks)

    def test_blas_thread_count_is_restored(self, cpus):
        blas = shares.openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread calls are not available")
        get_threads, set_threads = blas
        before = get_threads()
        try:
            set_threads(3)
            forks = cpus(2)
            net, head = tiny_model("se", "avg")
            sn.train(net, head, tiny_examples(8), sn.TrainOptions(epochs=1, batch_size=4),
                     200, np.random.default_rng(23))
            assert len(forks) == 1
            assert get_threads() == 3
        finally:
            set_threads(before)

    def test_one_cpu_forks_nothing_and_calls_no_blas_function(self, cpus, monkeypatch):
        def no_lookup():
            raise AssertionError("OpenBLAS looked up at one share")
        monkeypatch.setattr(shares, "openblas_threads", no_lookup)
        forks = cpus(1)
        net, head = tiny_model("se", "avg")
        sn.train(net, head, tiny_examples(8), sn.TrainOptions(epochs=1, batch_size=4),
                 200, np.random.default_rng(23))
        assert forks == []


def test_workers_end_when_their_parent_is_killed():
    if shares.openblas_threads() is None or not Path("/proc/self/stat").exists():
        pytest.skip("needs forked workers and /proc to watch them")
    script = ("import os, sys, time\n"
              "from freqattn import shares\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "workers = shares.Workers(abs, 3)\n"
              "print(*(pid for pid, _, _ in workers.workers), flush=True)\n"
              "time.sleep(60)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shares.__file__).parents[1])] + sys.path))
    parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              text=True, env=env)
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    for worker in workers:
        stat = Path(f"/proc/{worker}/stat")
        while time.monotonic() < deadline:
            try:
                if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":   # ended, unreaped
                    break
            except (FileNotFoundError, ProcessLookupError):
                break
            time.sleep(0.01)
        else:
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            pytest.fail(f"worker {worker} still runs after its parent was killed")

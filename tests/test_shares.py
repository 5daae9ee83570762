"""The process split. `shares.Workers`' contract is tested here once, by
calling it directly; `train` and `score` are tested only for what they add on
top of it: the same bytes and the same first error at any CPU count."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_reaped, run_score, save_untrained_checkpoint, tiny_run_config

from freqattn import cli
from freqattn import config as cfgmod
from freqattn import features as feats
from freqattn import shares
from freqattn import speakernet as sn
from freqattn.errors import NumericError

SPLITS = shares.openblas_threads() is not None
needs_workers = pytest.mark.skipif(
    not SPLITS, reason="one process without numpy's OpenBLAS thread calls")
THIS_PROCESS = os.getpid()      # the workers are forked from it


def square(x):
    return x * x


def fail_at_3_and_4(x):
    if x in (3, 4):
        raise ValueError(f"item {x}")
    return x


def interrupted_here(x):
    if os.getpid() == THIS_PROCESS:
        raise KeyboardInterrupt
    return x


def killed_in_a_worker(x):
    if os.getpid() != THIS_PROCESS:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestMapItems:
    """`Workers(fn, limit).map(items)` is [fn(x) for x in items] over one share
    per CPU, at most `limit`."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_list_comprehension(self, cpus, n, count):
        forks = cpus(n)
        items = list(range(count))
        with shares.Workers(square, count) as workers:
            assert workers.map(items) == [square(x) for x in items]
        assert len(forks) == (max(min(n, count) - 1, 0) if SPLITS else 0)
        assert_reaped(forks)

    def test_no_fork_without_the_blas_calls(self, cpus, monkeypatch):
        monkeypatch.setattr(shares, "openblas_threads", lambda: None)
        forks = cpus(3)
        with shares.Workers(square, 7) as workers:
            assert workers.map(list(range(7))) == [x * x for x in range(7)]
        assert forks == []

    @pytest.mark.parametrize("why", ["one_cpu", "no_sched_getaffinity"])
    def test_one_cpu_forks_nothing_and_looks_up_no_blas(self, cpus, monkeypatch, why):
        def no_lookup():
            raise AssertionError("OpenBLAS looked up by one process")
        monkeypatch.setattr(shares, "openblas_threads", no_lookup)
        forks = cpus(1 if why == "one_cpu" else 3)
        if why == "no_sched_getaffinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        with shares.Workers(square, 7) as workers:
            assert workers.map(list(range(7))) == [x * x for x in range(7)]
        assert forks == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_earliest_failing_item_is_raised(self, cpus, n):
        # items 3 and 4 fall in different shares at 2 and 3 CPUs: at 2 the
        # earlier is a worker's, at 3 this process's
        forks = cpus(n)
        with shares.Workers(fail_at_3_and_4, 7) as workers, \
                pytest.raises(ValueError, match="^item 3$"):
            workers.map(list(range(7)))
        assert_reaped(forks)

    @needs_workers
    def test_interrupt_in_this_process_reaps_the_workers(self, cpus):
        # an Exception in share 0 waits for the workers' replies; only a
        # BaseException (or a worker that dies) leaves workers to kill
        forks = cpus(3)
        with pytest.raises(KeyboardInterrupt), shares.Workers(interrupted_here, 7) as workers:
            workers.map(list(range(7)))
        assert len(forks) == 2
        assert_reaped(forks)

    @needs_workers
    def test_dead_worker_raises_and_later_maps_run_here(self, cpus):
        forks = cpus(3)
        with shares.Workers(killed_in_a_worker, 7) as workers:
            with pytest.raises(ChildProcessError, match=rf"^worker process {forks[0]} "
                               rf"ended without a result \(signal 9\)$"):
                workers.map(list(range(7)))
            assert_reaped(forks)
            assert workers.map(list(range(7))) == list(range(7))
        assert len(forks) == 2

    @needs_workers
    def test_blas_thread_count_is_one_while_workers_live_then_restored(self, cpus):
        get_threads, set_threads = shares.openblas_threads()
        before = get_threads()
        try:
            set_threads(3)
            forks = cpus(2)
            with shares.Workers(square, 7) as workers:
                assert workers.map(list(range(7))) == [x * x for x in range(7)]
                assert get_threads() == 1
            assert len(forks) == 1
            assert get_threads() == 3
        finally:
            set_threads(before)

    def test_openblas_thread_calls_are_found(self):
        # the tests above expect no fork when these calls are missing, so they
        # alone would not see a lookup that stopped working
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not any(libs.glob("*scipy_openblas*")):
            pytest.skip("this numpy bundles no scipy-openblas library")
        blas = shares.openblas_threads()
        assert blas is not None
        get_threads, set_threads = blas
        before = get_threads()
        try:
            for count in (1, 3):
                set_threads(count)
                assert get_threads() == count
        finally:
            set_threads(before)
        assert get_threads() == before


def test_workers_end_when_their_parent_is_killed():
    if not SPLITS or not Path("/proc/self/stat").exists():
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
    cfg = sn.NetworkConfig(attention_variant=variant, aggregation=aggregation,
                           stages=((4, 3, 2), (8, 3, 2)), attention_k=(2, 4),
                           embedding_dim=5, reduction=2)
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


def untrained_checkpoint(path, variant, aggregation="avg"):
    cfg = tiny_run_config()
    cfg.network.attention_variant = variant
    cfg.network.aggregation = aggregation
    cfg.network.num_speakers = 4
    save_untrained_checkpoint(path, cfg)
    return path


VARIANTS = [("se", "avg"), ("sfsc", "avg"), ("mfsc", "avg_max")]


class TestTrainSplit:
    """train splits each mini-batch over one share per CPU, each example's
    gradient in its own slot of a shared block, and adds the slots in example
    order."""

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
            assert len(forks) == (n - 1 if SPLITS else 0)

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
            assert len(forks) == (n - 1 if SPLITS else 0)
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
                cpus(n)
                net, head = tiny_model("mfsc", "avg_max")
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NumericError) as caught:
                    sn.train(net, head, examples, opts, 200, np.random.default_rng(23))
                errors.append(str(caught.value))
            assert errors[0] == ("first: aam_loss: embedding has zero or non-finite "
                                 "norm (epoch 1, batch 1)"), position
            assert errors == 3 * errors[:1], position


class TestScoreSplit:
    """score embeds one interleaved share of the utterances per CPU."""

    @pytest.mark.parametrize("variant,aggregation", VARIANTS)
    def test_scores_are_byte_identical_at_any_cpu_count(self, synth_dir, tmp_path,
                                                        capsys, cpus, variant,
                                                        aggregation):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", variant, aggregation)
        outputs = []
        for n in (1, 2, 3):
            forks = cpus(n)
            out = tmp_path / f"s{n}.txt"
            assert run_score(ckpt, synth_dir / "trials.txt", synth_dir / "feats", out) == 0
            assert len(forks) == (n - 1 if SPLITS else 0)
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("first,second", [("narrow.feat", "ghost.feat"),
                                              ("ghost.feat", "cut.feat")])
    def test_first_bad_utterance_is_reported_from_any_share(self, synth_dir, tmp_path,
                                                            capsys, cpus, first, second):
        # two bad ids side by side, at each position: every share count must
        # report the first, as one process does
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt", "sfsc")
        good = sorted(p.name for p in (synth_dir / "feats").glob("*utt00[45].feat"))
        for name in good:
            os.symlink(synth_dir / "feats" / name, tmp_path / name)
        feats.write_feat(tmp_path / "narrow.feat", np.ones((2, 300)))   # 2 mel bins
        (tmp_path / "cut.feat").write_bytes(b"FEAT\x01\x00")             # ghost.feat: none
        trials = tmp_path / "trials.txt"
        for position in range(len(good) + 1):
            ids = good[:position] + [first, second] + good[position:]
            trials.write_text("".join(f"1 {a} {b}\n" for a, b in zip(ids, ids[1:])))
            errors = []
            for n in (1, 2, 3):
                cpus(n)
                assert run_score(ckpt, trials, tmp_path, tmp_path / "s.txt") == 1
                errors.append(capsys.readouterr().err)
            assert errors[0].count("\n") == 1 and first in errors[0], errors[0]
            assert errors == 3 * errors[:1], position
            assert not (tmp_path / "s.txt").exists()


@needs_workers
@pytest.mark.parametrize("command", ["train", "score"])
def test_dead_worker_is_one_error_line(synth_dir, tmp_path, capsys, cpus, monkeypatch,
                                       command):
    step = "forward_train" if command == "train" else "forward_embed"
    work = getattr(sn, step)

    def die_in_worker(*args):
        if os.getpid() != THIS_PROCESS:
            os.kill(os.getpid(), signal.SIGKILL)
        return work(*args)
    monkeypatch.setattr(sn, step, die_in_worker)
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--config",
                str(train_config(tmp_path, synth_dir, "mfsc", "avg_max", False))]
    else:
        args = ["score", "--checkpoint", str(untrained_checkpoint(tmp_path / "m.ckpt", "se")),
                "--trials", str(synth_dir / "trials.txt"),
                "--features", str(synth_dir / "feats")]
    forks = cpus(3)
    assert cli.main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: worker process {forks[0]} ended without a result "
                        rf"\(signal 9\)\n", err), err
    assert not out.exists()

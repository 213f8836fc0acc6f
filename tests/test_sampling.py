import hashlib
import re

import numpy as np
import pytest

from wielandt_lab import cli, sampling, search
from wielandt_lab.sampling import MASK64, mix_seed, mix_seeds, rngs_from

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _random_seeds(count):
    return np.random.default_rng(2024).integers(0, 2**64, size=count, dtype=np.uint64)


class TestBlockSize:
    def test_lane_budget(self):
        sizes = [sampling.block_size(n) for n in (2, 4, 8, 9, 16, 22, 23, 64)]
        assert sizes == [512, 512, 512, 404, 128, 67, 64, 64]

    def test_fan_out_uses_the_shape_block(self, monkeypatch):
        # A heavier shape has smaller blocks, so its runs reach a pool sooner.
        blocks = []

        def recording(fn, head, trials, workers, block):
            blocks.append(block)
            return sampling.fan_out(fn, head, trials, workers, block)

        monkeypatch.setattr(cli, "fan_out", recording)
        monkeypatch.setattr(search, "fan_out", recording)
        shape = dict(rank=2, out_dim=2, ancilla=2, m=1.0, M=2.0, seed=0)
        cli.run_verify(cli.VerifyParams(trials=2, ambient=32, p_values=(1.0,), tol=1e-9, **shape))
        search.random_search(search.SearchConfig(trials=2, ambient=16, **shape))
        assert blocks == [64, 128]


class TestRngsFrom:
    def test_states_match_default_rng(self):
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_seeds(10_000)])
        for seed, rng in zip(seeds.tolist(), rngs_from(seeds)):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_draws_match_default_rng(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64).reshape(2, 3)  # C order
        for seed, rng in zip(seeds.ravel().tolist(), rngs_from(seeds)):
            ref = np.random.default_rng(seed)
            assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
            assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)

    def test_self_check_raises_when_numpy_seeding_differs(self, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(sampling.np.random, "default_rng", lambda seed: real(seed ^ 1))
        with pytest.raises(RuntimeError):
            next(rngs_from(np.array([5, 6], dtype=np.uint64)))


class TestMixSeeds:
    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1, 2**70 + 5])
    def test_string_tags(self, seed):
        tags = ("operator", "isometries", "map", "")
        lanes = mix_seeds(seed, tags)
        assert lanes.dtype == np.uint64
        assert lanes.tolist() == [mix_seed(seed, tag) for tag in tags]

    def test_integer_tags(self):
        tags = np.array([0, 1, 63, 2**40, -1], dtype=np.int64)
        assert mix_seeds(11, tags).tolist() == [mix_seed(11, int(t)) for t in tags]
        assert mix_seeds(11, range(5, 9)).tolist() == [mix_seed(11, t) for t in range(5, 9)]
        assert mix_seeds(11, 4).tolist() == [mix_seed(11, 4)]

    def test_seed_arrays_broadcast_against_tags(self):
        seeds = _random_seeds(50)
        lanes = mix_seeds(seeds[:, np.newaxis], ("square_b", "square_p"))
        assert lanes.shape == (50, 2)
        for seed, row in zip(seeds.tolist(), lanes.tolist()):
            assert row == [mix_seed(seed, "square_b"), mix_seed(seed, "square_p")]
        assert mix_seeds(seeds, "map").tolist() == [mix_seed(s, "map") for s in seeds.tolist()]
        assert max(mix_seeds(seeds, 3).tolist()) <= MASK64


_TIMESTAMP_LINE = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)


class TestStreamPin:
    """sha256 of two timestamp-stripped reports.  Any change to the sampled
    instance stream (seed mixing, generator seeding or draw order) changes
    them, so such a change must update these pins on purpose.  The bits also
    depend on the LAPACK build that solves the eigenproblems."""

    @pytest.mark.parametrize(
        "args,digest",
        [
            (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
              "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "100", "--seed", "3"],
             "78e9441f337dc05604c08c88e16d34536a44e61e22011892f9db46ca96709ae0"),
            (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
              "--M", "2", "--tol", "1e-9", "--trials", "300", "--seed", "3"],
             "d52f805da869ab7b27fa834b030810b0381c602c24d16b70992aa9bd167a2dba"),
            # Runs past one 512-trial block, pinned to digests taken with
            # 64-trial blocks.
            (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
              "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "600", "--seed", "3"],
             "a5ba7a3b61f3af0715a45abc32c2ab61e6d8edc37f62772d0fc4dee5a9c672c7"),
            (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
              "--M", "2", "--tol", "1e-9", "--trials", "1100", "--seed", "3"],
             "b73603a4cfe37ba4f1a5505a0869a00f61fd27a30045698ff70723ef6b09e949"),
        ],
        ids=["verify", "search", "verify-two-blocks", "search-three-blocks"],
    )
    def test_report_digest(self, args, digest, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        assert cli.main(args + ["--out", "r.json"]) == 0
        body = _TIMESTAMP_LINE.sub(b"", (tmp_chdir / "r.json").read_bytes())
        assert hashlib.sha256(body).hexdigest() == digest

"""Seeded ``run_batch`` outputs pinned by digest.

Every case runs the round loop with its logs kept and hashes the counts,
sums, actions and rewards, over the widths 1, 7 and 4100.  The digests were
recorded before the round loop was last optimized; a speedup must leave
every one of them unchanged.  A change that alters a replay stream on
purpose re-pins them and says so in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from bandit_debias.distributions import Bernoulli, FiniteDiscrete, Gaussian
from bandit_debias.policies import EgSpec, EtcSpec, TsSpec, UcbSpec
from bandit_debias.simulator import LawWorld, ResampleWorld, run_batch
from bandit_debias.streams import substream

T = 40
WIDTHS = (1, 7, 4100)
POLICIES = {
    "ucb": (UcbSpec(), 3),
    "ts-k2": (TsSpec(), 2),
    "ts-k2-prior": (TsSpec(0.5, 1.0, 1.0), 2),  # unit likelihood variance, non-zero prior mean
    "ts-k3": (TsSpec(0.5, 2.0, 0.5), 3),
    "eg-0": (EgSpec(0.0), 2),
    "eg-0.05": (EgSpec(0.05), 3),
    "etc-logged": (EtcSpec(4), 3),
}
LAWS = {
    "gaussian": [Gaussian(1.0, 1.0), Gaussian(1.5, 2.0), Gaussian(-0.5, 0.5)],
    "bernoulli": [Bernoulli(0.3), Bernoulli(0.6), Bernoulli(0.5)],
    "mixed": [Gaussian(1.0, 2.0), Bernoulli(0.3), FiniteDiscrete((0.0, 0.5, 2.0), (0.2, 0.5, 0.3))],
    "zero-variance": [Gaussian(1.0, 0.0), Bernoulli(1.0), FiniteDiscrete((0.7,), (1.0,))],
}
# Rewards of a log on a lattice, so resamples tie; arm k pulls rounds k, k + K, ...
LOG_REWARDS = np.round(substream(16).standard_normal(60), 1)


def _world(name: str, K: int, width: int):
    """The world and the row_log of ``width`` rows (None for a one-log world)."""
    if name in LAWS:
        return LawWorld(LAWS[name][:K]), None
    actions = np.arange(60) % K
    if name == "resample":
        return ResampleWorld(actions, LOG_REWARDS, K), None
    # Three stacked logs; row i replays log i % 3.
    row_log = np.arange(width) % 3
    if name == "stacked-law":
        laws = [[Gaussian(0.1 * w + k, 0.5 + w) for k in range(K)] for w in range(3)]
        return LawWorld(np.array(laws, dtype=object)), row_log
    stacked = np.stack([np.roll(actions, w) for w in range(3)])
    return ResampleWorld(stacked, np.stack([LOG_REWARDS + w for w in range(3)]), K), row_log


WORLDS = (*LAWS, "resample", "stacked-law", "stacked-resample")
CASES = [(p, w) for p in POLICIES for w in WORLDS]

# sha256 over the widths of (counts, sums, actions, rewards), recorded with
# the round loop as it stood before float counts and the unmasked UCB score;
# ts-k2-prior's before the TS posterior skipped its division by a unit
# likelihood variance and its addition of a zero prior mean.
DIGESTS = {
    "ucb/gaussian": "9611145e9802cb01e2a3654a8a517a2f36b8bd35c4f2031a7863c022c3b7f3b5",
    "ucb/bernoulli": "63d4aeb94c110976651909aee1a01dabc3f59800c2f1ac2045880366074b5d7f",
    "ucb/mixed": "b65503e11f4c85f387e3b0d5bd56a0c1d40d35831c8e51fcf43dc4d4fa71ec6b",
    "ucb/zero-variance": "eaab09f5c0efe89aa4c625351add3e767308ec4c1e2d654ba984b6564acaaad7",
    "ucb/resample": "8ef8dd6cfcade0ba2d2f7506ce621b6522645b78e03f78ed557121d3734cb4c6",
    "ucb/stacked-law": "b45135f92c94e1917bd4ad7455faa4794f865dfb9ade6033d55105d3fa29d853",
    "ucb/stacked-resample": "276070e31f6f2d1b0929620b93eae2d69c47fe6a2bf4b8a525ea7514311c84eb",
    "ts-k2/gaussian": "c1cc425f67f07c3d3c404f85c0aaf514abbd417ecfe14519169fcc756e969cf8",
    "ts-k2/bernoulli": "4b8fbb672451c64ccec94ab9517e7fbc5f8e00cde61cc1c062ec1cd1df4a72f8",
    "ts-k2/mixed": "be40d61559c1d721a3f8af28f23f13fc0bfa98a75ce7dde5612e4508960ef91b",
    "ts-k2/zero-variance": "880008bc5bd7418507bc57bfc2fec49001240c596905ed3d294e929765f47196",
    "ts-k2/resample": "d055bef21eed6d423faa9885e3888015f4817e3e6eb2471238b2ec94aba75317",
    "ts-k2/stacked-law": "ca3d21d559024e090497e7575669f5370126d185bbaa5a021a5d457398fe6691",
    "ts-k2/stacked-resample": "67a341ca18b9435727b6b58c40deb3bbfea16c6c0799f9288f249de2c4edde01",
    "ts-k2-prior/gaussian": "4eb80e2d8f5083e1b6af534c93904d5b567d68619ae4a6afc1f7856e21b918c4",
    "ts-k2-prior/bernoulli": "ca17bc69123b4aa5d0c4508bb52ad4a8bc1a0b068613b36f74975b978ffffd29",
    "ts-k2-prior/mixed": "cbaa1d639f55fb8bb67a3dc7db56618699941882141c3c625826204d8514efc5",
    "ts-k2-prior/zero-variance": "8fed997a34c06d78a87e69250dcc57e39291fd02a1ef53bf3909c0f27508c3cd",
    "ts-k2-prior/resample": "4463ca9f724a90586c83da8447546ef7aef6653341a55469b74fd99261b8cb88",
    "ts-k2-prior/stacked-law": "f8986e685ac55ddc785ab2e0c5869921486179313cfe77b87786e18436fb14e3",
    "ts-k2-prior/stacked-resample": "8f465b9d0b03ac9af4d79a0e54812c9b19f95bf6d6a30aee2ead3e060e060f48",
    "ts-k3/gaussian": "980db901b94135c3b71c3ef38102a9a7161a5c965ad3ff7a4c7e39a716c57f59",
    "ts-k3/bernoulli": "98b76358b06c0b337e04b59d644e62053eeeaa5c156cedff6290a020df01cc31",
    "ts-k3/mixed": "3ddef476d47b3bd4ef8402465f818e300c5aa43afba47102e3422f7efd6dca16",
    "ts-k3/zero-variance": "42aa94d3aa0e5e1c8cdd4c001e71c89cfc1323747a0089fc627cab0e0154105b",
    "ts-k3/resample": "c02571135f184648e46f69e2498653c90a43ae981031602d791531d97976e66a",
    "ts-k3/stacked-law": "4cc18346fc53d6a7247186e203af51847dd879b21fb6433c95de9d9ceecc0148",
    "ts-k3/stacked-resample": "547fd30de3e7347d2124a97ff2b21e7c8f38f10a4b65f086170c6009148d5d47",
    "eg-0/gaussian": "da8f285cde0854c77a8b40b90b2376e64b65e62935eb1c13a624e74e3500c3e4",
    "eg-0/bernoulli": "242d43d76b3c1305954ecbc738bf9cbd1aa6f1d09a35ed528f1b1a8c87f1cccb",
    "eg-0/mixed": "4bf123077b00aeb980f05e18dd7c0a9349b21ac248f298c463f526295cf18f48",
    "eg-0/zero-variance": "b5e9533f82ef8e3f0cce6c893358defcb3ebe2a4173a07cf95561e91b3046dfe",
    "eg-0/resample": "8a632d9441cab55623ac8659723db42af0423a6778330474c1c58eae2b066d86",
    "eg-0/stacked-law": "fb19f2ee9de0c17e34dfa4fa945053fdd3485be79c55bd722b23dc72201c8681",
    "eg-0/stacked-resample": "5cfc0b85f06b278c904c5daa323db7b753185bfb7729d8e15944903edcdb67ca",
    "eg-0.05/gaussian": "7fdca359e43ec7da78d1be3d361281a24b3c7164e89e78fd06de65ea400b574d",
    "eg-0.05/bernoulli": "9cf536983563792ed6279b85200a98cb355bf7a7a6e9c7cc53974625bb792774",
    "eg-0.05/mixed": "df8e1b9006d6d5c157d40aafd9355bba2175da2e563683563d933b84bf6fa96e",
    "eg-0.05/zero-variance": "438934295e4e345bf3462d675ff897c76920e37882008d12b0cc4ce337ac12a7",
    "eg-0.05/resample": "66d01cee2f4a41db01f90125eba3f3c492c126cc256b650bb8db6335813e9dce",
    "eg-0.05/stacked-law": "bc608b48aac4ca72c518dcea07cd5ed0bb9c66bc1320b58d97607ab65789441c",
    "eg-0.05/stacked-resample": "c60220086396f1fdd76e351b061b157aa2e3a7c9ff1980656b1ec200a13add51",
    "etc-logged/gaussian": "22cc33cc9aeda6c0e2d26790c80c75dd93ce975c2dd05e6abfc58c151eaeb56b",
    "etc-logged/bernoulli": "57b753a220e83c3b939a6d40b83f2252f0be8c4146f2e28988e923cdcb393c2a",
    "etc-logged/mixed": "662ac85b4ea47749387dd288d3d7d63941461df3e704d0a6fba68fdaf32c5744",
    "etc-logged/zero-variance": "4a876942538d9002a0e1ba001450428fecad7d62f94e31fa802a740d897e9853",
    "etc-logged/resample": "a828266a126d489d147c809f874282c8e7a04c41f84373af1dc447f335f8175c",
    "etc-logged/stacked-law": "dd4a209adef357409097883bc4b97e96fb67949176b0ad0e1b95d16358b6da99",
    "etc-logged/stacked-resample": "8c57a68f6aa92071a97cbb5a55ff290d2e82f284a129908f490d17eb91320e4d",
}


def _digest(policy_name: str, world_name: str) -> str:
    policy, K = POLICIES[policy_name]
    h = hashlib.sha256()
    for i, width in enumerate(WIDTHS):
        world, row_log = _world(world_name, K, width)
        out = run_batch(width, K, T, policy, world, substream(16, i), record_logs=True, row_log=row_log)
        for x, dtype in ((out.counts, np.int64), (out.sums, np.float64), (out.actions, np.int64), (out.rewards, np.float64)):
            assert x.dtype == dtype
            h.update(np.ascontiguousarray(x).tobytes())
        if not isinstance(policy, EtcSpec):  # unlogged ETC takes the sufficient-statistic path
            bare = run_batch(width, K, T, policy, world, substream(16, i), row_log=row_log)
            assert bare.counts.dtype == np.int64
            assert np.array_equal(bare.counts, out.counts) and np.array_equal(bare.sums, out.sums)
    return h.hexdigest()


@pytest.mark.parametrize("policy_name,world_name", CASES, ids=[f"{p}-{w}" for p, w in CASES])
def test_round_loop_outputs_are_pinned(policy_name, world_name):
    assert _digest(policy_name, world_name) == DIGESTS[f"{policy_name}/{world_name}"]

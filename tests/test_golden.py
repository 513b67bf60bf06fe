"""Golden digests: the sha256 of whole outputs, pinned byte for byte.

Each digest covers a whole rendered output, so any change to the engine,
the check folds or the renderers that moves one byte fails here.  A
change that alters an output on purpose updates the digest and says so.
"""

import hashlib
import json

import chipfire as cf
from chipfire.cli import main
from conftest import reference_coins


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CYCLE5_CORPUS = "1dfe72fe72fc813a42f911fb050642a4612776017ff3b2297c00da9d111fa8ae"


def test_verify_corpus_json():
    g = cf.generate("cycle", 5)
    text = json.dumps(cf.verify_corpus(g, 15), indent=2)
    assert _sha256(text) == CYCLE5_CORPUS


CYCLE4_FAILING = "cef92795a93c90e7785490287724b3fa5749effcf0b605ac053561fd30cdb516"


def test_verify_corpus_brent_path_json():
    # a state cap of 1 sends every orbit through the constant-memory finder;
    # cycle:5 stabilizes, and below the threshold cycle:4's periodic
    # records are completed past the cap
    for n, c, digest in ((5, 15, CYCLE5_CORPUS), (4, 4, CYCLE4_FAILING)):
        g = cf.generate("cycle", n)
        text = json.dumps(cf.verify_corpus(g, c, state_cap=1), indent=2)
        assert _sha256(text) == digest


def test_verify_corpus_failing_json():
    # below the threshold: counterexample rows and first_failing_config
    g = cf.generate("cycle", 4)
    report = cf.verify_corpus(g, 4)
    assert report["first_failing_config"] == [0, 0, 0, 4]
    assert _sha256(json.dumps(report, indent=2)) == CYCLE4_FAILING


def test_verify_corpus_sampled_json():
    g = cf.generate("path", 6)
    report = cf.verify_corpus(g, 14, mode="sampled", trials=40, seed=9)
    assert _sha256(json.dumps(report, indent=2)) == (
        "8d3c989f68458c02d976f4ff2b967b5082ffac14083dd55f4f6fb831acecb6a7"
    )


def test_verify_corpus_sampled_failing_json():
    # the sampled scan stops at its third draw, the first that fails
    g = cf.generate("cycle", 4)
    report = cf.verify_corpus(g, 4, mode="sampled", trials=12, seed=1)
    assert report["checks"][-1]["first_counterexample"]["index"] == 2
    assert _sha256(json.dumps(report, indent=2)) == (
        "5716b244616efab741c515c6a065fd399b6d37f02f731e7555f1121afcbea067"
    )


def test_trace_csv_long_path_game():
    g = cf.generate("path", 30)
    c = cf.stabilization_threshold(g)  # 4m - n = 86, all of it on vertex 0
    trace = cf.run(g, [c] + [0] * (g.n - 1), g.n * g.diameter * c + 1)
    assert len(trace.rounds) == 1190
    assert _sha256(cf.trace_csv(trace)) == (
        "5e209165a553b4a9d50efdfd72aee6a74ea4607074574ff3fa62a52b0b78c281"
    )


def test_trace_csv_fired_list_branch():
    # n > 64: the fired set is written as a semicolon-joined list
    g = cf.generate("path", 70)
    c = cf.stabilization_threshold(g)  # 206, all of it on vertex 0
    trace = cf.run(g, [c] + [0] * (g.n - 1), g.n * g.diameter * c + 1)
    assert len(trace.rounds) == 6733
    assert _sha256(cf.trace_csv(trace)) == (
        "6e5d3d1a9dd95bb04d8d7dcbd7234fa7e8fd9962a43e1ba58e5ab55c557deae1"
    )


def test_simulate_long_path_game_stdout(capsys):
    # the summary's pass_counts are derived from the trace's fired tuples
    assert main(["simulate", "path:70", "concentrated:206,0"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "4197abde7e95b5768e9d6bc8f9536eeda713e7e9d9e9601d2d6cc55e60b2607e"
    )


def test_sweep_csv_random_connected():
    g = cf.generate("random_connected", 40, p=0.1, seed=3)
    t = cf.stabilization_threshold(g)
    rows = cf.sweep_experiment(g, [t // 2, t], trials=3, seed=11)
    assert _sha256(cf.sweep_csv(rows)) == (
        "511229691b35172ba20e0ecc0347ba21bd8165c17adbdfb3a905ba18cb74318e"
    )


# sha256 of repr(generate("random_connected", n, p=p, seed=seed).edges)
GNP_EDGES = {
    # the benchmark's seed-1 sweep graphs
    (300, 0.03, 1000): "80d0885602eb7eb56dd077cb3ccaef8ff3a161354697d1b917a24a2430e878ce",
    (300, 0.03, 1001): "e5c9db4b68e5d764cc0a7d9eac5ab14e6b0d21aa8b2fe7aa4bb39babae91b24f",
    (300, 0.03, 1002): "da205308b4c4f1dff5b5090236b389de817d9079ead3da5e43c21c4f94b4be40",
    (300, 0.03, 1003): "19070f02217eb55bb0e9408005fda9fa7bcfdd60639bed2bb279d2e170c800ff",
    (300, 0.03, 1004): "7d9c90cea372f441552359305ed3c2324166459d29958bb6111f7b788bb95c80",
    (300, 0.03, 1005): "491ada6a55fea39fff41d29416aed32653d97fff6ba6b820bc0800db57f4f5cc",
    # attempts 0-2 are disconnected, so the fourth derived stream is used
    (10, 0.25, 5): "984f369b9c524dc94e694c25f3b14bde66e3da065348b7ec08ff0b1bde6b83f4",
    (1, 0.5, 3): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (1, 0.0, 3): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    (2, 0.5, 3): "9a96df51dc791004ba79c210a5443532cf486a99b718d3ddb603ca75a2eaa0cf",
    (2, 1.0, 3): "9a96df51dc791004ba79c210a5443532cf486a99b718d3ddb603ca75a2eaa0cf",
    (9, 1.0, 4): "89582e25df6925899bbccf95a6a17abe912dea6e7e76137f38f61944e0be3fb1",
}


def test_random_connected_edge_streams():
    for (n, p, seed), digest in GNP_EDGES.items():
        g = cf.generate("random_connected", n, p=p, seed=seed)
        assert _sha256(repr(g.edges)) == digest, (n, p, seed)


def test_random_connected_retries_in_order():
    # the pinned retry case: the first three attempts' edge draws leave a
    # vertex cut off, and a connected graph only comes from attempt 3
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    for attempt in range(4):
        flips, _ = reference_coins(cf.derive_seed(5, attempt), 0.25, len(pairs))
        g = cf.Graph.build(10, [e for e, f in zip(pairs, flips) if f])
        assert g.connected == (attempt == 3)
    assert g == cf.generate("random_connected", 10, p=0.25, seed=5)

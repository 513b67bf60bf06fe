"""Golden digests: the sha256 of whole outputs, pinned byte for byte.

Each digest covers a whole rendered output, so any change to the engine,
the check folds or the renderers that moves one byte fails here.  A
change that alters an output on purpose updates the digest and says so.
"""

import hashlib
import json

import chipfire as cf


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CYCLE5_CORPUS = "1dfe72fe72fc813a42f911fb050642a4612776017ff3b2297c00da9d111fa8ae"


def test_verify_corpus_json():
    g = cf.generate("cycle", 5)
    text = json.dumps(cf.verify_corpus(g, 15), indent=2)
    assert _sha256(text) == CYCLE5_CORPUS


def test_verify_corpus_brent_path_json():
    # a state cap of 1 sends every orbit through the constant-memory finder
    g = cf.generate("cycle", 5)
    text = json.dumps(cf.verify_corpus(g, 15, state_cap=1), indent=2)
    assert _sha256(text) == CYCLE5_CORPUS


def test_verify_corpus_failing_json():
    # below the threshold: counterexample rows and first_failing_config
    g = cf.generate("cycle", 4)
    report = cf.verify_corpus(g, 4)
    assert report["first_failing_config"] == [0, 0, 0, 4]
    assert _sha256(json.dumps(report, indent=2)) == (
        "cef92795a93c90e7785490287724b3fa5749effcf0b605ac053561fd30cdb516"
    )


def test_verify_corpus_sampled_json():
    g = cf.generate("path", 6)
    report = cf.verify_corpus(g, 14, mode="sampled", trials=40, seed=9)
    assert _sha256(json.dumps(report, indent=2)) == (
        "8d3c989f68458c02d976f4ff2b967b5082ffac14083dd55f4f6fb831acecb6a7"
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


def test_sweep_csv_random_connected():
    g = cf.generate("random_connected", 40, p=0.1, seed=3)
    t = cf.stabilization_threshold(g)
    rows = cf.sweep_experiment(g, [t // 2, t], trials=3, seed=11)
    assert _sha256(cf.sweep_csv(rows)) == (
        "511229691b35172ba20e0ecc0347ba21bd8165c17adbdfb3a905ba18cb74318e"
    )

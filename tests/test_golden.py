"""Golden digests: the sha256 of three outputs, pinned byte for byte.

Each digest covers a whole rendered output, so any change to the engine,
the check folds or the renderers that moves one byte fails here.  A
change that alters an output on purpose updates the digest and says so.
"""

import hashlib
import json

import chipfire as cf


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_corpus_json():
    g = cf.generate("cycle", 5)
    text = json.dumps(cf.verify_corpus(g, 15), indent=2)
    assert _sha256(text) == "1dfe72fe72fc813a42f911fb050642a4612776017ff3b2297c00da9d111fa8ae"


def test_trace_csv_long_path_game():
    g = cf.generate("path", 30)
    c = cf.stabilization_threshold(g)  # 4m - n = 86, all of it on vertex 0
    trace = cf.run(g, [c] + [0] * (g.n - 1), g.n * g.diameter * c + 1)
    assert len(trace.rounds) == 1190
    assert _sha256(cf.trace_csv(trace)) == (
        "5e209165a553b4a9d50efdfd72aee6a74ea4607074574ff3fa62a52b0b78c281"
    )


def test_sweep_csv_random_connected():
    g = cf.generate("random_connected", 40, p=0.1, seed=3)
    t = cf.stabilization_threshold(g)
    rows = cf.sweep_experiment(g, [t // 2, t], trials=3, seed=11)
    assert _sha256(cf.sweep_csv(rows)) == (
        "511229691b35172ba20e0ecc0347ba21bd8165c17adbdfb3a905ba18cb74318e"
    )

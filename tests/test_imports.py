"""Import graph: estimate, phonesthemes, batch and a search that stays in
its Latin-hypercube phase run on numpy alone; scipy loads only for the GP,
and concurrent.futures never loads."""

import json

from signform.validate import run_python

SCRIPT = """
import json, os, sys

import signform.cli
from signform.hyperopt import Dimension, SearchSpace, propose_next, run_search
from signform.pipeline import (
    RunConfig, run_batch, run_estimate, run_phonesthemes, run_synth)

tmp = sys.argv[1]
files = run_synth("planted_prefix", 120, 1, os.path.join(tmp, "synth"))
config = dict(language="tiny", lexicon_path=files["lexicon"],
              embeddings_path=files["embeddings"], pretokenized=True,
              folds=4, permutations=200,
              lm={"hidden_size": 4, "phone_embed_size": 4, "pca_d": 2},
              opt={"max_epochs": 1, "patience": 2},
              phonesthemes={"k_range": [1], "min_count": 5,
                            "n_samples": 200})
run_estimate(RunConfig(out_dir=os.path.join(tmp, "estimate"), **config))
run_phonesthemes(RunConfig(out_dir=os.path.join(tmp, "mine"), **config))
run_batch([RunConfig(**dict(config, language=name)) for name in ("a", "b")],
          os.path.join(tmp, "batch"))
futures_loaded = "concurrent.futures" in sys.modules
space = SearchSpace((Dimension("x", "continuous", 0.0, 1.0),))
search = run_search(lambda native: (native["x"] - 0.3) ** 2, space,
                    budget=5)
before_gp = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
proposal = propose_next(search.trials, space)
print(json.dumps({"scipy_before_gp": before_gp, "proposal": proposal,
                  "scipy_after_gp": "scipy.optimize" in sys.modules,
                  "futures_loaded": futures_loaded}))
"""


def test_only_the_gp_step_imports_scipy(tmp_path):
    result = json.loads(run_python(SCRIPT, str(tmp_path)))
    assert result["scipy_before_gp"] == []
    assert 0.0 <= result["proposal"]["x"] <= 1.0
    assert result["scipy_after_gp"]
    # A batch runs serially; no executor module is loaded for it.
    assert not result["futures_loaded"]

"""Import graph: estimate, phonesthemes, batch and a search that stays in
its Latin-hypercube phase run on numpy alone; scipy loads only for the GP,
concurrent.futures never loads, and multiprocessing loads only for a fit
plan, batch or search that may fork a worker."""

import json

from signform.validate import run_python

SCRIPT = """
import json, os, sys

import signform.cli
from signform import forkrun
from signform.hyperopt import Dimension, SearchSpace, propose_next, run_search
from signform.pipeline import (
    RunConfig, run_batch, run_estimate, run_phonesthemes, run_synth)

tmp = sys.argv[1]
# The CPUs the runner may use, whatever this machine has.
forkrun._usable_cpus = lambda: int(sys.argv[2])
files = run_synth("planted_prefix", 120, 1, os.path.join(tmp, "synth"))
config = dict(language="tiny", lexicon_path=files["lexicon"],
              embeddings_path=files["embeddings"], pretokenized=True,
              folds=4, permutations=200,
              lm={"hidden_size": 4, "phone_embed_size": 4, "pca_d": 2},
              opt={"max_epochs": 1, "patience": 2},
              phonesthemes={"k_range": [1], "min_count": 5,
                            "n_samples": 200})
space = SearchSpace((Dimension("x", "continuous", 0.0, 1.0),))
run_search(lambda native: (native["x"] - 0.3) ** 2, space, budget=1)
mp_after_one_trial = "multiprocessing" in sys.modules
run_estimate(RunConfig(out_dir=os.path.join(tmp, "estimate"), **config))
mp_after_estimate = "multiprocessing" in sys.modules
run_phonesthemes(RunConfig(out_dir=os.path.join(tmp, "mine"), **config))
run_batch([RunConfig(**dict(config, language=name)) for name in ("a", "b")],
          os.path.join(tmp, "two"))
futures_loaded = "concurrent.futures" in sys.modules
mp_after_runs = "multiprocessing" in sys.modules
search = run_search(lambda native: (native["x"] - 0.3) ** 2, space,
                    budget=5)
before_gp = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
proposal = propose_next(search.trials, space)
print(json.dumps({"scipy_before_gp": before_gp, "proposal": proposal,
                  "scipy_after_gp": "scipy.optimize" in sys.modules,
                  "futures_loaded": futures_loaded,
                  "mp_after_one_trial": mp_after_one_trial,
                  "mp_after_estimate": mp_after_estimate,
                  "mp_after_runs": mp_after_runs}))
"""


def imports_after_runs(tmp_path, cpus: int) -> dict:
    return json.loads(run_python(SCRIPT, str(tmp_path), str(cpus)))


def test_only_the_gp_step_imports_scipy(tmp_path):
    result = imports_after_runs(tmp_path, 2)
    assert result["scipy_before_gp"] == []
    assert 0.0 <= result["proposal"]["x"] <= 1.0
    assert result["scipy_after_gp"]
    # No executor module is loaded, for a batch or anything else.
    assert not result["futures_loaded"]
    # A one-trial search forks no worker, so it never loads
    # multiprocessing (and so starts no process), even with CPUs to spare;
    # an estimate's fit plan of two units does.
    assert not result["mp_after_one_trial"]
    assert result["mp_after_estimate"]


def test_batch_on_one_cpu_never_loads_multiprocessing(tmp_path):
    # With one CPU nothing forks: not a search, an estimate's or
    # phonesthemes' fit plan, nor a batch of two languages.
    result = imports_after_runs(tmp_path, 1)
    assert not result["mp_after_one_trial"]
    assert not result["mp_after_estimate"]
    assert not result["mp_after_runs"]

import os
import subprocess
import sys
from pathlib import Path

import atlasreg

# Loads the package and the CLI, runs a phantom with texture (the Gaussian
# smoothing), an affine registration (its pyramid smooths too) and an
# evaluation (surface distances), then prints the scipy modules that loaded.
_SCRIPT = """
import sys

import atlasreg
import atlasreg.cli
from atlasreg import evaluate, generate_phantom, register_affine
from atlasreg.phantom import scaled_spec

target, labels = generate_phantom(scaled_spec((24, 24, 24), seed=1, texture_amplitude=5.0))
floating, _ = generate_phantom(scaled_spec((24, 24, 24), seed=2, modality="bssfp"))
register_affine(target, floating, max_iter=(2, 2, 1))
evaluate(labels, labels)
print(*sorted(m for m in sys.modules
              if m.split(".")[:2] in (["scipy", "ndimage"], ["scipy", "spatial"],
                                      ["scipy", "linalg"])))
"""


def test_the_package_cli_and_workload_calls_load_no_scipy_submodule():
    src = str(Path(atlasreg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""

"""A warm training step reuses the heap: importing shiftseg keeps freed
layer-sized blocks in the process instead of handing them back to the
kernel and faulting them in again on the next step."""
import os
import platform
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PROBE = """
import resource
from shiftseg import trainer

cfg = trainer.TrainConfig(scenes=5, t=0.45)
split, clouds = trainer.default_data(cfg)
batch = [clouds[c] for c in split.train]
state = trainer.init_state(cfg)
for epoch in range(2):
    trainer.train_step(state, batch, cfg, epoch, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for epoch in range(2, 5):
    trainer.train_step(state, batch, cfg, epoch, 0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
def test_a_warm_default_step_takes_few_page_faults():
    # default geometry: with glibc's own thresholds a warm step frees and
    # faults in its layer-sized arrays again (~10,400 minor faults per step)
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    assert float(out.stdout) < 1000

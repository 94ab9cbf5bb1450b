"""Memory of a warm default-geometry training step. It reuses the heap:
importing shiftseg keeps freed layer-sized blocks in the process instead of
handing them back to the kernel and faulting them in again on the next step.
And it keeps little alive at once: the tape holds only what a backward
reads, and the prior's objective is built after the seg update.
`tools/memory_phases.py` prints the traced memory of such a step phase by
phase."""
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


@pytest.fixture(scope="module")
def phase_table():
    """`tools/memory_phases.py`'s table of a run's third step: phase ->
    [live MB, peak MB], and "step" -> [peak MB]."""
    tool = os.path.join(os.path.dirname(__file__), "..", "tools", "memory_phases.py")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, tool], env=env, capture_output=True, text=True,
                         check=True)
    # a 16-character name column, then the numbers
    return {line[:16].strip(): [float(v) for v in line[16:].split()]
            for line in out.stdout.splitlines()[1:]}


def test_a_warm_default_step_keeps_little_alive_at_once(phase_table):
    # traced peak of one warm mode=full step: ≈ 36.1 MB, in the seg
    # backward, since the prior's objective keeps no gathered code rows, no
    # pinned code values and no straight-through residual on its tape, and
    # its codebook gradient is scattered a column at a time (bound: that
    # plus ≈ 15 %); 43.1 MB, in the prior backward, since an mlp node
    # reads a hidden layer's sign mask off the next layer's kept input and
    # the prior's objective derives its float32 code values and
    # straight-through residual from the frozen prior's codes, a float64
    # block of rows at a time; 43.2 MB while the
    # step's record held those values; 55.0 MB when the tape first computed
    # in float32 over float64 master weights;
    # 87.5 MB in float64, each phase of the step (seg build and backward,
    # prior build and backward) at 86-88 MB; 110.4 MB while an mlp backward
    # held all its layers' inputs until it returned and the logged-only
    # augmented CE kept a tape; 179.2 MB when every layer kept its input and
    # the prior's decoder graph sat beside the seg graph
    (step_peak,) = phase_table["step"]
    assert step_peak < 41.5


def test_the_prior_phase_keeps_only_what_its_backward_reads(phase_table):
    # prior build: ≈ 33.4 MB live at its return, now that the tape holds the
    # encoder's and decoder's layer inputs and one difference per squared
    # error; 41.4 MB while it also held the gathered code rows, the pinned
    # code values and the straight-through residual. Prior backward: ≈ 35.1
    # MB peak with the codebook gradient scattered a column at a time; 43.1
    # MB while one bincount read (rows × D) int64 keys and float64 weights
    live, _ = phase_table["prior build"]
    assert live < 36
    _, peak = phase_table["prior backward"]
    assert peak < 38


def test_the_seg_phase_holds_no_prior_values(phase_table):
    # live at the end of the seg build: ≈ 33.6 MB now that the step's record
    # keeps the prior's choices and reads their values from its snapshot;
    # 39.0 MB while it also held the pinned code values and residual
    live, _ = phase_table["seg build"]
    assert live < 35


def test_the_phase_table_traces_each_phase_of_a_step(phase_table):
    phases = {k: v for k, v in phase_table.items() if k != "step"}
    assert list(phases) == ["prepare", "seg build", "seg backward", "prior build",
                            "prior backward"]
    (step_peak,) = phase_table["step"]
    for phase, (live, peak) in phases.items():
        assert 0 < live <= peak <= step_peak, phase

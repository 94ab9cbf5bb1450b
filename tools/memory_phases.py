"""Traced memory of a warm default-geometry training step, phase by phase.

    PYTHONPATH=src python3 tools/memory_phases.py

Trains two warm steps of `TrainConfig(scenes=5, t=0.45)` on the train split,
then traces the third with `tracemalloc`. The phases are told apart by
wrapping, from outside the program, the functions `trainer.train_step`
calls in turn:

- prepare: `trainer.prepare_batch`;
- seg build: `trainer.step_losses`;
- seg backward: the first `tensor.backward`;
- prior build: `trainer.vq_objective`;
- prior backward: the second `tensor.backward`.

For each phase it prints the traced bytes alive when the phase returns and
the traced peak while it runs, in MB (1e6 bytes), then the peak of the
whole step. Only what Python's allocator and numpy report to `tracemalloc`
is counted, not the interpreter's own start-up memory.
"""
from __future__ import annotations

import tracemalloc

from shiftseg import trainer
from shiftseg import tensor as T

PHASES = ("prepare", "seg build", "seg backward", "prior build", "prior backward")
WARM_STEPS = 2


def traced_phases() -> tuple[list[tuple[str, float, float]], float]:
    """(phase, live MB at its return, peak MB while it ran) for each phase
    of the third step, and the peak MB of the whole step."""
    cfg = trainer.TrainConfig(scenes=5, t=0.45)
    split, clouds = trainer.default_data(cfg)
    batch = [clouds[c] for c in split.train]
    state = trainer.init_state(cfg)
    for epoch in range(WARM_STEPS):
        trainer.train_step(state, batch, cfg, epoch, 0)

    measured: list[tuple[int, int]] = []  # (live, peak) bytes per call
    step_peak = 0

    def traced(fn):
        def wrapper(*args, **kwargs):
            nonlocal step_peak
            step_peak = max(step_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            measured.append(tracemalloc.get_traced_memory())
            step_peak = max(step_peak, measured[-1][1])
            return out
        return wrapper

    # a step calls these in the order of PHASES, `backward` twice
    targets = [(trainer, "prepare_batch"), (trainer, "step_losses"), (T, "backward"),
               (trainer, "vq_objective")]
    originals = [getattr(module, name) for module, name in targets]
    for (module, name), fn in zip(targets, originals):
        setattr(module, name, traced(fn))
    tracemalloc.start()
    try:
        trainer.train_step(state, batch, cfg, WARM_STEPS, 0)
        step_peak = max(step_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for (module, name), fn in zip(targets, originals):
            setattr(module, name, fn)
    if len(measured) != len(PHASES):
        raise RuntimeError(f"the step made {len(measured)} traced calls, not {len(PHASES)}")
    rows = [(phase, live / 1e6, peak / 1e6) for phase, (live, peak) in zip(PHASES, measured)]
    return rows, step_peak / 1e6


def main() -> int:
    rows, step_peak = traced_phases()
    print(f"{'phase':<16}{'live MB':>10}{'peak MB':>10}")
    for phase, live, peak in rows:
        print(f"{phase:<16}{live:>10.1f}{peak:>10.1f}")
    print(f"{'step':<16}{'':>10}{step_peak:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""shiftseg: robust point-cloud segmentation training with a quantized
confusion prior and semantic-shift region localization.

Importing shiftseg sets the process's glibc malloc policy once (see below):
blocks up to 32 MiB come from the heap, and the heap is trimmed back to the
kernel only above 1 GiB free. Elsewhere the import changes nothing."""
import ctypes

__version__ = "0.1.0"

# A training step builds and frees dozens of 1-10 MB arrays (a 10,356 x 128
# layer is 10.6 MB). With glibc's defaults each is mmap'd or trimmed back to
# the kernel when freed and faulted in again on the next step: ~10,400 minor
# faults and ~45 ms of kernel time per warm step at the default config.
# Serving blocks up to 32 MiB from the heap (M_MMAP_THRESHOLD, -3) and keeping
# up to 1 GiB of it free (M_TRIM_THRESHOLD, -1) lets the next step reuse them:
# 340-620 faults and 1-5 ms. Either setting alone gives 22k-58k, worse than
# the defaults. No arithmetic changes.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 1 << 30)

"""The reference kernel: a fixed computation timed beside the program's operations.

    python3 perfbench/reference.py

reads one line per request on stdin, runs the kernel once and answers
with its wall seconds on a line of stdout; it ends at end of input.

The host's speed drifts by tens of per cent between minutes, with load
from other guests, and the program's operations drift with it, so run.py
expresses op times in units of this kernel's time (see README,
"Reference speed"). The kernel is a framed FFT analysis and resynthesis
of 8 MB of data, like the program's STFT work, and its data is the same
in every run and every commit. It runs in a process of its own, so that
its arrays neither add to the measuring process's peak RSS nor depend on
the state of that process's heap.
"""

from __future__ import annotations

import sys
import time

import numpy as np


class Kernel:
    FRAMES, WIDTH = 2000, 512

    def __init__(self):
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((self.FRAMES, self.WIDTH))
        self.window = np.hanning(self.WIDTH)

    def run(self):
        spec = np.fft.rfft(self.frames * self.window, axis=1)
        return np.fft.irfft(np.abs(spec) * np.exp(1j * np.angle(spec)), axis=1).sum()

    def seconds(self):
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def main():
    kernel = Kernel()
    kernel.run()  # first touch of the buffers and of the heap
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

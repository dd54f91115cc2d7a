"""Machine-speed reference: a fixed miniature of one trial's numerical work.

The shared 2-core VMs this benchmark runs on change speed by up to ±25%
over tens of seconds as other tenants come and go, and a 20 s run sits
inside one such phase.  Timing this kernel right after every trial and
scaling each time by ``reference_ms / kernel_ms`` takes most of that out:
over ten 20 s runs per workload on a 2-core Xeon VM, raw trials/s, median
trial time and CPU per trial spread by up to 19% (quartile distance over
median) and scaled ones by at most 5.6%.

The kernel does what a trial does, at the trial's sizes: a full-stream FFT,
tap-response exp and inverse FFT (apply_channel), a normal draw of the
stream's length (add_awgn), and a gather of 4096-sample windows followed by
a matrix-vector product (ccp_measure).  It is independent of phasepos, so a
change to the package never moves it.
"""

from __future__ import annotations

import time

import numpy as np
# Bound here, so the benchmark's FFT counters never see the kernel's transforms.
from numpy.fft import fft, fftfreq, ifft

N_FFT = 4096
WINDOWS = 250



def kernel(stream_length: int) -> tuple[float, float]:
    """Wall and CPU milliseconds of one pass over a stream of ``stream_length`` samples.

    Every array is made and freed inside the pass, so the kernel adds nothing
    to the process's resident size between trials and, being smaller than a
    trial's own working set, nothing to its peak.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(stream_length) + 1j * rng.standard_normal(stream_length)
    ifft(fft(x) * np.exp(-2j * np.pi * fftfreq(stream_length) * 3.3))
    starts = np.linspace(0, stream_length - N_FFT, WINDOWS).astype(np.int64)
    x[starts[:, None] + np.arange(N_FFT)] @ np.exp(-2j * np.pi * np.arange(N_FFT) * 17 / N_FFT)
    return (time.perf_counter() - wall) * 1e3, (time.process_time() - cpu) * 1e3

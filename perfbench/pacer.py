"""Machine-speed pacer: a fixed burst of interpreter work every 40 ms.

    python3 perfbench/pacer.py

Prints, one burst a line until terminated, its start on the monotonic clock
and its CPU seconds.
run.py starts it pinned to the same vCPU as each pass, so the bursts run
interleaved with the pass and see the same host contention; run.py divides
each piece of the pass's CPU time by the median cost of the bursts near it
over REF_BURST_S.  Each timed burst follows an untimed one that refills the
caches the pass left holding its own data; pacecheck.py shows that the
slowdown then moves by about 2 % with the work beside it.
"""

import sys
import time

REF_BURST_S = 0.6e-3   # burst cost on an uncontended vCPU (Xeon, 2.1 GHz)


def burst() -> float:
    z, acc = 0.3 + 0.1j, 0.0
    for _ in range(2000):
        z = (z * (0.9 + 0.1j) + 0.05) / (1.0 + 0.01j * z)
        acc += abs(z)
    return acc


if __name__ == "__main__":
    while True:
        t0 = time.monotonic()
        burst()   # refills the caches that the co-pinned pass filled with its own data
        c0 = time.thread_time()
        burst()
        sys.stdout.write(f"{t0} {time.thread_time() - c0}\n")
        sys.stdout.flush()
        time.sleep(0.04)

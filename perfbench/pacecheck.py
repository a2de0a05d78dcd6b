"""Check that the pacer's slowdown does not depend on the work beside it.

    python3 perfbench/pacecheck.py     # about 100 s

run.py divides a pass's CPU times by the slowdown pacer.py sees on the vCPU
it shares with the pass.  If the pass's own memory footprint changed that
reading (the pacer's bursts start with the caches the pass left behind), a
change to the program's footprint would move the divisor as well.  Here one
co-runner, pinned beside the pacer as a pass is, switches every 2 s between
three kinds of work: the orbit engine (`orbit_enumerate` at R = 6, pure
Python), the eigensolver (`fem_eigensolve` on the 27k-node degree-16 cover
mesh of the tower) and a 64 MB numpy stream (a worst case of memory
traffic).  Switching often puts every kind in the same host window.  Prints
the pacer's median slowdown beside each kind; the spread between them is the
share of a time metric that a footprint change can move through the divisor.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from pacer import REF_BURST_S
from run import _pin, child_env

HERE = Path(__file__).resolve().parent
SECONDS = 90.0
PHASE_S = 2.0
SETTLE_S = 0.05   # bursts this close to a switch are not attributed


def corun(seconds: float) -> None:
    """Alternate the three kinds of work, printing 'kind start' at each switch."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    from hypsurf.eigensolve import disc_surface_mesh, fem_eigensolve
    from hypsurf.fuchsian import bolza_group, orbit_enumerate, random_cover
    from hypsurf.geometry import DiscPoint

    bolza = bolza_group()
    mesh = disc_surface_mesh(random_cover(bolza, 16, 0), 0.03)
    big = np.ones(8_000_000)
    kinds = [("orbit", lambda: orbit_enumerate(bolza, DiscPoint(0.0, 0.0), 6.0)),
             ("eigensolve", lambda: fem_eigensolve(mesh, 12)),
             ("stream", lambda: big.sum() + big[::7].sum())]
    end = time.monotonic() + seconds
    k = 0
    while time.monotonic() < end:
        name, work = kinds[k % len(kinds)]
        k += 1
        start = time.monotonic()
        print(name, start, flush=True)
        while time.monotonic() - start < PHASE_S:
            work()
    print("end", time.monotonic(), flush=True)


def main() -> int:
    if sys.argv[1:] == ["--corun"]:
        corun(SECONDS)
        return 0

    with subprocess.Popen([sys.executable, str(HERE / "pacer.py")], stdout=subprocess.PIPE,
                          text=True, preexec_fn=_pin) as pacer:
        try:
            co = subprocess.run([sys.executable, __file__, "--corun"], env=child_env(),
                                stdout=subprocess.PIPE, text=True, preexec_fn=_pin,
                                check=True)
        finally:
            pacer.terminate()
            bursts = [tuple(map(float, line.split()))
                      for line in pacer.communicate()[0].split("\n")[:-1]]
    marks = [(float(t), name) for name, t in (line.split() for line in co.stdout.splitlines())]
    starts = [t for t, _ in marks]
    by_kind: dict = {}
    for t, cost in bursts:
        i = bisect.bisect_right(starts, t) - 1
        if i < 0 or i + 1 >= len(marks) or t - starts[i] < SETTLE_S \
                or starts[i + 1] - t < SETTLE_S:
            continue
        by_kind.setdefault(marks[i][1], []).append(cost)
    slowdowns = {k: median(v) / REF_BURST_S for k, v in by_kind.items()}
    for kind, s in slowdowns.items():
        print(f"{kind:10s} bursts {len(by_kind[kind]):4d}  slowdown {s:.4f}")
    spread = (max(slowdowns.values()) - min(slowdowns.values())) / median(slowdowns.values())
    print(f"spread between kinds: {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

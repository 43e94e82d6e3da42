"""Map attainable precision over vapor density and probe power.

In scan_grid, the 25x25 grid here takes about 6 ms and the shipped CLI scan
config's 50x50 grid about 16 ms (medians of 31 calls on a shared 2-vCPU Xeon,
Python 3.11, numpy 2.4, BLAS on one thread; read them as +-30%). The forward
model turns every (n, P) cell into a spectrum, and the information matrix
gives the best-case variance of each fitted parameter.
Each optimum is the grid cell with the smallest variance, so its location is
known to one grid step. The center-frequency and linewidth variances have
interior optima; the two amplitude variances only degrade as n and P grow.
"""

import numpy as np

from snspec.profiles import (
    REFERENCE_ACQUISITION,
    REFERENCE_INSTRUMENT,
    SCAN_N_RANGE_CM3,
    SCAN_P_RANGE_W,
)
from snspec.scan import find_optimum, scan_grid

n_values = np.linspace(*SCAN_N_RANGE_CM3, 25)
p_values = np.linspace(*SCAN_P_RANGE_W, 25)
sg = scan_grid(n_values, p_values, REFERENCE_INSTRUMENT, REFERENCE_ACQUISITION)

names = {1: "s_ph", 2: "nu_l", 3: "s_at", 4: "delta_nu"}
print(f"{'parameter':>9} {'min variance':>13} {'n [cm^-3]':>10} {'P [mW]':>7}  location")
for index, name in names.items():
    opt = find_optimum(sg, index)
    where = "interior optimum" if opt.interior else "grid edge (monotone)"
    print(
        f"{name:>9} {opt.gamma_min:>13.4g} {opt.n_opt:>10.3g} {opt.p_opt * 1e3:>7.3g}  {where}"
    )

# a coarse picture of the nu_l surface: rows are density (increasing upward),
# columns power; one decade of dynamic range, clipped
surf = sg.surface(2)
lo = np.nanmin(surf)
levels = " .:-=+*#"
print("\nvar(nu_l) landscape (blank = optimum, # = 10x worse or more), n up, P right:")
for row in surf[::-2]:
    frac = np.clip(np.log10(row / lo), 0.0, 1.0)
    cells = (frac * (len(levels) - 1)).round().astype(int)
    print("  " + "".join(levels[c] for c in cells[::2]))

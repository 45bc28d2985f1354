"""Tear-off under a strong load with a threshold on-rate.

A load S = 1e4 stretches the bonds enormously; the stretched bonds die,
the position snaps to the elliptic balance -Lap z = S (a parabola peaking
at S/8 = 1250), and the on-rate switches off wherever z exceeds 1000.
The middle of the domain detaches for good while the flanks, still below
the threshold, regrow to the steady population 1/2.

Writes gnuplot-ready curves into out/ and prints the final region split.
"""

import os
import warnings

import numpy as np

from linkages import run_detachment, validate_config
from linkages.cli import detachment_config
from linkages.grids import build_grids
from linkages.simulate import DETACHMENT_TIMES, MU0_PLOT_FLOOR, write_profile_columns

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    vcfg = validate_config(detachment_config())
sg, _, _ = build_grids(vcfg)
res = run_detachment(vcfg)

os.makedirs("out", exist_ok=True)
zcols, mcols = {}, {}
for t in DETACHMENT_TIMES:
    z, mu0 = res.snapshots[t]
    zcols[f"z(t={t:g})"] = z
    mcols[f"mu0(t={t:g})"] = np.maximum(mu0, MU0_PLOT_FLOOR)
write_profile_columns("out/detachment_z.dat", sg.x, zcols)
write_profile_columns("out/detachment_mu0.dat", sg.x, mcols)

z2, _ = res.snapshots[2e-4]
z3, _ = res.snapshots[3e-4]
print(f"position plateau: {np.max(z3):.1f} (elliptic balance predicts S/8 = 1250)")
print(f"curves at t=2e-4 and 3e-4 differ by {np.max(np.abs(z3 - z2)) / np.max(np.abs(z3)):.2e} relative")
mu = res.final.mu0
print(f"detached nodes: {int(res.dead_mask.sum())}, max population there {np.max(mu[res.dead_mask]):.2e}")
print(f"live flank nodes: {int(res.flank_mask.sum())}, population within "
      f"{np.max(np.abs(mu[res.flank_mask] - 0.5)):.2e} of 1/2")
print("curves written to out/detachment_z.dat and out/detachment_mu0.dat")

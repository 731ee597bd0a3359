"""The cutoff-threshold tradeoff
================================

Sweeping the power-control cutoff rho_o reveals the two competing outage
mechanisms: raising rho_o demands more transmit power, so more UEs hit
the power budget and fall silent (truncation outage rises), while the
active links enjoy a stronger received signal (SINR outage falls).  The
total outage is U-shaped in dB and has an interior optimum rho_o*.

At low rho_o the maximum power is a non-binding constraint, and the SINR
outage curves for different BS intensities collapse onto each other; once
the constraint binds, intensity matters again.
"""

import csv
import math

import numpy as np

from upcell.model import NetworkConfig, TierConfig
from upcell.optimize import refine_optimum, sweep

GRID = (-120.0, -40.0, 81)
INTENSITIES = (2.0, 10.0, 100.0)  # BS/km^2


def config_for(lambda_per_km2):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(lambda_per_km2, -70.0)],
        p_max_watts=1.0,
        noise_dbm=-90.0,
    )


curves = {}
for lam in INTENSITIES:
    cfg = config_for(lam)
    result = sweep(cfg, 0, GRID)
    curves[lam] = result
    rho_star, o_t_star = refine_optimum(cfg, 0, result, tol=0.01)
    print(f"lambda = {lam:6.1f} BS/km^2: optimal cutoff {rho_star:8.2f} dBm, "
          f"minimal total outage {o_t_star:.4f}")

# Where the power budget is slack the SINR outage is intensity-free: the
# lambda = 10 and lambda = 100 curves coincide until truncation kicks in.
rhos = curves[INTENSITIES[0]].values_dbm
coincide = [
    abs(curves[10.0].reports[i].sinr_outage
        - curves[100.0].reports[i].sinr_outage)
    for i in range(len(rhos))
    if curves[100.0].reports[i].truncation_outage < 1e-3
]
print(f"\nnon-binding region: max O_s spread between lambda=10 and "
      f"lambda=100 is {max(coincide):.2e}")

with open("outage_tradeoff.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["rho_o_dbm"] + [
        f"O_t_lambda{lam:g}" for lam in INTENSITIES
    ])
    for i, rho in enumerate(rhos):
        writer.writerow([f"{rho:.4f}"] + [
            f"{curves[lam].reports[i].total_outage:.8f}"
            for lam in INTENSITIES
        ])
print("\nwrote outage_tradeoff.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for lam in INTENSITIES:
        ax.plot(rhos, [r.total_outage for r in curves[lam].reports],
                label=f"$\\lambda = {lam:g}$ BS/km$^2$")
    ax.set_xlabel(r"cutoff threshold $\rho_o$ (dBm)")
    ax.set_ylabel("total outage probability")
    ax.set_ylim(0.0, 1.02)
    ax.grid(alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("outage_tradeoff.png", dpi=150)
    print("wrote outage_tradeoff.png")
except ImportError:
    pass

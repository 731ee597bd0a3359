"""Transmit-power statistics of active uplinks
==============================================

Each active UE inverts its path loss, so its transmit power is
rho_o * r^eta with r the distance to the serving BS.  The density has an
integrable x^(2/eta - 1) singularity at zero (many UEs sit close to a BS)
and is truncated at the power budget P_u.

As the cutoff grows, the mean transmit power climbs and saturates at
P_u / (1 + eta/2): a third of the budget for eta = 4.
"""

import numpy as np

from upcell.analytic import TxPowerDistribution, truncation_outage
from upcell.model import NetworkConfig, TierConfig


def config_for(rho_o_dbm):
    return NetworkConfig.from_engineering(
        tiers=[TierConfig.from_engineering(2.0, rho_o_dbm)],
        p_max_watts=1.0,
        noise_dbm=-90.0,
    )


print(f"{'rho_o (dBm)':>12} {'E[P] (W)':>10} {'truncation prob':>16}")
rhos = np.arange(-90.0, 61.0, 10.0)
means = []
for rho in rhos:
    cfg = config_for(rho)
    dist = TxPowerDistribution(cfg, 0)
    means.append(dist.moment(1.0))
    print(f"{rho:12.0f} {means[-1]:10.4f} {truncation_outage(cfg, 0):16.4f}")

print(f"\nsaturation value P_u/3 = {1/3:.4f} W; "
      f"E[P] at +60 dBm = {means[-1]:.6f} W")

# The density itself, at the paper-style operating point.
dist = TxPowerDistribution(config_for(-70.0), 0)
xs = np.linspace(1e-4, 1.0, 400)
pdf = [dist.pdf(x) for x in xs]
print(f"density at 0.1 W: {dist.pdf(0.1):.4f} /W, "
      f"cdf at P_u: {dist.cdf(1.0):.12f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.6))
    ax1.plot(xs, pdf)
    ax1.set_xlabel("transmit power (W)")
    ax1.set_ylabel("density (1/W)")
    ax1.set_title(r"power density at $\rho_o = -70$ dBm")
    ax1.grid(alpha=0.3)
    ax2.plot(rhos, means, marker="o")
    ax2.axhline(1 / 3, color="gray", ls="--", label=r"$P_u/3$")
    ax2.set_xlabel(r"$\rho_o$ (dBm)")
    ax2.set_ylabel(r"$\mathbb{E}[P]$ (W)")
    ax2.grid(alpha=0.3)
    ax2.legend()
    fig.tight_layout()
    fig.savefig("power_statistics.png", dpi=150)
    print("wrote power_statistics.png")
except ImportError:
    pass

"""Multi-tier networks: common and distinct path-loss exponents
===============================================================

With one shared exponent, a multi-tier deployment behaves like a
single-tier network of the summed intensity whenever all tiers use the
same cutoff; with distinct cutoffs the tiers trade interference against
each other.  Distinct exponents switch the association to a weighted
rule (minimise r^eta_k) and the power law to a mixture whose moments are
integrated numerically.
"""

from upcell import analytic
from upcell.model import NetworkConfig, TierConfig

# Two tiers, common exponent, different cutoffs: a macro tier protecting
# coverage and a dense small-cell tier running a lower cutoff.
common = NetworkConfig.from_engineering(
    tiers=[
        TierConfig.from_engineering(1.0, -65.0, 0.0, 4.0),   # macro
        TierConfig.from_engineering(10.0, -75.0, 0.0, 4.0),  # small cells
    ],
    p_max_watts=1.0,
    noise_dbm=-90.0,
)
print("common exponent, distinct cutoffs:")
for j, name in enumerate(("macro", "small")):
    r = analytic.full_report(common, j)
    print(f"  {name:6s} O_p={r.truncation_outage:.4f} "
          f"O_s={r.sinr_outage:.4f} O_t={r.total_outage:.4f} "
          f"R={r.spectral_efficiency:.3f} nats  E[P]={r.mean_tx_power:.4f} W")

# Same cutoff everywhere: indistinguishable from one merged tier.
merged_tiers = NetworkConfig.from_engineering(
    tiers=[TierConfig.from_engineering(lam, -70.0) for lam in (1.0, 10.0)],
    p_max_watts=1.0, noise_dbm=-90.0,
)
single = NetworkConfig.from_engineering(
    tiers=[TierConfig.from_engineering(11.0, -70.0)],
    p_max_watts=1.0, noise_dbm=-90.0,
)
print("\ncommon cutoff: two tiers vs merged single tier")
print(f"  two-tier O_s = {analytic.sinr_outage(merged_tiers, 0):.10f}")
print(f"  merged   O_s = {analytic.sinr_outage(single, 0):.10f}")

# Distinct exponents: the lower-exponent tier wins a larger service area,
# and every moment goes through the mixture density.
distinct = NetworkConfig.from_engineering(
    tiers=[
        TierConfig.from_engineering(1.0, -65.0, 0.0, 3.2),
        TierConfig.from_engineering(10.0, -75.0, 0.0, 4.0),
    ],
    p_max_watts=1.0,
    noise_dbm=-90.0,
)
print("\ndistinct exponents (3.2 / 4.0):")
for j in (0, 1):
    r = analytic.full_report(distinct, j)
    print(f"  tier {j}: E[P]={r.mean_tx_power:.4f} W, "
          f"O_t={r.total_outage:.4f}, R={r.spectral_efficiency:.3f} nats")

"""How a strongly repulsive inverse-power core shapes the wavefunction at r = 0.

For V(r) = alpha / r^beta with beta > 2, the radial function is driven to zero
at the origin faster than any power: y ~ r^p exp(-gamma r^-delta).  This script
computes (gamma, delta) for a few cores and shows the two defining identities
that pin them down, plus the special exponent p = beta/4 that closes the
leading orders exactly.
"""

from invpower import PotentialMonomial, origin_params, special_p

for alpha, beta in [(1.0, 4.0), (1.0, 6.0), (2.0, 6.0), (0.5, 10.0)]:
    pot = PotentialMonomial(alpha, beta)
    origin = origin_params(pot)
    print(f"V = {alpha}/r^{beta}:")
    print(f"  gamma = {origin.gamma:.12g}, delta = {origin.delta:.12g}")
    print(f"  identity checks: gamma^2 delta^2 - alpha = "
          f"{origin.gamma**2 * origin.delta**2 - alpha:.1e}, "
          f"2 delta + 2 - beta = {2 * origin.delta + 2 - beta:.1e}")
    p = special_p(beta)
    print(f"  special power exponent p = {p}")
    tag = "" if p.is_integer() else " (polydromic: fractional power of r)"
    print(f"  interpolating-function exponent omega = p = {p}{tag}")
    print()

print("The inverse-quartic core (beta = 4) recovers the familiar closed form:")
origin = origin_params(PotentialMonomial(4.0, 4.0))
print(f"  alpha = 4 -> gamma = sqrt(alpha) = {origin.gamma}, delta = 1, "
      f"y ~ r exp(-{origin.gamma}/r)")

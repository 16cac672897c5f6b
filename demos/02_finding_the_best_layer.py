"""Finding the ratio-optimal schedule three independent ways.

For the running example the profit-over-VaR ratio is maximized by a single
layer attaching just below the VaR level.  Three routes agree:

1. the attachment fixed point, where the kernel price at the attachment
   equals the ratio the layer achieves;
2. Dinkelbach iteration restricted to single layers, which finds the best
   truncated stop-loss contract;
3. Dinkelbach iteration over every admissible schedule (alternating an exact
   bang-bang solution of the linearized problem with a ratio update).

A brute-force enumeration over cell grids cross-checks the continuum answer.
"""

from layeropt import (
    Exponential,
    MarketSpec,
    best_truncated_stop_loss,
    dinkelbach_optimize,
    discrete_bruteforce_oracle,
    quadratic_kernel,
    solve_attachment_fixed_point,
)

model = Exponential(1.0)
kernel = quadratic_kernel(c=0.5, gamma_r=0.1)
market = MarketSpec(gamma=0.1, epsilon=0.05)
x_eps = model.var_level(market.epsilon)

fixed = solve_attachment_fixed_point(model, kernel, market)
print(f"fixed point: attachment {fixed.attachment:.6f}, ratio {fixed.ratio:.6f}")
print(f"  kernel price there: {kernel.k(model.cdf(fixed.attachment)):.6f} (equal by construction)")

tsl = best_truncated_stop_loss(model, kernel, market)
layer = tsl.schedule.layers()[0]
print(f"best stop loss: ({layer.attachment:.6f}, {layer.detachment:.6f}), ratio {tsl.valuation.ratio:.6f}")

dink = dinkelbach_optimize(model, kernel, market)
print(f"dinkelbach: {dink.classification}, ratio {dink.valuation.ratio:.6f}")
print(f"  multiplier trace: {[f'{m:.6f}' for m in dink.mu_trace]}")
print()

# Enumeration over 2^n bang-bang cell assignments.  The optimal layer here is
# narrower than a twelfth of the VaR level, so coarse grids settle for
# no-cession; their best ratio still sits within grid resolution of the
# continuum optimum.
for n in (8, 12, 16):
    oracle = discrete_bruteforce_oracle(model, kernel, market, n_cells=n, x_max=x_eps)
    err = abs(oracle.valuation.ratio - dink.valuation.ratio)
    print(f"oracle n={n:2d}: {oracle.classification:12s} ratio {oracle.valuation.ratio:.6f} (gap {err:.1e})")
print()

# Under CVaR the baseline prefers no cession at all: every price in the
# kernel exceeds what the achievable ratio can pay near the tail.
cvar = dinkelbach_optimize(model, kernel, MarketSpec(gamma=0.1, epsilon=0.05, risk_measure="cvar"))
print(f"cvar optimum: {cvar.classification}, ratio {cvar.valuation.ratio:.6f}")

# With a cheap, nearly flat kernel and a larger loading the CVaR optimum is a
# stop loss without upper limit.
cheap = quadratic_kernel(c=0.15, gamma_r=0.3)
cvar2 = dinkelbach_optimize(model, cheap, MarketSpec(gamma=0.3, epsilon=0.10, risk_measure="cvar"))
layer = cvar2.schedule.layers()[0]
print(f"cvar, cheap kernel: layer ({layer.attachment:.4f}, {layer.detachment}), ratio {cvar2.valuation.ratio:.6f}")

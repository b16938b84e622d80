"""Training loss assembly: outcome, covariate, treatment and ELBO terms.

The total is L = L_y + alpha * L_elbo + gamma * L_x + lambda * L_a.  Outcome
and covariate terms are mean squared errors in raw units over every step with
a target; the treatment term is binary cross-entropy from logits; the ELBO
term is the summed reconstruction NLL plus KL, normalized per episode and
burn-in step.  Zero weights still route gradients (multiply by zero), so
parameter coverage is independent of the weight values.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .model import StepOutput


@dataclass
class LossWeights:
    alpha: float = 0.1
    gamma: float = 0.1
    lam: float = 0.1

    def validate(self) -> "LossWeights":
        if self.alpha < 0 or self.gamma < 0 or self.lam < 0:
            raise ConfigError("loss weights must be nonnegative")
        return self


def bce_with_logits(logits, targets):
    """Mean binary cross-entropy, computed stably from logits.

    softplus(x) - x * t is exact for t in {0, 1} and avoids log(sigmoid).
    """
    logits = T._lift(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.array.shape != targets.shape:
        raise ContractError("bce_with_logits shape mismatch")
    per = T.sub(T.softplus(logits), T.mul(logits, targets))
    return T.mean(per)


def loss_components(steps: list[StepOutput], x_local, x_global, outcome,
                    treatment):
    """Per-term losses of one factual rollout's steps as tape scalars.

    Returns a dict with l_y, l_x, l_a, l_elbo; covariate targets exist for
    steps t with t+1 < T, outcome and treatment targets for every step.
    Each ELBO term (kl, recon, and gv_crn's g_kl and g_recon) is summed
    over the steps that hold it, in step order; l_elbo divides the sums by
    the batch size times the number of steps holding a recon term.
    """
    x_local = np.asarray(x_local, dtype=np.float64)
    x_global = np.asarray(x_global, dtype=np.float64)
    outcome = np.asarray(outcome, dtype=np.float64)
    treatment = np.asarray(treatment, dtype=np.float64)
    b, n_steps = outcome.shape
    if len(steps) != n_steps:
        raise ContractError("rollout length does not match targets")

    y_seq = T.concat([so.y_hat for so in steps], 1)    # (B, T)
    l_y = T.mean(T.square(T.sub(y_seq, outcome)))

    sq_sum = None
    for t in range(n_steps - 1):
        d_loc = T.sub(steps[t].x_loc_hat, x_local[:, t + 1])
        d_g = T.sub(steps[t].x_g_hat, x_global[:, t + 1])
        part = T.add(T.tsum(T.square(d_loc)), T.tsum(T.square(d_g)))
        sq_sum = part if sq_sum is None else T.add(sq_sum, part)
    n_x = b * (n_steps - 1) * (x_local.shape[2] * 5 + 1)
    l_x = T.mul(sq_sum, 1.0 / n_x)

    logit_seq = T.concat([so.a_logits for so in steps], 1)
    l_a = bce_with_logits(logit_seq, treatment)

    def term_sum(name):
        total = T._lift(0.0)
        for so in steps:
            if getattr(so, name) is not None:
                total = T.add(total, getattr(so, name))
        return total

    denom = max(1, b * sum(so.recon is not None for so in steps))
    l_elbo = T.mul(T.add(term_sum("recon"), term_sum("kl")), 1.0 / denom)
    if any(so.g_kl is not None or so.g_recon is not None for so in steps):
        l_elbo = T.add(l_elbo, T.mul(T.add(term_sum("g_recon"),
                                           term_sum("g_kl")), 1.0 / denom))
    return {"l_y": l_y, "l_x": l_x, "l_a": l_a, "l_elbo": l_elbo}


def loss_total(steps: list[StepOutput], x_local, x_global, outcome,
               treatment, weights: LossWeights):
    """Weighted total loss; returns (scalar tensor, float component dict)."""
    weights.validate()
    parts = loss_components(steps, x_local, x_global, outcome, treatment)
    total = T.add(parts["l_y"],
                  T.add(T.mul(parts["l_elbo"], weights.alpha),
                        T.add(T.mul(parts["l_x"], weights.gamma),
                              T.mul(parts["l_a"], weights.lam))))
    floats = {k: float(v.array) for k, v in parts.items()}
    floats["total"] = float(total.array)
    return total, floats

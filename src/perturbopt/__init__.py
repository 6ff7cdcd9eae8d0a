"""Policies that chain a parametric score model with a linear combinatorial
oracle, smoothed by Gaussian perturbation, trained by empirical regularized
risk minimization.

Subpackages and modules:

- ``polytopes``: solution polytopes, linear maximization oracles, normal-fan
  geometry (internal radius, tie-splitting measure).
- ``problems``: instance generators, feature maps and black-box cost oracles
  for the scheduling / vehicle-scheduling / contextual domains.
- ``model``: generalized linear score models over a compact parameter box.
- ``perturb``: the Gaussian perturbation law, smoothed policy probabilities,
  regularized risks with common random numbers, and the tail mass V.
- ``ksos``: kernel sum-of-squares global minimization with an a-posteriori
  optimality certificate, plus baseline optimizers.
- ``theory``: empirical verification of the perturbation-bias, empirical
  process, Lipschitz and tail bounds.
- ``harness``: config, CLI, sweeps, manifests.
- ``kernels``: the scheduling domain's fused numpy batch kernel (oracle plus
  completion-time cost).
"""

__version__ = "0.1.0"

"""Generalized linear score models over a compact parameter box."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Instance, feature_matrix


class ParamOutsideBox(ValueError):
    pass


@dataclass(frozen=True)
class ParamSpace:
    """A compact box in R^d (a box is a union of closed balls, so the
    optimizer's covering assumption holds)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box must be bounded")
        if not np.all(lo < hi):
            raise ValueError("box must have nonempty interior")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def symmetric(cls, d: int) -> "ParamSpace":  # the box [-1, 1]^d
        return cls(-np.ones(d), np.ones(d))

    @property
    def d(self) -> int:
        return len(self.lower)

    def contains(self, w, atol: float = 0.0) -> bool:
        w = np.asarray(w, dtype=np.float64)
        return bool(
            w.shape == (self.d,)
            and np.all(w >= self.lower - atol)
            and np.all(w <= self.upper + atol)
        )

    def project(self, w) -> np.ndarray:
        return np.clip(np.asarray(w, dtype=np.float64), self.lower, self.upper)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((size, self.d))
        return self.lower[None, :] + u * (self.upper - self.lower)[None, :]

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def radius(self) -> float:
        """Euclidean radius of the smallest origin-centered ball covering
        the box (used in the covering-number bound)."""
        corner = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return float(np.linalg.norm(corner))

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


@dataclass
class GeneralizedLinearModel:
    """theta = Phi(x) w with a declared uniform operator-norm bound.

    ``builder`` maps an instance to its (d(G), d) feature matrix; the
    declared ``lipschitz_bound`` must dominate |Phi(x)|_op on every
    generated instance, and model_for_instances makes it exactly the
    largest one.
    """

    d: int
    lipschitz_bound: float
    builder: object = None

    def feature_matrix(self, x: Instance) -> np.ndarray:
        phi = (
            self.builder(x) if self.builder is not None else feature_matrix(x, d_model=self.d)
        )
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (x.dim, self.d):
            raise ValueError(f"feature matrix has shape {phi.shape}, want {(x.dim, self.d)}")
        return phi

    def check_param(self, w, space: ParamSpace | None = None) -> np.ndarray:
        """w as a float64 array, after the shape and box checks of predict."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.d,):
            raise ValueError(f"parameter has shape {w.shape}, want ({self.d},)")
        if space is not None and not space.contains(w, atol=1e-12):
            raise ParamOutsideBox(f"w={w} outside the parameter box")
        return w

    def predict(self, w, x: Instance, space: ParamSpace | None = None) -> np.ndarray:
        return self.feature_matrix(x) @ self.check_param(w, space)


def model_for_instances(instances, d: int, builder=None) -> GeneralizedLinearModel:
    """Build a model whose Lipschitz bound is the exact max operator norm
    over the given instances: one batched SVD per feature-matrix shape,
    each matrix's norm the bits of its own np.linalg.norm(phi, ord=2)."""
    model = GeneralizedLinearModel(d=d, lipschitz_bound=np.inf, builder=builder)
    by_shape = {}
    for x in instances:
        phi = model.feature_matrix(x)
        by_shape.setdefault(phi.shape, []).append(phi)
    ops = (np.linalg.norm(np.stack(phis), ord=2, axis=(1, 2)).max() for phis in by_shape.values())
    model.lipschitz_bound = float(max(ops))
    return model


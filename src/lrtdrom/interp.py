"""Local Lagrange interpolation in parameter space.

For each parameter axis, an interpolation scheme picks the ``p`` grid
nodes nearest to the query value and builds the Lagrange weights of that
stencil as a plain float array over the full axis, zero off the stencil
(one nonzero at a grid node). Queries outside the grid's bounding box are
rejected; the scheme never extrapolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .tensors import ParameterGrid


@dataclass(frozen=True)
class InterpolationScheme:
    """Grid plus stencil size ``p`` (number of nodes, order p - 1)."""

    grid: ParameterGrid
    p: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("stencil needs at least one node")
        for k in self.grid.counts:
            if self.p > k:
                raise ValueError(
                    f"stencil size {self.p} exceeds axis node count {k}"
                )


def lagrange_weights(value: float, nodes: np.ndarray, p: int) -> np.ndarray:
    """Weights of the p-node Lagrange stencil nearest to ``value``.

    One weight per node, zero off the stencil; the weights sum to one.
    The stencil is the ``p`` nodes closest to ``value`` (ties resolved
    toward lower index). At a grid node the result is exactly the
    indicator of that node. Values outside [nodes[0], nodes[-1]] raise
    DomainError.
    """
    nodes = np.asarray(nodes, dtype=float)
    if not (nodes[0] <= value <= nodes[-1]):
        raise DomainError(
            f"value {value} outside grid range [{nodes[0]}, {nodes[-1]}]"
        )
    dist = np.abs(nodes - value)
    chosen = np.sort(np.argsort(dist, kind="stable")[:p])
    values = np.zeros(nodes.size)
    exact = np.flatnonzero(dist == 0.0)
    if exact.size:
        values[exact[0]] = 1.0
        return values
    # ratio[k, j] = (value - x_j) / (x_k - x_j); the diagonal is exactly 1
    # (value is no node here), so row products are the Lagrange weights.
    x = nodes[chosen]
    num = value - x
    den = x[:, None] - x[None, :]
    np.fill_diagonal(den, num)
    values[chosen] = np.prod(num / den, axis=1)
    return values


def weight_vectors(
    alpha: Sequence[float], scheme: InterpolationScheme
) -> tuple[np.ndarray, ...]:
    """One weight vector per parameter axis for the query point ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (scheme.grid.n_params,):
        raise DomainError(
            f"expected {scheme.grid.n_params} parameters, got shape {alpha.shape}"
        )
    return tuple(
        lagrange_weights(float(alpha[d]), scheme.grid.axes[d], scheme.p)
        for d in range(scheme.grid.n_params)
    )


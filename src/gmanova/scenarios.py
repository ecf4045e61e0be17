"""Canonical designs for the named special cases.

Each builder returns a validated Scenario whose design admits balancing
weights, so the bias-corrected test is well defined.  The particular
contrast bases are canonical choices (last-level reference coding for L,
first differences for the parallelism R, orthonormal polynomials for the
growth-curve B); the test is invariant to the basis, only the null space
matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignSpec, Structured
from .errors import ConfigError, DesignError

EFFECTS = ("main_a", "main_b", "interaction")
SCENARIO_NAMES = ("one-way", "two-way", "profile-parallelism", "growth-curve")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named design together with a plain-language statement of its null."""

    name: str
    design: DesignSpec
    null_description: str


def _ones_blocks(group_sizes) -> np.ndarray:
    sizes = [int(n) for n in group_sizes]
    N = sum(sizes)
    A = np.zeros((N, len(sizes)))
    off = 0
    for j, n in enumerate(sizes):
        A[off:off + n, j] = 1.0
        off += n
    return A


def _reference_contrasts(m: int) -> np.ndarray:
    """(m-1) x m contrasts of every level against the last."""
    return np.hstack([np.eye(m - 1), -np.ones((m - 1, 1))])


def _check_groups(group_sizes, minimum_groups: int = 2):
    sizes = tuple(int(n) for n in group_sizes)
    if len(sizes) < minimum_groups:
        raise ConfigError(f"need at least {minimum_groups} groups, got {len(sizes)}")
    if any(n < 1 for n in sizes):
        raise ConfigError(f"group sizes must be positive, got {sizes}")
    return sizes


def _check_p(p) -> int:
    if int(p) < 1:
        raise ConfigError(f"p must be a positive number of responses, got {p}")
    return int(p)


def one_way_manova(group_sizes, p: int) -> Scenario:
    """Equality of all group mean vectors for p responses."""
    sizes = _check_groups(group_sizes)
    p, g = _check_p(p), len(sizes)
    design = DesignSpec(A=_ones_blocks(sizes), B=Structured("identity", p),
                        L=_reference_contrasts(g), R=Structured("identity", p),
                        group_sizes=sizes)
    return Scenario(name="one-way",
                    design=design,
                    null_description=f"all {g} group mean vectors are equal")


def two_way_manova(levels_a: int, levels_b: int, cell_sizes, p: int,
                   effect: str) -> Scenario:
    """One effect of a crossed two-level-factor layout, cells as groups.

    Cells are ordered with the second factor varying fastest; every cell is
    its own covariance group.
    """
    a, b, p = int(levels_a), int(levels_b), _check_p(p)
    if a < 2 or b < 2:
        raise ConfigError(f"both factors need at least 2 levels, got {a} x {b}")
    if effect not in EFFECTS:
        raise ConfigError(f"effect must be one of {EFFECTS}, got {effect!r}")
    sizes = tuple(int(n) for n in cell_sizes)
    if len(sizes) != a * b:
        raise DesignError(f"{a}x{b} layout needs {a * b} cell sizes, got {len(sizes)}")
    if any(n < 1 for n in sizes):
        raise DesignError(f"empty cell in sizes {sizes}")
    Ca = _reference_contrasts(a)
    Cb = _reference_contrasts(b)
    avg_a = np.full((1, a), 1.0 / a)
    avg_b = np.full((1, b), 1.0 / b)
    if effect == "main_a":
        L = np.kron(Ca, avg_b)
        null = f"no main effect of the first factor ({a} levels)"
    elif effect == "main_b":
        L = np.kron(avg_a, Cb)
        null = f"no main effect of the second factor ({b} levels)"
    else:
        L = np.kron(Ca, Cb)
        null = "no interaction between the two factors"
    design = DesignSpec(A=_ones_blocks(sizes), B=Structured("identity", p), L=L,
                        R=Structured("identity", p), group_sizes=sizes)
    return Scenario(name="two-way", design=design, null_description=null)


def profile_parallelism(group_sizes, p: int) -> Scenario:
    """Parallel mean profiles: group differences constant across the p
    coordinates (first-difference R annihilates constant shifts)."""
    sizes = _check_groups(group_sizes)
    p = _check_p(p)
    if p < 2:
        raise ConfigError(f"profiles need p >= 2 coordinates, got {p}")
    g = len(sizes)
    design = DesignSpec(A=_ones_blocks(sizes), B=Structured("identity", p),
                        L=_reference_contrasts(g), R=Structured("differences", p),
                        group_sizes=sizes)
    return Scenario(name="profile-parallelism",
                    design=design,
                    null_description=f"the {g} group mean profiles are parallel")


def polynomial_basis(p: int, degree: int) -> np.ndarray:
    """Orthonormal polynomial basis on p equispaced points, p x (degree+1)."""
    p = int(p)
    degree = int(degree)
    if degree < 0:
        raise ConfigError(f"degree must be non-negative, got {degree}")
    if degree + 1 > p:
        raise DesignError(f"degree {degree} needs at least {degree + 1} points, got p={p}")
    t = np.linspace(-1.0, 1.0, p) if p > 1 else np.zeros(1)
    V = t[:, None] ** np.arange(degree + 1)
    Q, Rq = np.linalg.qr(V)
    signs = np.sign(np.diag(Rq))
    signs[signs == 0] = 1.0
    return Q * signs


def growth_curve(group_sizes, p: int, degree: int) -> Scenario:
    """Equal polynomial growth-curve coefficients across groups."""
    sizes = _check_groups(group_sizes)
    g = len(sizes)
    B = polynomial_basis(_check_p(p), degree)
    design = DesignSpec(A=_ones_blocks(sizes), B=B,
                        L=_reference_contrasts(g), R=np.eye(int(degree) + 1),
                        group_sizes=sizes)
    return Scenario(name="growth-curve",
                    design=design,
                    null_description=(f"all {g} groups share the same degree-"
                                      f"{int(degree)} growth-curve coefficients"))

"""Scalar fields that only the tests need."""

from __future__ import annotations

import numpy as np

from graphmass.jets import Jet3, ScalarField


def flux_field(field: ScalarField, points) -> np.ndarray:
    """V_j = (f_ii f_j - f_ij f_i) / W, W = 1 + |grad f|^2, from the
    field's jet: the field whose flat divergence is the scalar curvature."""
    jet = field.jet3_many(points)
    g, H = jet.grad, jet.hess
    W = 1.0 + np.einsum("...i,...i->...", g, g)
    tr = np.einsum("...ii->...", H)
    Hg = np.einsum("...ij,...j->...i", H, g)
    return (tr[..., None] * g - Hg) / W[..., None]


class RotatedField(ScalarField):
    """h(x) = f(Qx) for an orthogonal matrix Q."""

    def __init__(self, base: ScalarField, rotation: np.ndarray):
        Q = np.asarray(rotation, float)
        if Q.shape != (base.n, base.n):
            raise ValueError("rotation shape mismatch")
        if not np.allclose(Q @ Q.T, np.eye(base.n), atol=1e-12):
            raise ValueError("matrix is not orthogonal")
        self.base = base
        self.Q = Q
        self.n = base.n

    def value(self, points):
        return self.base.value(np.asarray(points, float) @ self.Q.T)

    def jet3_many(self, points, order=3):
        j = self.base.jet3_many(np.asarray(points, float) @ self.Q.T,
                                order=order)
        Q = self.Q
        third = (None if j.third is None else
                 np.einsum("...abc,ai,bj,ck->...ijk", j.third, Q, Q, Q))
        return Jet3(j.value,
                    np.einsum("...a,ai->...i", j.grad, Q),
                    np.einsum("...ab,ai,bj->...ij", j.hess, Q, Q),
                    third)


class CountingField(ScalarField):
    """Forwards to ``base`` and counts every request for derivatives and
    the points of the radial ones, so a radial base keeps its radial
    curvature route and its radial bulk shells.  ``scalar_curvature``
    asks for the radial derivatives first, so ``points`` counts the
    points of every curvature request, on an expression base too;
    ``jet_points`` counts the points of every jet and ``value_points``
    those of every value request."""

    def __init__(self, base: ScalarField):
        self.base, self.n, self.calls, self.points = base, base.n, 0, 0
        self.jet_points = self.value_points = 0

    def value(self, points):
        self.value_points += len(points)
        return self.base.value(points)

    def jet3_many(self, points, order=3):
        self.calls += 1
        self.jet_points += len(points)
        return self.base.jet3_many(points, order=order)

    def radial_derivatives(self, points):
        self.calls += 1
        self.points += len(points)
        return self.base.radial_derivatives(points)

    def radial_about(self, center, r_lo, r_hi):
        return self.base.radial_about(center, r_lo, r_hi)


def loop_fd_jet(field: ScalarField, x, h: float) -> Jet3:
    """Central-difference jet at one point with one step, one stencil
    point at a time: the reference for ``jets.fd_jet``'s tables."""
    x = np.asarray(x, float)
    n = x.shape[-1]
    offsets: dict[tuple[int, ...], int] = {}
    points: list[np.ndarray] = []

    def at(*steps: tuple[int, int]) -> int:
        """Index of the evaluation point x + h * sum(step_e * e_i)."""
        key = tuple(sorted(steps))
        if key not in offsets:
            p = x.copy()
            for axis, mult in steps:
                p[axis] += mult * h
            offsets[key] = len(points)
            points.append(p)
        return offsets[key]

    center = at()
    for i in range(n):
        at((i, 1)), at((i, -1)), at((i, 2)), at((i, -2))
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    at((i, si), (j, sj))
            for k in range(j + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        for sk in (1, -1):
                            at((i, si), (j, sj), (k, sk))

    vals = np.asarray(field.value(np.stack(points)), float)

    def v(*steps):
        return vals[at(*steps)]

    grad = np.zeros(n)
    hess = np.zeros((n, n))
    third = np.zeros((n, n, n))
    for i in range(n):
        grad[i] = (v((i, 1)) - v((i, -1))) / (2 * h)
        hess[i, i] = (v((i, 1)) - 2 * vals[center] + v((i, -1))) / h ** 2
        third[i, i, i] = (v((i, 2)) - 2 * v((i, 1)) + 2 * v((i, -1))
                          - v((i, -2))) / (2 * h ** 3)
        for j in range(n):
            if j == i:
                continue
            t = (v((i, 1), (j, 1)) - 2 * v((j, 1)) + v((i, -1), (j, 1))
                 - v((i, 1), (j, -1)) + 2 * v((j, -1))
                 - v((i, -1), (j, -1))) / (2 * h ** 3)
            third[i, i, j] = third[i, j, i] = third[j, i, i] = t
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                v((i, 1), (j, 1)) - v((i, 1), (j, -1))
                - v((i, -1), (j, 1)) + v((i, -1), (j, -1))) / (4 * h ** 2)
            for k in range(j + 1, n):
                acc = 0.0
                for si in (1, -1):
                    for sj in (1, -1):
                        for sk in (1, -1):
                            acc += si * sj * sk * v((i, si), (j, sj), (k, sk))
                t = acc / (8 * h ** 3)
                for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i),
                             (k, i, j), (k, j, i)):
                    third[perm] = t
    return Jet3(np.asarray(vals[center]), grad, hess, third)

"""Scalar fields that only the tests need."""

from __future__ import annotations

import numpy as np

from graphmass.jets import Jet3, ScalarField


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
    ``jet_points`` counts the points of every jet."""

    def __init__(self, base: ScalarField):
        self.base, self.n, self.calls, self.points = base, base.n, 0, 0
        self.jet_points = 0

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

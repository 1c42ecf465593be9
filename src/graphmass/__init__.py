"""Mass and curvature checks for asymptotically flat graph metrics.

The induced metric of the graph of f over R^n is delta + df x df.  This
package evaluates its scalar curvature through two independent routes,
estimates the ADM mass as a boundary flux and as a bulk integral,
measures horizon boundary terms and quermassintegral bounds, and wires
the pieces into scenario-level positive-mass and Penrose-type checks.
"""

__version__ = "0.1.0"

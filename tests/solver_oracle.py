"""The scipy calls the solvers made before they needed numpy alone, kept as a test oracle.

``decegy.fitting`` routes its dense linear algebra through three kernels:
``_lstsq`` (minimum-norm least squares, used by the active-set pass, the
dogleg step and HL1's preliminary fit), ``_pivoted_qr`` and
``_back_substitute`` (the free linear fit).  Inside :func:`scipy_solvers`
those names are bound to the scipy calls that used to stand in their place,
so every fitting function runs today's code around yesterday's kernels.
``test_solver_oracle.py`` compares the two paths.
"""

from __future__ import annotations

from unittest import mock

import scipy.linalg

from decegy import fitting


def lstsq(A, b):
    x, *_ = scipy.linalg.lstsq(A, b, lapack_driver="gelsd")
    return x


def pivoted_qr(A):
    return scipy.linalg.qr(A, mode="economic", pivoting=True)


def back_substitute(R, b):
    return scipy.linalg.solve_triangular(R, b, check_finite=False)


def scipy_solvers():
    """Context manager under which ``decegy.fitting`` solves with scipy."""
    return mock.patch.multiple(
        fitting, _lstsq=lstsq, _pivoted_qr=pivoted_qr, _back_substitute=back_substitute
    )

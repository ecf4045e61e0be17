"""A dense N x N omega in the class form the package reads, for tests that
compare the two forms."""

import numpy as np

from gmanova.design import ClassWeights, RowClasses


def one_row_classes(omega, group_sizes) -> ClassWeights:
    """ClassWeights holding a dense N x N omega as N one-row classes (its
    diagonal, which no pair of distinct rows reads, is ignored).  Only the
    classes and omega are set: the block sums and the diagnostics read no
    other field."""
    omega = np.asarray(omega, dtype=float)
    rows = np.arange(omega.shape[0])
    classes = RowClasses(index=rows, first=rows, sizes=np.ones(rows.size, dtype=np.intp),
                         group=np.repeat(np.arange(len(group_sizes)), group_sizes))
    return ClassWeights(classes=classes, pi_a=None, pi_h=None, omega=omega)

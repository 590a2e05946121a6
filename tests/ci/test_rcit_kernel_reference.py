"""RCIT's group kernel against the projector kernel it replaced.

The group kernel used to residualise through an explicit ``m_z x n``
projector, the Gram inverse applied to all of ``fz.T``.  It now solves
against ``fz.T @ f`` through the same Cholesky factor, which is the same
algebra reassociated: results are no longer bitwise identical to the old
kernel, so the contract that replaces bitwise identity is recorded here.
Statistics and p-values agree with the projector kernel, copied below as
the reference, to ``rtol=1e-9`` on random tables with |Z| in {0, 1, 2, 4}
and X blocks of mixed cardinality.

Tables have more rows than the 100 Z features.  With fewer rows the ridge
Gram (``1e-10 * n`` on the diagonal) is nearly singular, and any two
orderings of the same solve part by more: up to ~4e-9 relative on
60-row tables with |Z| = 4.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from repro.ci.base import CIQuery
from repro.ci.rcit import RCIT
from repro.data.table import Table

RTOL = 1e-9


def projector_group_eval(tester, table, y_names, z_names, x_blocks):
    """The projector kernel, as ``RCIT._group_eval`` computed it before."""
    n = table.n_rows
    fy = tester._features_for(table, y_names,
                              tester._n_features_for(len(y_names)))
    fz = projector = None
    if z_names:
        fz = tester._features_for(table, z_names, tester.n_features_z)
        gram = fz.T @ fz + tester.ridge * n * np.eye(fz.shape[1])
        projector = cho_solve(cho_factor(gram), fz.T)
        fy = fy - fz @ (projector @ fy)
    cov_y = fy.T @ fy / n
    eig_y = np.maximum(np.linalg.eigvalsh(cov_y), 0.0)

    out = [None] * len(x_blocks)
    by_cardinality = {}
    for j, names in enumerate(x_blocks):
        by_cardinality.setdefault(len(names), []).append(j)
    for members in by_cardinality.values():
        fx = tester._stacked_x_features(table,
                                        [x_blocks[j] for j in members])
        if fz is not None:
            fx = fx - np.matmul(fz, np.matmul(projector, fx))
        for slot, j in enumerate(members):
            out[j] = tester._query_pvalue(fx[slot], fy, eig_y, n)
    return out


@st.composite
def groups(draw):
    """A random table plus one ``(Y, Z)`` group of mixed-width X blocks."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    n_rows = draw(st.integers(min_value=120, max_value=400))
    n_z = draw(st.sampled_from([0, 1, 2, 4]))
    rng = np.random.default_rng(seed)
    zs = {f"z{i}": rng.normal(size=n_rows) for i in range(n_z)}
    driver = sum(zs.values(), np.zeros(n_rows))
    data = {"y": np.tanh(driver) + rng.normal(size=n_rows), **zs}
    n_features = 6
    for i in range(n_features):
        data[f"f{i}"] = rng.normal(size=n_rows) + (
            0.8 * np.cos(driver) if i % 2 == 0 else 0.0)
    widths = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=1, max_size=5))
    blocks = []
    for width in widths:
        start = draw(st.integers(min_value=0, max_value=n_features - width))
        blocks.append(tuple(f"f{i}" for i in range(start, start + width)))
    return Table(data), tuple(sorted(zs)), blocks


class TestProjectorKernelReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(group=groups(), seed=st.integers(min_value=0, max_value=1000))
    def test_group_kernel_matches_projector_kernel(self, group, seed):
        table, z_names, blocks = group
        tester = RCIT(seed=seed)
        new = tester._group_eval(table, ("y",), z_names, blocks)
        old = projector_group_eval(tester, table, ("y",), z_names, blocks)
        for (p_new, stat_new), (p_old, stat_old) in zip(new, old):
            np.testing.assert_allclose(stat_new, stat_old, rtol=RTOL)
            np.testing.assert_allclose(p_new, p_old, rtol=RTOL)

    def test_public_verdicts_match_projector_kernel(self):
        rng = np.random.default_rng(8)
        n = 400
        z = rng.normal(size=n)
        table = Table({"z": z, "y": z ** 2 + rng.normal(size=n),
                       "a": np.sin(z) + rng.normal(size=n),
                       "b": rng.normal(size=n)})
        tester = RCIT(seed=2)
        queries = [CIQuery.make("a", "y", ("z",)),
                   CIQuery.make(("a", "b"), "y", ("z",))]
        old = projector_group_eval(tester, table, ("y",), ("z",),
                                   [q.x for q in queries])
        for query, (p_old, stat_old) in zip(queries, old):
            result = tester.test(table, query.x, query.y, query.z)
            np.testing.assert_allclose(result.statistic, stat_old,
                                       rtol=RTOL)
            np.testing.assert_allclose(result.p_value, p_old, rtol=RTOL)

"""Absorption probabilities and expected hitting times.

Implements the classic absorbing-chain analysis used to *measure*
Theorems 7-9 and the paper's future-work question (expected stabilization
time of transformed algorithms):

* :func:`absorption_probabilities` — probability of ever reaching the
  target set, per state.  Probabilistic self-stabilization (Definition 2)
  means this is 1 everywhere.
* :func:`expected_hitting_times` — mean number of steps to reach the
  target, per state (``inf`` where absorption is uncertain).
* :func:`hitting_summary` — the aggregate a paper table would report:
  worst-case and average expected time over all initial configurations.

All three consume the chain's CSR arrays directly — the backward
closure is a sparse-transpose BFS over ``(indices, indptr)``, and every
transient-block solve goes through one :class:`TransientPlan` — no
per-state Python dict walking.  The plan depends only on the sparsity
pattern and the solve set, so
:class:`~repro.markov.parametric.ParametricChain` builds it once per
target and refactors per parameter point with the same code (and
therefore the same bits) as a concrete chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from repro.errors import MarkovError
from repro.markov.chain import MarkovChain, concat_ranges

__all__ = [
    "absorption_probabilities",
    "expected_hitting_times",
    "HittingSummary",
    "hitting_summary",
    "ABSORPTION_TOLERANCE",
]

#: States with absorption probability below ``1 - ABSORPTION_TOLERANCE``
#: are treated as having infinite expected hitting time.
ABSORPTION_TOLERANCE = 1e-8

#: ``I - Q`` is factored densely when its non-zeros fill at least
#: ``1 / _DENSE_FILL_DIVISOR`` of the ``m × m`` block, sparsely below —
#: which also caps the dense array at ``_DENSE_FILL_DIVISOR · nnz``
#: floats.
_DENSE_FILL_DIVISOR = 20


def _target_vector(num_states: int, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=bool)
    if target.shape != (num_states,):
        raise MarkovError(
            f"target mask has shape {target.shape},"
            f" expected ({num_states},)"
        )
    if not target.any():
        raise MarkovError("target set is empty")
    return target


class TransientPlan:
    """Structure-once solve plan for ``(I - Q) x = b`` on one solve set.

    Built from a CSR pattern ``(indices, indptr)`` (columns sorted and
    unique per row) and the sorted ``solve_ids`` alone — never from
    probabilities: the CSR slots that land in the ``Q`` block, and the
    column-major assembly of ``I - Q`` in the chain's own state order.
    :meth:`factor` then does only numeric work for one ``data`` vector.

    :attr:`kind` is the reason code of the dense/sparse choice.  Sparse
    blocks factor with SuperLU under ``permc_spec="NATURAL"``: states are
    enumeration-rank or BFS ordered, so the support is near banded and
    skipping the ordering phase wins.  Measured on a 2-CPU x86 host:
    token ring N=6's 4072-state distributed-daemon block factors in
    72 ms with 594 351 L+U entries, against 688 ms and 1 250 586
    entries under ``MMD_AT_PLUS_A``.  Blocks at least ``1/20`` full
    factor densely with LAPACK, where SuperLU gains nothing (Herman
    random-bit ring 9: 494 states at 7.8 % fill).
    """

    def __init__(
        self, indices: np.ndarray, indptr: np.ndarray, solve_ids: np.ndarray
    ) -> None:
        m = solve_ids.shape[0]
        self.solve_ids = solve_ids
        position = np.full(indptr.shape[0] - 1, -1, dtype=np.int64)
        position[solve_ids] = np.arange(m, dtype=np.int64)
        row_position = np.repeat(position, np.diff(indptr))
        col_position = position[indices]
        #: CSR data slots that land in the ``Q`` block.
        self._entries = np.flatnonzero(
            (row_position >= 0) & (col_position >= 0)
        )
        # Column-major slot keys of ``I - Q``: the Q entries are unique
        # (CSR columns are), so only the diagonal can merge with them.
        q_rows = row_position[self._entries]
        q_cols = col_position[self._entries]
        q_keys = q_cols * np.int64(m) + q_rows
        diagonal_keys = np.arange(m, dtype=np.int64) * np.int64(m + 1)
        slot_keys = np.union1d(q_keys, diagonal_keys)
        self._q_slots = np.searchsorted(slot_keys, q_keys)
        self._diagonal_slots = np.searchsorted(slot_keys, diagonal_keys)
        self._num_slots = slot_keys.shape[0]
        columns, rows = np.divmod(slot_keys, max(m, 1))
        dense = self._num_slots * _DENSE_FILL_DIVISOR >= m * m
        self._kind = "dense" if dense else "sparse"
        if dense:
            self._layout = (rows, columns)
        else:  # CSC ``(indices, indptr)``
            csc_indptr = np.zeros(m + 1, dtype=np.int32)
            np.cumsum(np.bincount(columns, minlength=m), out=csc_indptr[1:])
            self._layout = (rows.astype(np.int32), csc_indptr)

    @property
    def kind(self) -> str:
        """``"dense"`` (LAPACK) or ``"sparse"`` (natural-order SuperLU)."""
        return self._kind

    def factor(self, data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Factor ``I - Q`` at one CSR ``data`` vector; returns ``b ↦ x``."""
        m = self.solve_ids.shape[0]
        values = np.zeros(self._num_slots, dtype=float)
        values[self._diagonal_slots] = 1.0
        values[self._q_slots] -= data[self._entries]
        if self._kind == "dense":
            matrix = np.zeros((m, m), dtype=float, order="F")
            matrix[self._layout] = values
            lu = lu_factor(matrix, overwrite_a=True)
            return lambda rhs: lu_solve(lu, rhs)
        matrix = sparse.csc_matrix((values, *self._layout), shape=(m, m))
        return splu(matrix, permc_spec="NATURAL").solve


def _transient_solve(
    chain: MarkovChain, solve_ids: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(I - Q) x = rhs`` on the transient block ``solve_ids``.

    ``Q`` is the ``solve_ids × solve_ids`` submatrix of the transition
    matrix, assembled by a :class:`TransientPlan` straight from the
    chain's CSR arrays — the one assembly both
    :func:`absorption_probabilities` and :func:`expected_hitting_times`
    share.  The plan picks dense LAPACK for blocks at least ``1/20``
    full and SuperLU in the chain's own (near-banded) state order below:
    on token ring N=6's 4072-state block the natural order factors
    ~10× faster than ``MMD_AT_PLUS_A`` with half the fill (see
    :class:`TransientPlan`).  Plan and factorization are cached on the chain
    keyed by the solve set: absorption and expected-time solves over
    the same transient block — every probability-1 chain — factor once
    and back-substitute twice.
    """
    key = solve_ids.tobytes()
    cached = chain._transient_lu
    if cached is None or cached[0] != key:
        data, indices, indptr = chain.transition_arrays()
        plan = TransientPlan(indices, indptr, solve_ids)
        cached = (key, plan, plan.factor(data))
        chain._transient_lu = cached
    return cached[2](rhs)


def _backward_closure(
    indices: np.ndarray, indptr: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """States that can reach the target in the support digraph.

    A multi-source BFS over the *transposed* CSR pattern — predecessors
    of each frontier are one fancy-indexed gather into the transpose's
    arrays per level.  Structural, so it serves a parametric chain at
    every point of its open parameter box.
    """
    n = target.shape[0]
    transpose = sparse.csr_matrix(
        (np.ones(indices.shape[0], dtype=bool), indices, indptr),
        shape=(n, n),
    ).tocsc()
    t_indptr, t_indices = transpose.indptr, transpose.indices
    reached = np.array(target, dtype=bool)
    frontier = np.flatnonzero(target)
    while frontier.size:
        predecessors = t_indices[
            concat_ranges(t_indptr[frontier], t_indptr[frontier + 1])
        ]
        fresh = np.unique(predecessors[~reached[predecessors]])
        reached[fresh] = True
        frontier = fresh
    return reached


def absorption_probabilities(
    chain: MarkovChain, target: np.ndarray
) -> np.ndarray:
    """P[ever reach target | start in state i] for every i.

    Solves ``(I - Q) h = b`` on the transient block, where ``Q`` is the
    transient-to-transient submatrix and ``b`` the one-step mass into the
    target.  States that cannot reach the target at all are exactly the
    zeros of the solution (we pre-filter them for numerical stability).
    """
    target = _target_vector(chain.num_states, target)
    n = chain.num_states
    result = np.zeros(n, dtype=float)
    result[target] = 1.0

    _, indices, indptr = chain.transition_arrays()
    can_reach = _backward_closure(indices, indptr, target)
    transient = ~target & can_reach
    if not transient.any():
        return result

    transient_ids = np.flatnonzero(transient)
    b = np.asarray(
        chain.sparse_matrix()[transient_ids][:, np.flatnonzero(target)].sum(
            axis=1
        )
    ).ravel()
    h = _transient_solve(chain, transient_ids, b)
    result[transient_ids] = np.clip(h, 0.0, 1.0)
    return result


def expected_hitting_times(
    chain: MarkovChain,
    target: np.ndarray,
    absorption: np.ndarray | None = None,
) -> np.ndarray:
    """Expected steps to reach the target; ``inf`` where absorption < 1.

    Pass ``absorption`` (a vector previously returned by
    :func:`absorption_probabilities` for the same chain and target) to
    skip recomputing it — :func:`hitting_summary` and
    :func:`repro.stabilization.probabilistic.classify_probabilistic`
    compute absorption exactly once this way.
    """
    target = _target_vector(chain.num_states, target)
    if absorption is None:
        absorption = absorption_probabilities(chain, target)
    certain = absorption >= 1.0 - ABSORPTION_TOLERANCE

    n = chain.num_states
    times = np.full(n, np.inf, dtype=float)
    times[target] = 0.0

    solve_ids = np.flatnonzero(certain & ~target)
    if solve_ids.size == 0:
        return times
    ones = np.ones(len(solve_ids), dtype=float)
    t = _transient_solve(chain, solve_ids, ones)
    times[solve_ids] = np.maximum(t, 0.0)
    return times


@dataclass(frozen=True)
class HittingSummary:
    """Aggregate convergence report over all initial configurations."""

    num_states: int
    num_target: int
    min_absorption: float
    converges_with_probability_one: bool
    worst_expected_steps: float
    mean_expected_steps: float

    def row(self) -> dict[str, object]:
        """Dict form for tables."""
        return {
            "states": self.num_states,
            "target": self.num_target,
            "min_absorption": round(self.min_absorption, 10),
            "prob1": self.converges_with_probability_one,
            "worst_E[steps]": round(self.worst_expected_steps, 4),
            "mean_E[steps]": round(self.mean_expected_steps, 4),
        }


def hitting_summary(chain: MarkovChain, target: np.ndarray) -> HittingSummary:
    """Absorption + expected-time aggregate for one chain and target set."""
    target = _target_vector(chain.num_states, target)
    absorption = absorption_probabilities(chain, target)
    min_absorption = float(absorption.min())
    converges = bool(min_absorption >= 1.0 - ABSORPTION_TOLERANCE)
    if converges:
        times = expected_hitting_times(chain, target, absorption=absorption)
        transient = ~target
        if transient.any():
            worst = float(times[transient].max())
            mean = float(times[transient].mean())
        else:
            worst = 0.0
            mean = 0.0
    else:
        worst = float("inf")
        mean = float("inf")
    return HittingSummary(
        num_states=chain.num_states,
        num_target=int(target.sum()),
        min_absorption=min_absorption,
        converges_with_probability_one=converges,
        worst_expected_steps=worst,
        mean_expected_steps=mean,
    )

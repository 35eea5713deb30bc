"""Constraint graphs mapped onto Winner-Takes-All spiking networks.

A finite-domain constraint-satisfaction problem is described by

* **variables** with finite candidate domains — every ``(variable, value)``
  pair becomes one Izhikevich neuron, laid out variable-major with the
  variable's domain order preserved;
* **pairwise conflict edges** — ``(var_a=value_a)`` incompatible with
  ``(var_b=value_b)`` — which become mutual inhibitory synapses;
* **unary clamps** (the generalisation of Sudoku clues) — a variable fixed
  to one value, realised as a strong constant drive on that value's neuron
  and a silenced drive on its siblings.

Every variable additionally carries an implicit one-hot ("multi-level
WTA") constraint: each of its value neurons inhibits all other values of
the same variable, so at most one candidate per variable stays active.
This is exactly the construction of the paper's 729-neuron Sudoku network
(Fig. 4), with the row/column/box structure replaced by arbitrary
conflict edges.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy import sparse

from ..snn.synapse import SparseSynapses

__all__ = ["Variable", "ConstraintGraph", "CSPStatistics"]

#: A variable reference: its index, its name, or the Variable itself.
VariableRef = Union[int, str, "Variable"]

#: Clamps: ``{variable: value}`` or an iterable of ``(variable, value)``.
ClampsLike = Union[Mapping[VariableRef, int], Iterable[Tuple[VariableRef, int]]]


class _ResolvedClamps(list):
    """Marker type for :meth:`ConstraintGraph.resolve_clamps` output.

    Items are validated ``(variable_index, value, neuron_index)`` triples;
    feeding the list back into ``resolve_clamps`` (as the hot decode loop
    does every check interval) skips re-validation.  Plain lists of
    triples do NOT get the shortcut — they take the full validated path.
    """


@dataclass(frozen=True)
class Variable:
    """A named CSP variable with a finite, ordered candidate domain."""

    name: str
    domain: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate domain values")


@dataclass
class CSPStatistics:
    """Structural statistics of a constraint graph's WTA network."""

    num_variables: int
    num_neurons: int
    #: Directed explicit conflict edges (each symmetric conflict counts twice).
    num_conflict_edges: int
    #: Directed intra-variable one-hot edges.
    num_mutex_edges: int
    #: Largest / mean total inhibitory fan-out of a neuron.
    max_out_degree: int
    mean_out_degree: float


class ConstraintGraph:
    """Variables × domains plus pairwise conflicts, as one neuron array.

    Neurons are numbered variable-major: variable ``i`` owns the
    contiguous index range ``[offset[i], offset[i+1])``, one neuron per
    domain value in the variable's declared domain order.
    """

    def __init__(self, variables: Sequence[Variable], *, name: str = "csp") -> None:
        if not variables:
            raise ValueError("a constraint graph needs at least one variable")
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._var_index: Dict[str, int] = {}
        for i, var in enumerate(self.variables):
            if var.name in self._var_index:
                raise ValueError(f"duplicate variable name {var.name!r}")
            self._var_index[var.name] = i
        sizes = np.asarray([len(v.domain) for v in self.variables], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.domain_sizes = sizes
        #: Position of each value within its variable's domain.
        self._value_pos: List[Dict[int, int]] = [
            {int(value): pos for pos, value in enumerate(v.domain)} for v in self.variables
        ]
        #: Owning variable of each neuron (for coordinate lookups).
        self._neuron_var = np.repeat(np.arange(len(self.variables)), sizes)
        #: Explicit (inter-variable) conflicts per neuron, as index sets.
        self._explicit: List[Set[int]] = [set() for _ in range(int(self.offsets[-1]))]
        #: CSR view of the conflict lists (flat targets + indptr), cached
        #: for the synapse build, the solution check and the cache token.
        self._conflict_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: value -> in-domain position lookup for the homogeneous-domain
        #: fast path (built lazily; the flag caches the negative case).
        self._pos_lookup: Optional[np.ndarray] = None
        self._pos_lookup_ready = False
        #: Cached structural digest (see :meth:`cache_token`).
        self._cache_token: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_neurons(self) -> int:
        return int(self.offsets[-1])

    @property
    def homogeneous_domain(self) -> Optional[Tuple[int, ...]]:
        """The shared domain when all variables use the same one, else ``None``."""
        first = self.variables[0].domain
        if all(v.domain == first for v in self.variables[1:]):
            return first
        return None

    def variable_index(self, ref: VariableRef) -> int:
        """Resolve a variable reference (index, name or Variable) to its index."""
        if isinstance(ref, Variable):
            ref = ref.name
        if isinstance(ref, str):
            try:
                return self._var_index[ref]
            except KeyError:
                raise KeyError(f"unknown variable {ref!r} in graph {self.name!r}") from None
        index = int(ref)
        if not 0 <= index < self.num_variables:
            raise IndexError(f"variable index {index} out of range")
        return index

    def neuron_index(self, var: VariableRef, value: int) -> int:
        """Flat neuron index of ``(variable, value)``."""
        vi = self.variable_index(var)
        try:
            pos = self._value_pos[vi][int(value)]
        except KeyError:
            raise ValueError(
                f"value {value!r} not in domain of variable "
                f"{self.variables[vi].name!r}"
            ) from None
        return int(self.offsets[vi]) + pos

    def neuron_coordinates(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`neuron_index`: ``(variable_index, value)``."""
        if not 0 <= index < self.num_neurons:
            raise ValueError(f"neuron index {index} out of range")
        vi = int(self._neuron_var[index])
        return vi, int(self.variables[vi].domain[index - int(self.offsets[vi])])

    # ------------------------------------------------------------------ #
    # Constraint construction
    # ------------------------------------------------------------------ #
    def add_conflict(
        self, var_a: VariableRef, value_a: int, var_b: VariableRef, value_b: int
    ) -> None:
        """Declare ``var_a=value_a`` and ``var_b=value_b`` incompatible.

        The conflict is symmetric: both neurons inhibit each other.
        Intra-variable conflicts are implicit (the one-hot WTA) and may
        not be added explicitly.
        """
        na = self.neuron_index(var_a, value_a)
        nb = self.neuron_index(var_b, value_b)
        if self._neuron_var[na] == self._neuron_var[nb]:
            raise ValueError(
                "intra-variable conflicts are implicit (one-hot WTA); "
                f"got two values of variable {self.variables[int(self._neuron_var[na])].name!r}"
            )
        self._explicit[na].add(nb)
        self._explicit[nb].add(na)
        self._conflict_csr = None
        self._cache_token = None

    def add_not_equal(self, var_a: VariableRef, var_b: VariableRef) -> None:
        """Forbid ``var_a == var_b`` (conflict on every shared domain value).

        :meth:`add_conflict` on each shared value, with both variables
        resolved once.
        """
        ia, ib = self.variable_index(var_a), self.variable_index(var_b)
        if ia == ib:
            raise ValueError("add_not_equal needs two distinct variables")
        positions_a, positions_b = self._value_pos[ia], self._value_pos[ib]
        first_a, first_b = int(self.offsets[ia]), int(self.offsets[ib])
        added = False
        for value in self.variables[ia].domain:
            position_b = positions_b.get(value)
            if position_b is not None:
                na, nb = first_a + positions_a[int(value)], first_b + position_b
                self._explicit[na].add(nb)
                self._explicit[nb].add(na)
                added = True
        if added:
            self._conflict_csr = None
            self._cache_token = None

    def add_all_different(self, variables: Sequence[VariableRef]) -> None:
        """Pairwise ``not_equal`` over a set of variables (a CSP "unit")."""
        indices = [self.variable_index(v) for v in variables]
        for i, ia in enumerate(indices):
            for ib in indices[i + 1 :]:
                self.add_not_equal(ia, ib)

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #
    def conflicting_neurons(self, index: int) -> List[int]:
        """All neurons inhibited by a spike of ``index`` (mutex + conflicts)."""
        if not 0 <= index < self.num_neurons:
            raise ValueError(f"neuron index {index} out of range")
        vi = int(self._neuron_var[index])
        start, end = int(self.offsets[vi]), int(self.offsets[vi + 1])
        targets = set(range(start, end))
        targets.discard(index)
        targets |= self._explicit[index]
        return sorted(targets)

    def _conflicts_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every neuron's :meth:`conflicting_neurons` as one (targets, indptr) CSR pair."""
        if self._conflict_csr is None:
            conflicts = [self.conflicting_neurons(i) for i in range(self.num_neurons)]
            lengths = np.asarray([len(t) for t in conflicts], dtype=np.int64)
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            targets = np.fromiter(
                itertools.chain.from_iterable(conflicts), dtype=np.int64, count=int(indptr[-1])
            )
            self._conflict_csr = (targets, indptr)
        return self._conflict_csr

    def _shared_pos_lookup(self) -> Optional[np.ndarray]:
        """``value -> domain position`` table for homogeneous domains.

        ``None`` when the variables do not share one domain or the domain
        has negative values (the table is a plain array lookup).
        """
        if not self._pos_lookup_ready:
            self._pos_lookup_ready = True
            shared = self.homogeneous_domain
            if shared is not None and min(shared) >= 0:
                lookup = np.full(max(shared) + 1, -1, dtype=np.int64)
                for pos, value in enumerate(shared):
                    lookup[value] = pos
                self._pos_lookup = lookup
        return self._pos_lookup

    def build_synapses(
        self, *, inhibition_weight: float = -30.0, self_excitation: float = 0.0
    ) -> SparseSynapses:
        """The WTA connectivity: inhibition on conflicts, self-excitation.

        Mirrors the Sudoku construction exactly: for every presynaptic
        neuron (in index order) one inhibitory synapse per conflicting
        neuron (sorted), plus an explicit diagonal self-excitation entry —
        kept even at weight 0 so the synapse count always reflects the
        full WTA structure.  The entries come straight from the cached
        conflict CSR (column ``pre`` holds its conflicts plus the
        diagonal), sorted by row within each column: the canonical CSC
        a COO build of the same triplets converts to.
        """
        targets, indptr = self._conflicts_csr()
        n = self.num_neurons
        neurons = np.arange(n, dtype=np.int64)
        rows = np.concatenate([targets, neurons])
        cols = np.concatenate([np.repeat(neurons, np.diff(indptr)), neurons])
        # Conflict lists never contain their own neuron: rows == cols
        # exactly on the diagonal.
        vals = np.where(rows == cols, float(self_excitation), float(inhibition_weight))
        order = np.lexsort((rows, cols))
        column_ptr = indptr + np.arange(n + 1)  # one extra (diagonal) entry per column
        matrix = sparse.csc_matrix((vals[order], rows[order], column_ptr), shape=(n, n))
        return SparseSynapses(matrix)

    def cache_token(self) -> str:
        """Canonical structural identity for content-addressed caching.

        Consumed by :mod:`repro.runtime.cache` through the
        ``cache_token`` protocol, so a graph can key a
        :class:`~repro.runtime.cache.RunResultCache` entry and the serve
        tier can derive request identities.  The token is a SHA-256 over
        exactly what the solver dynamics see — the per-variable domains
        in declared order plus the full conflict CSR — and deliberately
        excludes variable *names*: solve results are index-based arrays,
        so structurally identical graphs may share cache entries
        regardless of naming.  It is computed once per graph (and again
        only after :meth:`add_conflict`), so repeat requests on one graph
        object cost an attribute read.
        """
        if self._cache_token is None:
            targets, indptr = self._conflicts_csr()
            values = np.fromiter(
                itertools.chain.from_iterable(v.domain for v in self.variables),
                dtype=np.int64,
                count=self.num_neurons,
            )
            digest = hashlib.sha256(b"ConstraintGraph/1")
            arrays = (self.domain_sizes, values, indptr, targets)
            for array in (np.asarray([a.size for a in arrays]), *arrays):
                digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
            self._cache_token = digest.hexdigest()
        return self._cache_token

    def statistics(self) -> CSPStatistics:
        """Structural statistics of the WTA graph."""
        mutex = int(np.sum(self.domain_sizes * (self.domain_sizes - 1)))
        explicit = sum(len(s) for s in self._explicit)
        degrees = np.diff(self._conflicts_csr()[1])
        return CSPStatistics(
            num_variables=self.num_variables,
            num_neurons=self.num_neurons,
            num_conflict_edges=explicit,
            num_mutex_edges=mutex,
            max_out_degree=int(degrees.max()),
            mean_out_degree=float(degrees.mean()),
        )

    # ------------------------------------------------------------------ #
    # Clamps and drives
    # ------------------------------------------------------------------ #
    def resolve_clamps(self, clamps: ClampsLike) -> List[Tuple[int, int, int]]:
        """Normalise clamps to ``(variable_index, value, neuron_index)``.

        Raises ``ValueError`` on out-of-domain values or a variable
        clamped twice to different values.
        """
        if isinstance(clamps, _ResolvedClamps):
            # This method's own output, fed back in by the hot decode
            # loop.  Re-resolving is pure overhead: the triples were
            # validated when first produced.
            return clamps
        items = clamps.items() if isinstance(clamps, Mapping) else clamps
        resolved: Dict[int, Tuple[int, int, int]] = {}
        for item in items:
            # Accept already-resolved (variable_index, value, neuron_index)
            # triples so the output of this method can be passed back in.
            ref, value = item[0], item[1]
            vi = self.variable_index(ref)
            nidx = self.neuron_index(vi, value)
            previous = resolved.get(vi)
            if previous is not None and previous[1] != int(value):
                raise ValueError(
                    f"variable {self.variables[vi].name!r} clamped to both "
                    f"{previous[1]} and {value}"
                )
            resolved[vi] = (vi, int(value), nidx)
        return _ResolvedClamps(resolved[vi] for vi in sorted(resolved))

    def clamps_consistent(self, clamps: ClampsLike) -> bool:
        """``True`` when no two clamps sit on a conflict edge."""
        resolved = self.resolve_clamps(clamps)
        clamped = {nidx for _, _, nidx in resolved}
        for _, _, nidx in resolved:
            if self._explicit[nidx] & clamped:
                return False
        return True

    def drive_vector(
        self, clamps: ClampsLike, *, clamp_drive: float, free_bias: float
    ) -> np.ndarray:
        """Constant per-neuron drive: strong for clamped values, bias otherwise.

        Clamped variables have all their candidate neurons silenced except
        the clamped value, which is driven hard — exactly the Sudoku clue
        drive construction.
        """
        drive = np.full(self.num_neurons, free_bias, dtype=np.float64)
        for vi, _, nidx in self.resolve_clamps(clamps):
            start, end = int(self.offsets[vi]), int(self.offsets[vi + 1])
            drive[start:end] = 0.0
            drive[nidx] = clamp_drive
        return drive

    # ------------------------------------------------------------------ #
    # Solution checking
    # ------------------------------------------------------------------ #
    def selected_neurons(self, values: np.ndarray, decided: np.ndarray) -> np.ndarray:
        """Neuron indices selected by the decided entries of an assignment."""
        decided_vars = np.flatnonzero(decided)
        lookup = self._shared_pos_lookup()
        if lookup is not None and decided_vars.size:
            # Homogeneous-domain fast path: one table lookup per variable
            # instead of a Python dict probe (bit-identical indices).
            vals = np.asarray(values, dtype=np.int64)[decided_vars]
            if vals.min() >= 0 and vals.max() < lookup.size:
                positions = lookup[vals]
                if np.all(positions >= 0):
                    return self.offsets[decided_vars] + positions
        indices = [self.neuron_index(vi, int(values[vi])) for vi in decided_vars]
        return np.asarray(indices, dtype=np.int64)

    def is_solution(self, values: np.ndarray, decided: np.ndarray) -> bool:
        """All variables assigned and no conflict edge violated."""
        if not bool(np.all(decided)):
            return False
        selected = np.zeros(self.num_neurons, dtype=bool)
        picks = self.selected_neurons(values, decided)
        selected[picks] = True
        # One vectorised pass over the picks' concatenated conflict lists
        # (equivalent to checking each pick's conflicts in turn).
        targets, indptr = self._conflicts_csr()
        counts = indptr[picks + 1] - indptr[picks]
        total = int(counts.sum())
        if total == 0:
            return True
        offsets = np.repeat(indptr[picks] - (np.cumsum(counts) - counts), counts)
        flat = targets[offsets + np.arange(total)]
        return not bool(selected[flat].any())

    def assignment_dict(self, values: np.ndarray, decided: np.ndarray) -> Dict[str, int]:
        """Decided ``{variable name: value}`` entries of an assignment."""
        return {self.variables[vi].name: int(values[vi]) for vi in np.flatnonzero(decided)}

"""Gate sequences, probability tables, and the sequence families under test.

A probability table is the complete prepare/evolve/measure data set for one
sequence: entry ``(k, i)`` is the probability of the monitored outcome when
preparation ``i`` is followed by the sequence and then measurement setting
``k``.  Tables come in two flavors, exact (``shots is None``) and sampled
(every entry a multiple of ``1/shots``).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence as AbcSequence
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence as TypingSequence

import numpy as np

from . import _DEBUG, _log
from .gates import GateSpec
from .noise import TwoQubitModel, UnknownGate

__all__ = [
    "Sequence",
    "ProbabilityTable",
    "SequenceFamily",
    "sequence_ptm",
    "table_from_ptm",
    "prob_table",
    "sample_table",
    "permutation_family",
    "cyclic_family",
    "repetition_family",
    "family_tables",
    "write_table_csv",
    "read_table_csv",
]


@dataclass(frozen=True)
class Sequence:
    """An ordered list of gate instructions; the empty sequence is the
    SPAM-only reference experiment."""

    gates: tuple[GateSpec, ...]
    label: str

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class ProbabilityTable:
    """Outcome probabilities, rows = measurement settings, columns = preparations.

    ``shots is None`` marks an exact table; otherwise entries are empirical
    frequencies out of ``shots`` repetitions per cell.
    """

    entries: np.ndarray
    shots: int | None
    label: str

    @property
    def is_exact(self) -> bool:
        return self.shots is None


class _LazyMembers(AbcSequence):
    """A constructor's family members, each built when it is read.

    Holds the labels and a rule ``gates(*args, j)`` for member ``j``'s gate
    list, so a family of ``L`` members of ``L`` gates keeps O(L) references
    instead of O(L^2).  It equals, and hashes like, the tuple of its members.
    """

    __slots__ = ("labels", "_gates", "_args")

    def __init__(self, labels: tuple[str, ...], gates, args: tuple):
        self.labels, self._gates, self._args = labels, gates, args

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[k] for k in range(len(self))[j])
        j = range(len(self))[j]  # negative indices and IndexError, as for a tuple
        return Sequence(gates=self._gates(*self._args, j), label=self.labels[j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_LazyMembers, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} members {self.labels[0]}..{self.labels[-1]}>"


@dataclass(frozen=True)
class SequenceFamily:
    """A set of related sequences evaluated together by one test.

    ``kind`` is "permutation" (members are rearrangements of one gate
    multiset), "cyclic" (members are rotations of one list) or "repetition"
    (members are a block repeated ``m_values[j]`` times).  ``product``, set
    by the constructor that knows the layout, maps a model to the members'
    exact table entries; without it the members are evaluated one by one.
    The constructors build a member's :class:`Sequence` only when
    ``members[j]`` is read.
    """

    members: TypingSequence[Sequence]
    kind: str
    description: str
    m_values: tuple[int, ...] | None = None
    product: Callable[[TwoQubitModel], list[np.ndarray]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def labels(self) -> tuple[str, ...]:
        """Member labels, in member order, read without building any member."""
        if isinstance(self.members, _LazyMembers):
            return self.members.labels
        return tuple(seq.label for seq in self.members)


def sequence_ptm(seq: Sequence, model: TwoQubitModel) -> np.ndarray:
    """Total transfer matrix of a sequence (time order = list order)."""
    total = np.eye(model.basis.size)
    for gate in seq.gates:
        if not isinstance(gate, GateSpec):
            raise UnknownGate(f"not a gate instruction: {gate!r}")
        total = model.gate_ptm(gate) @ total
    return total


def table_from_ptm(ptm: np.ndarray, model: TwoQubitModel, label: str) -> ProbabilityTable:
    """Exact table for a precomputed sequence transfer matrix."""
    return ProbabilityTable(
        entries=model.spam_out @ ptm @ model.spam_in.T, shots=None, label=label
    )


def prob_table(seq: Sequence, model: TwoQubitModel) -> ProbabilityTable:
    """Exact probability table of a sequence under the model."""
    return table_from_ptm(sequence_ptm(seq, model), model, seq.label)


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator whose stream depends only on ``(seed, *tags)``.

    The key is derived by hashing the seed together with the tags, and feeds
    a counter-based Philox bit generator.  Two calls with the same arguments
    therefore produce identical streams no matter how many other substreams
    were created in between, which makes every sampled quantity independent
    of evaluation order and safe to recompute in parallel.  Under the CLI,
    ``numpy.random`` holds only these two classes until anything else is
    asked of it, when the package's own ``__init__`` runs.
    """
    # only sampled runs draw, so numpy.random and hashlib load on the first
    # call, not with this module; the CLI loads them before its first draw,
    # without OpenSSL where Python has built-in hashes
    import hashlib

    payload = "\x1f".join([str(int(seed))] + [str(t) for t in tags]).encode("utf-8")
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def sample_table(table: ProbabilityTable, shots: int, seed: int) -> ProbabilityTable:
    """Finite-shot version of an exact table.

    Each cell is an independent binomial frequency.  The cells are drawn in
    row-major order from one substream keyed on ``(seed, "cell", label)``, so
    the result does not depend on the order in which tables are evaluated.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not table.is_exact:
        raise ValueError("can only sample an exact table")
    p = np.asarray(table.entries)
    if p.min() < -1e-9 or p.max() > 1 + 1e-9:
        raise ValueError("table entries outside [0, 1]; not a physical table")
    out = _frequencies(p, shots, substream(seed, "cell", table.label), None)
    return ProbabilityTable(entries=out, shots=shots, label=table.label)


def resample_cells(table: ProbabilityTable, resamples: int, seed: int) -> np.ndarray:
    """Stack of ``resamples`` parametric-bootstrap tables around ``table``.

    For an exact table the stack is just the table repeated.  A sampled
    table gets one substream keyed on ``(seed, "boot", label)``; its cells draw
    their ``resamples`` values from it in row-major order, which keeps the
    result independent of the order in which tables are resampled.
    """
    p = np.asarray(table.entries)
    if table.is_exact:
        return np.broadcast_to(p, (resamples,) + p.shape)
    return _frequencies(p, table.shots, substream(seed, "boot", table.label), resamples)


def _frequencies(p: np.ndarray, shots: int, gen, size: int | None) -> np.ndarray:
    """Binomial frequencies out of ``shots`` around each cell of ``p``.

    ``size=None`` draws one table, ``size=R`` a stack of ``R``.  The cells
    draw from ``gen`` in row-major order, one scalar ``p`` at a time: that
    gives the same numbers as one broadcast draw, but is faster and raises
    the peak RSS of a run less.
    """
    p = np.clip(p, 0.0, 1.0)
    out = np.empty(p.shape if size is None else (size,) + p.shape)
    for k in range(p.shape[0]):
        for i in range(p.shape[1]):
            out[..., k, i] = gen.binomial(shots, p[k, i], size=size) / shots
    return out


def permutation_family(a: GateSpec, b: GateSpec, n: int) -> SequenceFamily:
    """The ``n + 1`` rearrangements interpolating ``a^n b^n`` into ``(b a)^n``.

    Member ``k`` (1-based) is ``a^(n-k+1) b^(n-k+1)`` followed by ``k - 1``
    copies of the pair ``(b, a)``; every member uses the same multiset of
    ``n`` copies of each gate, differing only in their arrangement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = tuple(f"perm{k:03d}" for k in range(1, n + 2))
    return SequenceFamily(
        members=_LazyMembers(labels, _permutation_gates, (a, b, n)),
        kind="permutation",
        description=f"rearrangements of {a.label}^{n} {b.label}^{n}",
        product=functools.partial(_permutation_entries, a, b, n),
    )


def cyclic_family(seq: Sequence) -> SequenceFamily:
    """All rotations of a sequence, ordered by the offset of the rotation."""
    if len(seq) < 1:
        raise ValueError("need a non-empty sequence")
    labels = tuple(f"rot{j:03d}" for j in range(len(seq)))
    return SequenceFamily(
        members=_LazyMembers(labels, _cyclic_gates, (seq.gates,)),
        kind="cyclic",
        description=f"rotations of {seq.label}",
        product=functools.partial(_cyclic_entries, seq.gates),
    )


def repetition_family(
    block: TypingSequence[GateSpec], m_values: Iterable[int]
) -> SequenceFamily:
    """The block repeated ``m`` times for each requested ``m``."""
    ms = tuple(int(m) for m in m_values)
    if any(m < 0 for m in ms):
        raise ValueError("m values must be >= 0")
    if any(b >= a for a, b in zip(ms[1:], ms)):
        raise ValueError("m values must be strictly increasing")
    block = tuple(block)
    block_label = "".join(g.label for g in block)
    labels = tuple(f"{block_label}_m{m:04d}" for m in ms)
    return SequenceFamily(
        members=_LazyMembers(labels, _repetition_gates, (block, ms)),
        kind="repetition",
        description=f"({block_label})^m",
        m_values=ms,
        product=functools.partial(_repetition_entries, block, ms),
    )


def _permutation_gates(a: GateSpec, b: GateSpec, n: int, j: int) -> tuple[GateSpec, ...]:
    """Gates of member ``j`` (0-based) of :func:`permutation_family`."""
    return (a,) * (n - j) + (b,) * (n - j) + (b, a) * j


def _cyclic_gates(base: tuple[GateSpec, ...], j: int) -> tuple[GateSpec, ...]:
    """Gates of rotation ``j`` of ``base``: its last ``j`` gates moved to the front."""
    return base[len(base) - j :] + base[: len(base) - j]


def _repetition_gates(
    block: tuple[GateSpec, ...], ms: tuple[int, ...], j: int
) -> tuple[GateSpec, ...]:
    """Gates of member ``j`` of :func:`repetition_family`: the block ``ms[j]`` times."""
    return block * ms[j]


def _permutation_entries(a: GateSpec, b: GateSpec, n: int, model: TwoQubitModel):
    """Member tables of :func:`permutation_family`.

    Member ``j`` is ``a^(n-j) b^(n-j) (b a)^j``, whose product in time order
    is ``(A B)^j C_(n-j)`` with ``C_i = B^i A^i = B C_(i-1) A``.  The
    measurement-projected powers ``spam_out (A B)^j`` are stacked once (4 x 16
    each); ``C_i`` is then stepped up while the members are written from the
    last to the first.
    """
    gate_a, gate_b = model.gate_ptm(a), model.gate_ptm(b)
    pair = gate_a @ gate_b
    left = np.empty((n + 1,) + model.spam_out.shape)
    left[0] = model.spam_out
    for j in range(1, n + 1):
        left[j] = left[j - 1] @ pair
    entries = [None] * (n + 1)
    inner = np.eye(model.basis.size)
    for i in range(n + 1):
        entries[n - i] = left[n - i] @ inner @ model.spam_in.T
        inner = gate_b @ inner @ gate_a
    return entries


def _cyclic_entries(base: tuple[GateSpec, ...], model: TwoQubitModel):
    """Member tables of :func:`cyclic_family`.

    Rotation ``j`` of ``G_0 ... G_(L-1)`` starts at gate ``k = L - j``; its
    product is ``prefix_k suffix_k`` with ``prefix_k = G_(k-1) ... G_0`` and
    ``suffix_k = G_(L-1) ... G_k``.  The preparation-projected suffixes
    ``suffix_k spam_in^T`` are stacked once (16 x 4 each); the prefix is then
    stepped up while the members are written.
    """
    length = len(base)
    gates = [model.gate_ptm(g) for g in base]
    right = np.empty((length + 1,) + model.spam_in.T.shape)
    right[length] = model.spam_in.T
    suffix = np.eye(model.basis.size)
    for k in range(length - 1, 0, -1):
        suffix = suffix @ gates[k]
        right[k] = suffix @ model.spam_in.T
    entries = [None] * length
    prefix = np.eye(model.basis.size)
    for k in range(1, length + 1):
        prefix = gates[k - 1] @ prefix
        entries[length - k] = model.spam_out @ prefix @ right[k]
    return entries


def _repetition_entries(
    block: tuple[GateSpec, ...], ms: tuple[int, ...], model: TwoQubitModel
):
    """Member tables of :func:`repetition_family`.

    The block's product is formed once and its power stepped along the
    increasing ``ms``.
    """
    block_ptm = np.eye(model.basis.size)
    for gate in block:
        block_ptm = model.gate_ptm(gate) @ block_ptm
    entries = []
    power, done = np.eye(model.basis.size), 0
    for m in ms:
        power = np.linalg.matrix_power(block_ptm, m - done) @ power
        done = m
        entries.append(model.spam_out @ power @ model.spam_in.T)
    return entries


def family_tables(
    family: SequenceFamily,
    model: TwoQubitModel,
    shots: int | None = None,
    seed: int = 0,
) -> list[ProbabilityTable]:
    """Tables for every member, sampled at ``shots`` unless exact is requested.

    Exact tables come from the family's ``product`` when its constructor
    set one (:func:`permutation_family`, :func:`cyclic_family` and
    :func:`repetition_family`: O(members) matrix products in all); any other
    family is evaluated member by member with :func:`sequence_ptm`.
    """
    if family.product is not None:
        _log(__name__, _DEBUG, "%s: %s-shaped products", family.description, family.kind)
        tables = [
            ProbabilityTable(entries=e, shots=None, label=label)
            for e, label in zip(family.product(model), family.labels)
        ]
    else:
        _log(__name__, _DEBUG, "%s: per-member sequence_ptm", family.description)
        tables = [prob_table(seq, model) for seq in family.members]
    if shots is None:
        return tables
    return [sample_table(t, shots, seed) for t in tables]


def write_table_csv(table: ProbabilityTable, path) -> None:
    """Write a table as CSV with ``#`` metadata lines for label and shots."""
    lines = [f"# label = {table.label}",
             f"# shots = {'exact' if table.is_exact else table.shots}",
             ",".join(["setting"] + [f"prep{i}" for i in range(table.entries.shape[1])])]
    for k, row in enumerate(table.entries):
        lines.append(",".join([f"meas{k}"] + [repr(float(v)) for v in row]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table_csv(path) -> ProbabilityTable:
    """Read a table written by :func:`write_table_csv` (exact round trip)."""
    with open(path, newline="") as fh:
        label = fh.readline().partition("=")[2].strip()  # "# label = ..."
        shots = fh.readline().partition("=")[2].strip()  # "# shots = ..."
        n_cols = len(fh.readline().split(",")) - 1  # header: setting, prep0, ...
        entries = np.loadtxt(fh, delimiter=",", usecols=range(1, n_cols + 1), ndmin=2)
    return ProbabilityTable(
        entries=entries, shots=None if shots == "exact" else int(shots), label=label
    )

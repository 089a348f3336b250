"""Diffusion engines: strong-tie cascade, independent cascade, SI epidemic.

All three run in synchronous rounds against the start-of-round active
set, so activation order within a round never matters. Iteration t of a
trace records the state after round t; the seed alone is iteration 0 and
is never recorded as a row. Rounds that activate nothing are not
recorded, which keeps cumulative coverage strictly increasing.

The three differ only in who acts: in the two cascades the last round's
activations, each once; in SI every infected node, every round. A
cascade ends at its first round that activates nobody, so it records
every round it runs. ``max_iterations`` caps the rounds run, whether
or not they activate anyone; its default, ``SI_CAP_FACTOR`` times the
node count, only SI can reach.

The strong-tie cascade depends on the active set only through the final
subtraction, so each node's targets are fixed: its row of the reach
digraph ``ties.reach_digraph`` builds from the strong ties, whose rule
the ``ties`` module states. It is the independent cascade at p = 1 on
that digraph.

Every round of every model is one attempt step: lay the CSR rows of the
actors end to end, drop the targets already active (ending the run if
none is left) and, below probability 1, take one uniform per (actor,
target) attempt in one vector draw. Actors and targets ascend by
internal index, so the draw yields the same numbers as one scalar draw
per attempt in that order. Streams derive from (rng_seed, run_index),
so repetitions of one experiment are independent but individually
reproducible.

Run k draws from PCG64 (XSL-RR 128/64) seeded by
``SeedSequence([rng_seed mod 2**64, k])``, computed here by ``Pcg64``
rather than by ``numpy.random``, whose import maps OpenSSL's libcrypto
(through ``secrets``) and costs about 6 MiB of resident memory. Tests
pin every uniform bit for bit to NumPy's ``Generator.random`` on the
same seeds; keeping the stream here also holds those numbers fixed
should a NumPy release change its ``Generator`` streams.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InactiveNodeError, UnknownNodeError
from .graph import Adjacency, Graph, sorted_unique
from .ties import TieStrengthTable, build_tie_strength_table, reach_digraph

__all__ = [
    "ModelParams",
    "DiffusionTrace",
    "cns_activate",
    "run_cns",
    "run_ic",
    "run_si",
]

SI_CAP_FACTOR = 10


@dataclass(frozen=True)
class ModelParams:
    """Knobs shared by the stochastic models."""

    ic_probability: float = 1.0
    si_beta: float = 0.5
    rng_seed: int = 42

    def __post_init__(self) -> None:
        # Written so that nan fails too.
        if not 0.0 <= self.ic_probability <= 1.0:
            raise ConfigError(f"ic probability not in [0, 1]: {self.ic_probability}")
        if not 0.0 <= self.si_beta <= 1.0:
            raise ConfigError(f"si beta not in [0, 1]: {self.si_beta}")


@dataclass(frozen=True, eq=False)
class DiffusionTrace:
    """One run of one model from one seed, as per-round node-index arrays.

    graph is the graph the run saw and seed the seed's index in it.
    iterations[t] holds the nodes round t + 1 activated, as an ascending
    int64 index array. truncated marks a run that ends with inactive
    nodes in one of two ways: the round cap stops it, or, in SI, no
    infected node has a susceptible neighbor left. A cascade that dies
    out is not truncated. There is no field-wise equality: arrays have
    no single truth value.
    """

    graph: Graph
    seed: int
    iterations: tuple[np.ndarray, ...]
    truncated: bool = False


def cns_activate(table: TieStrengthTable, v: int, active: frozenset[int] | set[int]) -> set[int]:
    """Targets one active node of ``table.graph`` reaches in a single
    round: its reach row (``reach_digraph``) minus the active set. Raises
    UnknownNodeError for an index outside the graph, InactiveNodeError
    for an inactive v.

    Each call builds the whole reach digraph for one row: 7 to 9 ms on
    polblogs (2 vCPU). A caller stepping a cascade node by node should
    build the reach once with ``reach_digraph`` and read its rows, as
    ``run_cns`` does."""
    g = table.graph
    if not 0 <= v < g.node_count:
        raise UnknownNodeError(f"no node with index {v}")
    if v not in active:
        raise InactiveNodeError(f"node {g.label(v)!r} is not active")
    return set(reach_digraph(g, table.strong).rows(np.array([v])).tolist()) - set(active)


def _spread(
    g: Graph, s: int, adjacency: Adjacency, max_iterations: int | None,
    p: float = 1.0, rng_seed: int = 0, run_index: int = 0, every_round: bool = False,
) -> DiffusionTrace:
    """Rounds from ``s`` along the arcs of ``adjacency``: the last round's
    activations act once (a cascade), or every active node acts every
    round (``every_round``, SI). Each attempt on an inactive target
    succeeds with probability p, drawn from run ``run_index``'s stream
    when p < 1 (``random() < 1`` always holds, so p = 1 draws nothing)."""
    cap = SI_CAP_FACTOR * g.node_count if max_iterations is None else max_iterations
    rng = _stream(rng_seed, run_index) if p < 1 else None
    active = np.zeros(g.node_count, dtype=bool)
    active[s] = True
    newly = np.array([s])
    rounds: list[np.ndarray] = []
    truncated = True
    for _ in range(cap):
        if active.all():
            break
        targets = adjacency.rows(np.flatnonzero(active) if every_round else newly)
        targets = targets[~active[targets]]
        if not len(targets):
            # Nothing left to attempt: SI leaves the rest unreached, while
            # a cascade has simply run its course.
            truncated = every_round
            break
        if rng is not None:
            targets = targets[rng.random(len(targets)) < p]
        newly = sorted_unique(targets)
        # Free the gather now: kept, it would sit beside the next round's
        # gather and raise peak memory.
        del targets
        if len(newly):
            rounds.append(newly)
            active[newly] = True
        elif not every_round:
            # A cascade whose round activated nobody has died out.
            truncated = False
            break
    return DiffusionTrace(g, s, tuple(rounds), truncated and not active.all())


def run_cns(g: Graph, seed: str, max_iterations: int | None = None) -> DiffusionTrace:
    """Deterministic strong-tie cascade from one seed label: the
    independent cascade at p = 1 on the reach digraph, so a round
    activates the reach rows of the last round's activations, minus the
    active set. Only the strong-tie mask of the tie table outlives its
    build: its scores are freed before the reach is built."""
    s = g.index(seed)
    reach = reach_digraph(g, build_tie_strength_table(g).strong)
    return _spread(g, s, reach, max_iterations)


_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(entropy: tuple[int, ...]) -> list[int]:
    """NumPy's ``SeedSequence(entropy).generate_state(4, np.uint64)``:
    the entropy ints as little-endian 32-bit words, hashed into a pool of
    four words, then four 64-bit words drawn off the pool. The constants
    are NumPy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B and MULT_B."""
    if any(n < 0 for n in entropy):
        raise ValueError(f"entropy must be non-negative: {entropy}")
    words = [(n >> shift) & _MASK32 for n in entropy
             for shift in range(0, max(n.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """``np.random.Generator(np.random.PCG64(np.random.SeedSequence(
    entropy))).random`` without numpy.random: the same float64 uniforms,
    bit for bit. Raises ValueError for negative entropy, as NumPy does.

    PCG64 is a 128-bit LCG with the XSL-RR output function (M. E.
    O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
    Good Algorithms for Random Number Generation", HMC-CS-2014-0905). The
    LCG steps run as Python ints; the output function runs in numpy over
    the whole draw."""

    def __init__(self, *entropy: int) -> None:
        s = _seed_state(entropy)
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _MASK128
        # From state 0: step (which leaves inc), add the seed, step.
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _MASK128

    def random(self, size: int) -> np.ndarray:
        """The next ``size`` uniforms in [0, 1) as a float64 array."""
        state, inc = self._state, self._inc
        parts = []
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _MASK128
            parts.append(state.to_bytes(16, "little"))
        self._state = state
        # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
        words = np.frombuffer(b"".join(parts), "<u8")
        lo, hi = words[0::2], words[1::2]
        xored, rot = hi ^ lo, hi >> 58
        bits = xored >> rot | xored << ((64 - rot) & 63)
        return (bits >> 11) * 2.0**-53


def _stream(rng_seed: int, run_index: int) -> Pcg64:
    # Mask into uint64 so negative seeds stay legal and deterministic.
    return Pcg64(rng_seed & (2**64 - 1), run_index)


def run_ic(
    g: Graph,
    seed: str,
    params: ModelParams | None = None,
    run_index: int = 0,
    max_iterations: int | None = None,
) -> DiffusionTrace:
    """Independent cascade: each node attempts each neighbor once, the
    round after its own activation. With probability 1 the cumulative
    sets are exactly the seed's breadth-first balls."""
    if params is None:
        params = ModelParams()
    return _spread(g, g.index(seed), g.adjacency, max_iterations,
                   params.ic_probability, params.rng_seed, run_index)


def run_si(
    g: Graph,
    seed: str,
    params: ModelParams | None = None,
    run_index: int = 0,
    max_iterations: int | None = None,
) -> DiffusionTrace:
    """SI epidemic: every infected node attempts every susceptible
    neighbor every round, and infection is permanent. The default round
    cap is ``SI_CAP_FACTOR`` times the node count."""
    if params is None:
        params = ModelParams()
    return _spread(g, g.index(seed), g.adjacency, max_iterations,
                   params.si_beta, params.rng_seed, run_index, every_round=True)

"""The benchmark's workloads: seeded inputs, references and closed loops.

Each workload builds every input from the ``--seed`` it is given (the
program under test only ever sees the generated matrices, vectors and
deltas), computes scipy references for every (matrix, epoch, operand)
it will request before any clock starts, warms a service with one
request per matrix, and then drives the service in a closed loop for a
fixed wall time, timing scipy's product on its matrices between blocks
of operations.  ``README.md`` in this directory says why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.datasets import MatrixCollection
from repro.datasets.evolving import growing_rmat, widening_band
from repro.datasets.generators import stencil_2d, stencil_3d
from repro.formats.coo import COOMatrix
from repro.utils.rng import derive_seed

#: Corpus the serve and churn matrices are taken from.  The matrices
#: (and the evolving streams) are the same for every seed, so the
#: tuner's format decisions are too; the seed draws the traffic: request
#: order, operands, where updates fall, and CG right-hand sides.
CORPUS_SIZE, CORPUS_SEED = 160, 2023

#: 30 corpus matrices of 2k-411k nnz, log-spaced in size, in corpus
#: order.  Position in this list is the Zipf popularity rank.
SERVE_MATRICES = (
    "block_diagonal_0000", "uniform_rows_0001", "unstructured_fem_0036",
    "uniform_random_0026", "hypersparse_0001", "hypersparse_0000",
    "stencil_2d_0002", "unstructured_fem_0009", "uniform_rows_0005",
    "rmat_0004", "unstructured_fem_0039", "multi_diagonal_0002",
    "hypersparse_0006", "unstructured_fem_0013", "unstructured_fem_0014",
    "powerlaw_0010", "unstructured_fem_0049", "unstructured_fem_0007",
    "rmat_0002", "unstructured_fem_0032", "uniform_rows_0011",
    "stencil_2d_0001", "unstructured_fem_0015", "rmat_0000",
    "uniform_rows_0009", "uniform_random_0016", "powerlaw_0005",
    "powerlaw_0000", "powerlaw_0004", "powerlaw_0002",
)

#: 24 corpus matrices of 38k-99k nnz for the cache-churn workload,
#: small enough that a run holds a dozen blocks of 1,000 operations.
CHURN_MATRICES = (
    "powerlaw_0000", "stencil_2d_0005", "block_diagonal_0009",
    "unstructured_fem_0042", "unstructured_fem_0030", "uniform_random_0016",
    "powerlaw_0003", "uniform_random_0024", "unstructured_fem_0008",
    "diagonal_dominant_0001", "block_diagonal_0007", "stencil_2d_0003",
    "unstructured_fem_0050", "uniform_random_0023", "unstructured_fem_0035",
    "unstructured_fem_0043", "uniform_random_0014", "uniform_rows_0000",
    "stencil_2d_0006", "stencil_3d_0001", "uniform_random_0013",
    "uniform_random_0005", "powerlaw_0007", "uniform_rows_0013",
)

#: The process's CPU clock: the CPU time of all its threads.  It stops
#: while the process waits for a core another process holds, or while
#: the host runs someone else on its virtual CPU (the kernel subtracts
#: steal time), so it measures the program's work, not its neighbours.
cpu_clock = time.process_time

#: Operations per block: a block's p99 has ten samples beyond it.
BLOCK = 1000

#: Nonzeros one calibration multiplies: 10M, 10-30 ms on the machines
#: used to build this benchmark.
CALIBRATION_NNZ = 10_000_000


class Calibrated:
    """A workload that times scipy's CSR product on its own matrices.

    Between blocks of operations, with nothing in flight, the generator
    thread runs ``rounds`` passes of one ``csr @ x`` per workload matrix
    on the CPU clock.  A block's figures are then also stated in units
    of the mean time of one such product, measured on the same core
    just before and just after the block, so a change of the host's
    speed moves the block and its unit together.
    """

    def set_calibration(self, pairs) -> None:
        self.calibration = list(pairs)
        nnz = sum(a.nnz for a, _ in self.calibration)
        self.rounds = max(1, round(CALIBRATION_NNZ / nnz))

    def calibrate(self, phase: "Phase") -> None:
        """Time one calibration into *phase*."""
        c0 = cpu_clock()
        for _ in range(self.rounds):
            for a, x in self.calibration:
                a @ x
        phase.marks.append(len(phase.cpu_latencies))
        phase.unit_seconds.append(
            (cpu_clock() - c0) / (self.rounds * len(self.calibration)))


#: Operand vectors drawn per matrix (and per epoch for mutated ones).
OPERANDS = 4
#: Relative tolerance of the CG solves.
CG_RTOL = 1e-8


#: Cards per deck.  Request traffic is dealt from shuffled decks that
#: hold each kind of operation in its expected share, so every stretch
#: of this many operations has the same mix and the seed draws only the
#: order.  Drawn independently, the mix of a 1,000-operation stretch
#: varied enough to move its throughput by a third.
DECK = 1000


def dealt(rng, shares, n: int) -> np.ndarray:
    """*n* values of ``range(len(shares))`` dealt from shuffled decks of
    ``DECK`` cards, each value in its share of a deck (largest
    remainder rounding)."""
    exact = np.asarray(shares, dtype=float)
    exact = exact / exact.sum() * DECK
    counts = np.floor(exact).astype(int)
    counts[np.argsort(counts - exact)[:DECK - counts.sum()]] += 1
    deck = np.repeat(np.arange(len(counts)), counts)
    return np.concatenate(
        [rng.permutation(deck) for _ in range(-(-n // DECK))]
    )[:n]


def scipy_operator(matrix: COOMatrix) -> sp.csr_matrix:
    """The scipy reference operator for a canonical COO matrix."""
    return sp.csr_matrix(
        (matrix.data, (matrix.row, matrix.col)), shape=matrix.shape
    )


def matches(y: np.ndarray, ref: np.ndarray) -> bool:
    """``y`` agrees with the reference up to summation-order rounding."""
    if y.shape != ref.shape:
        return False
    scale = float(np.abs(ref).max()) if ref.size else 0.0
    return bool(np.allclose(y, ref, rtol=1e-9, atol=1e-9 * scale))


def corpus_matrices(names) -> List[Tuple[str, COOMatrix]]:
    """Generate the named corpus matrices."""
    corpus = MatrixCollection(n_matrices=CORPUS_SIZE, seed=CORPUS_SEED)
    return [(name, corpus.generate(corpus.spec_by_name(name))) for name in names]


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: List[float] = field(default_factory=list)
    cpu_latencies: List[float] = field(default_factory=list)
    #: CPU clock at each completion, from the start of the phase
    cpu_done: List[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu_elapsed: float = 0.0
    #: operation counts at each calibration, and the mean seconds of one
    #: scipy product that calibration measured
    marks: List[int] = field(default_factory=list)
    unit_seconds: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    solve_seconds: List[float] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)
    backends: set = field(default_factory=set)


@dataclass
class Touch:
    """Outcome of the set-up requests (one or more per matrix)."""

    ops: int = 0
    failed: int = 0


# ----------------------------------------------------------------------
# closed loop shared by the request-serving workloads
# ----------------------------------------------------------------------
class RequestLoop(Calibrated):
    """A pre-generated operation sequence driven with a fixed window.

    One generator thread keeps ``window`` requests outstanding: when one
    completes the next is submitted.  Latency runs from just before
    ``submit`` to the completion callback, so caller-side work (operand
    validation, content hashing) is inside it.  Every ``BLOCK``
    completions it stops submitting, lets the window drain and
    calibrates; the calibrations are left out of the phase's clocks.
    The cursor persists across :meth:`drive` calls, so a second phase
    continues the stream.
    """

    window = 1

    def __init__(self) -> None:
        self.pos = 0
        self.length = 0

    def submit(self, service, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def drive(self, service, seconds: float) -> Phase:
        phase = Phase()
        submitted: Dict[object, Tuple[int, float]] = {}
        # the completion callback runs in the serving thread right after
        # the result is set; it timestamps and hands the future back
        completions: "queue.SimpleQueue" = queue.SimpleQueue()

        def on_done(future):
            completions.put((future, time.perf_counter(), cpu_clock()))

        end = time.perf_counter() + seconds
        self.calibrate(phase)
        start, cpu_start = time.perf_counter(), cpu_clock()
        last, cpu_last = start, cpu_start
        while True:
            block = len(phase.cpu_latencies) - phase.marks[-1]
            if not submitted and block >= BLOCK:
                t0, c0 = time.perf_counter(), cpu_clock()
                self.calibrate(phase)
                start += time.perf_counter() - t0
                cpu_start += cpu_clock() - c0
            while (
                len(submitted) < self.window
                and self.pos < self.length
                and time.perf_counter() < end
                and len(phase.cpu_latencies) - phase.marks[-1] < BLOCK
            ):
                i = self.pos
                self.pos += 1
                t0, c0 = time.perf_counter(), cpu_clock()
                try:
                    future = self.submit(service, i)
                except Exception:
                    phase.ops += 1
                    phase.failed += 1
                    continue
                submitted[future] = (i, t0, c0)
                future.add_done_callback(on_done)
            if not submitted:
                break
            future, finished, cpu_finished = completions.get()
            i, t0, c0 = submitted.pop(future)
            last, cpu_last = finished, cpu_finished
            phase.ops += 1
            phase.latencies.append(finished - t0)
            phase.cpu_latencies.append(cpu_finished - c0)
            phase.cpu_done.append(cpu_finished - cpu_start)
            try:
                result = future.result()
            except Exception:
                phase.failed += 1
                continue
            if not self.check(i, result):
                phase.failed += 1
            if hasattr(result, "y"):
                phase.batch_sizes.append(result.batch_size)
                phase.backends.add(result.backend)
        phase.elapsed = last - start
        phase.cpu_elapsed = cpu_last - cpu_start
        self.calibrate(phase)
        return phase


# ----------------------------------------------------------------------
# solve_cg
# ----------------------------------------------------------------------
def shifted_laplacian(pattern: COOMatrix, points: int, shift: float) -> COOMatrix:
    """``L + shift*I`` on a stencil pattern: -1 off the diagonal, and
    ``points - 1 + shift`` on it (a backward-Euler heat-equation step).
    SPD with a condition number near ``(2*(points-1)) / shift``."""
    diag = pattern.row == pattern.col
    data = np.where(diag, float(points - 1) + shift, -1.0)
    return COOMatrix(
        pattern.nrows, pattern.ncols, pattern.row, pattern.col, data,
        canonical=True,
    )


class SolveCG(Calibrated):
    """CG to rtol 1e-8 through ``Session.spmv`` on two ~225k-nnz operators."""

    name = "solve_cg"
    shift = 0.005

    def __init__(self, seed: int, seconds: float) -> None:
        self.operators = [
            ("cg:stencil_3d", shifted_laplacian(
                stencil_3d(32, points=7), 7, self.shift)),
            ("cg:stencil_2d", shifted_laplacian(
                stencil_2d(160, points=9), 9, self.shift)),
        ]
        self.refs = [scipy_operator(a) for _, a in self.operators]
        rng = np.random.default_rng(derive_seed(seed, self.name, "rhs"))
        # solve i runs on operator i % 2 with its own right-hand side; a
        # solve takes ~0.1 s here, so this leaves room for a much faster
        # program
        solves = 24 * int(np.ceil(seconds)) + 2
        self.rhs = [
            rng.standard_normal(self.operators[i % 2][1].nrows)
            for i in range(solves)
        ]
        self.probe = [rng.standard_normal(a.ncols) for _, a in self.operators]
        self.probe_refs = [
            ref @ x for ref, x in zip(self.refs, self.probe)
        ]
        self.set_calibration(zip(self.refs, self.probe))
        self.work = [
            [np.zeros(a.nrows) for _ in range(4)] for _, a in self.operators
        ]
        self.solves = 0

    def service_kwargs(self, tmp: str) -> dict:
        return {}

    def first_touch(self, service) -> Touch:
        touch = Touch()
        for (key, a), x, ref in zip(self.operators, self.probe, self.probe_refs):
            touch.ops += 1
            if not matches(service.spmv(a, x, key=key).y, ref):
                touch.failed += 1
        return touch

    def _solve(self, session, key, a, ref, b, work, phase: Phase,
               cpu_start: float) -> None:
        # the iteration vectors are preallocated per operator and updated
        # in place, so a solve allocates nothing on the benchmark's side
        x, r, p, tmp = work
        x.fill(0.0)
        np.copyto(r, b)
        np.copyto(p, b)
        rs = float(r @ r)
        target = (CG_RTOL * float(np.linalg.norm(b))) ** 2
        iterations = 0
        ops_before = phase.ops
        started = time.perf_counter()
        while rs > target and iterations < a.nrows:
            t0, c0 = time.perf_counter(), cpu_clock()
            phase.ops += 1
            try:
                result = session.spmv(a, p, key=key)
            except Exception:
                phase.failed += 1
                return
            c1 = cpu_clock()
            phase.latencies.append(time.perf_counter() - t0)
            phase.cpu_latencies.append(c1 - c0)
            phase.cpu_done.append(c1 - cpu_start)
            phase.batch_sizes.append(result.batch_size)
            phase.backends.add(result.backend)
            ap = result.y
            alpha = rs / float(p @ ap)
            np.multiply(p, alpha, out=tmp)
            x += tmp
            np.multiply(ap, alpha, out=tmp)
            r -= tmp
            rs_new = float(r @ r)
            p *= rs_new / rs
            p += r
            rs = rs_new
            iterations += 1
        phase.solve_seconds.append(time.perf_counter() - started)
        phase.iterations.append(iterations)
        true_residual = float(np.linalg.norm(b - ref @ x))
        if true_residual > CG_RTOL * float(np.linalg.norm(b)):
            phase.failed += phase.ops - ops_before

    def drive(self, service, seconds: float) -> Phase:
        phase = Phase()
        session = service.session(self.name)
        end = time.perf_counter() + seconds
        self.calibrate(phase)
        start, cpu_start = time.perf_counter(), cpu_clock()
        while time.perf_counter() < end and self.solves < len(self.rhs):
            if len(phase.cpu_latencies) - phase.marks[-1] >= BLOCK:
                t0, c0 = time.perf_counter(), cpu_clock()
                self.calibrate(phase)
                start += time.perf_counter() - t0
                cpu_start += cpu_clock() - c0
            k = self.solves % len(self.operators)
            key, a = self.operators[k]
            self._solve(session, key, a, self.refs[k], self.rhs[self.solves],
                        self.work[k], phase, cpu_start)
            self.solves += 1
        phase.elapsed = time.perf_counter() - start
        phase.cpu_elapsed = cpu_clock() - cpu_start
        self.calibrate(phase)
        return phase


# ----------------------------------------------------------------------
# serve_rw
# ----------------------------------------------------------------------
@dataclass
class Target:
    key: str
    matrix: COOMatrix
    keyed: bool
    stream: Optional[int] = None  # index into ServeRW.streams


class ServeRW(RequestLoop):
    """Zipf reads over 32 matrices, 3% updates on two evolving streams."""

    name = "serve_rw"
    window = 4
    update_share = 0.03
    unkeyed_every = 10
    #: Sequence length per second of run: above any throughput seen here.
    ops_per_second = 2500

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__()
        # the two streams sit at popularity ranks 5 and 11
        stream_targets = (4, 10)
        n_targets = len(SERVE_MATRICES) + len(stream_targets)
        rng = np.random.default_rng(derive_seed(seed, self.name, "ops"))
        n = self.length = int(self.ops_per_second * seconds) + 1
        # kinds 0..n_targets-1 read that target; the rest update a stream
        weights = 1.0 / np.arange(1, n_targets + 1)
        shares = np.concatenate((
            (1.0 - self.update_share) * weights / weights.sum(),
            np.full(len(stream_targets),
                    self.update_share / len(stream_targets)),
        ))
        kind = dealt(rng, shares, n)
        self.is_update = kind >= n_targets
        self.target_of = kind.copy()
        self.target_of[self.is_update] = np.asarray(stream_targets)[
            kind[self.is_update] - n_targets
        ]
        self.operand_of = rng.integers(0, OPERANDS, size=n)
        # the epoch each operation must observe, in submission order
        self.epoch_of = np.zeros(n, dtype=np.int64)
        epochs = dict.fromkeys(stream_targets, 0)
        for i in np.flatnonzero(np.isin(self.target_of, stream_targets)):
            t = int(self.target_of[i])
            epochs[t] += int(self.is_update[i])
            self.epoch_of[i] = epochs[t]

        self.streams = [
            growing_rmat(
                scale=13, epochs=max(1, epochs[stream_targets[0]]),
                edges_per_node=8.0, edges_per_epoch=128, seed=CORPUS_SEED,
            ),
            widening_band(
                n=256, epochs=max(1, epochs[stream_targets[1]]),
                seed=CORPUS_SEED,
            ),
        ]
        # every tenth corpus matrix is requested without a key
        self.targets: List[Target] = [
            Target(name, m, keyed=(i + 1) % self.unkeyed_every != 0)
            for i, (name, m) in enumerate(corpus_matrices(SERVE_MATRICES))
        ]
        for s, (t, stream) in enumerate(zip(stream_targets, self.streams)):
            self.targets.insert(
                t, Target(f"stream:{stream.family}", stream.initial, True, s)
            )
        self.operands = [
            [rng.standard_normal(t.matrix.ncols) for _ in range(OPERANDS)]
            for t in self.targets
        ]
        self.refs = self._references()
        self.set_calibration(
            (scipy_operator(t.matrix), xs[0])
            for t, xs in zip(self.targets, self.operands)
        )

    def _references(self) -> Dict[Tuple[int, int, int], np.ndarray]:
        refs: Dict[Tuple[int, int, int], np.ndarray] = {}
        needed: Dict[Tuple[int, int], set] = {}
        for i in np.flatnonzero(~self.is_update):
            t = int(self.target_of[i])
            key = (t, int(self.epoch_of[i]))
            needed.setdefault(key, set()).add(int(self.operand_of[i]))
        for t, target in enumerate(self.targets):
            needed.setdefault((t, 0), set()).add(0)  # the set-up request
            if target.stream is None:
                ref = scipy_operator(target.matrix)
                for k in needed[(t, 0)]:
                    refs[(t, 0, k)] = ref @ self.operands[t][k]
                continue
            for epoch, content in enumerate(
                self.streams[target.stream].replay()
            ):
                operands = needed.get((t, epoch))
                if not operands:
                    continue
                ref = scipy_operator(content)
                for k in operands:
                    refs[(t, epoch, k)] = ref @ self.operands[t][k]
        return refs

    def service_kwargs(self, tmp: str) -> dict:
        # one worker beside the generator thread; with the default
        # two-worker pool on two cores one process's throughput swung
        # between 660 and 1200 req/s
        return {"workers": 1}

    def _key(self, target: Target) -> Optional[str]:
        return target.key if target.keyed else None

    def first_touch(self, service) -> Touch:
        touch = Touch()
        for t, target in enumerate(self.targets):
            touch.ops += 1
            result = service.spmv(
                target.matrix, self.operands[t][0], key=self._key(target)
            )
            if not matches(result.y, self.refs[(t, 0, 0)]):
                touch.failed += 1
        return touch

    def submit(self, service, i: int):
        target = self.targets[self.target_of[i]]
        if self.is_update[i]:
            epoch = int(self.epoch_of[i])
            delta = self.streams[target.stream].deltas[epoch - 1]
            return service.submit_update(target.matrix, delta, key=target.key)
        return service.submit(
            target.matrix,
            self.operands[self.target_of[i]][self.operand_of[i]],
            key=self._key(target),
        )

    def check(self, i: int, result) -> bool:
        t = int(self.target_of[i])
        epoch = int(self.epoch_of[i])
        if result.epoch != epoch:
            return False
        if self.is_update[i]:
            return True
        return matches(result.y, self.refs[(t, epoch, int(self.operand_of[i]))])


# ----------------------------------------------------------------------
# churn_tiered
# ----------------------------------------------------------------------
class ChurnTiered(RequestLoop):
    """Uniform keyed reads over 24 matrices; 6 fit the engine cache."""

    name = "churn_tiered"
    window = 1
    capacity = 6
    #: Sequence length per second of run: above any throughput seen here.
    ops_per_second = 4000

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__()
        self.matrices = corpus_matrices(CHURN_MATRICES)
        rng = np.random.default_rng(derive_seed(seed, self.name, "ops"))
        n = self.length = int(self.ops_per_second * seconds) + 1
        self.target_of = dealt(rng, np.ones(len(self.matrices)), n)
        self.operand_of = rng.integers(0, OPERANDS, size=n)
        self.operands = [
            [rng.standard_normal(m.ncols) for _ in range(OPERANDS)]
            for _, m in self.matrices
        ]
        self.refs = []
        operators = []
        for (_, m), xs in zip(self.matrices, self.operands):
            operators.append(scipy_operator(m))
            self.refs.append([operators[-1] @ x for x in xs])
        self.set_calibration(
            (a, xs[0]) for a, xs in zip(operators, self.operands))

    def service_kwargs(self, tmp: str) -> dict:
        return {"capacity": self.capacity, "storage_dir": tmp}

    def first_touch(self, service) -> Touch:
        # two passes: the first decides and converts every matrix, the
        # second evicts the six left resident so every matrix has a tier
        # entry and the timed phase only hits and promotes
        touch = Touch()
        for _ in range(2):
            for t, (key, m) in enumerate(self.matrices):
                touch.ops += 1
                result = service.spmv(m, self.operands[t][0], key=key)
                if not matches(result.y, self.refs[t][0]):
                    touch.failed += 1
        return touch

    def submit(self, service, i: int):
        t = self.target_of[i]
        key, m = self.matrices[t]
        return service.submit(m, self.operands[t][self.operand_of[i]], key=key)

    def check(self, i: int, result) -> bool:
        t = self.target_of[i]
        return matches(result.y, self.refs[t][self.operand_of[i]])


WORKLOADS = {w.name: w for w in (SolveCG, ServeRW, ChurnTiered)}

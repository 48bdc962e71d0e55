"""Correction-capability study (paper Fig. 10).

The paper injects 1--10 random errors into a test sequence of 1000 bits
(emulating 1000 flip-flops), passes the sequence through four Hamming
implementations and reports the percentage of injected errors that each
code corrects, over one million simulated sequences.

The mechanism behind the curves: the 1000-bit state is carved into
consecutive codewords; a single-error-correcting code repairs an
injected error only when it is the *only* error in its codeword.
Longer codewords (lower redundancy) make collisions more likely, so
Hamming(63,57) degrades much faster than Hamming(7,4) as the error
count grows.

Both a Monte-Carlo campaign (matching the paper's methodology) and the
closed-form expectation are provided; the property-based tests check
they agree.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaigns.runner import CampaignTask
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.seeding import child_seed
from repro.codes.hamming import PAPER_HAMMING_CODES, HammingCode


@dataclass(frozen=True)
class CorrectionCapabilityResult:
    """Correction statistics of one code at one injected-error count.

    Attributes
    ----------
    code_n, code_k:
        The Hamming code parameters.
    num_errors:
        Errors injected per test sequence.
    sequences:
        Monte-Carlo sample size.
    corrected_fraction:
        Fraction of injected error bits that were corrected (the y axis
        of the paper's Fig. 10).
    sequences_fully_corrected:
        Number of sequences in which every injected error was corrected.
    """

    code_n: int
    code_k: int
    num_errors: int
    sequences: int
    corrected_fraction: float
    sequences_fully_corrected: int

    @property
    def corrected_percent(self) -> float:
        """Corrected fraction as a percentage."""
        return self.corrected_fraction * 100.0


def analytic_correction_probability(code: HammingCode, num_bits: int,
                                    num_errors: int) -> float:
    """Expected fraction of corrected errors, in closed form.

    With the ``num_bits`` state carved into codewords of ``n`` bits, an
    error is corrected exactly when none of the other ``num_errors - 1``
    errors falls into its codeword.  For errors placed uniformly at
    random without replacement this probability is

    ``prod_{i=1..m-1} (num_bits - n - i + 1) / (num_bits - i)``

    with ``m = num_errors`` and ``n`` the codeword length (capped at the
    sequence size).
    """
    if num_errors <= 0:
        return 1.0
    if num_bits <= 0:
        raise ValueError("the sequence must contain at least one bit")
    n = min(code.n, num_bits)
    probability = 1.0
    for i in range(1, num_errors):
        remaining_outside = num_bits - n - (i - 1)
        remaining_total = num_bits - i
        if remaining_total <= 0 or remaining_outside <= 0:
            return 0.0
        probability *= remaining_outside / remaining_total
    return probability


def _simulate_sequence(code: HammingCode, num_bits: int, num_errors: int,
                       rng: random.Random) -> Tuple[int, bool]:
    """One Monte-Carlo trial; returns (corrected bits, fully corrected)."""
    positions = rng.sample(range(num_bits), num_errors)
    codeword_of = [pos // code.n for pos in positions]
    counts: Dict[int, int] = {}
    for word in codeword_of:
        counts[word] = counts.get(word, 0) + 1
    corrected = sum(1 for word in codeword_of if counts[word] == 1)
    return corrected, corrected == num_errors


def _simulate_chunk_reference(code: HammingCode, num_bits: int,
                              num_errors: int, rng: random.Random,
                              num_sequences: int) -> CorrectionCounters:
    """``num_sequences`` trials of :func:`_simulate_sequence`, one
    ``rng.sample`` each: the exact oracle of the chunk simulators."""
    counters = CorrectionCounters()
    for _ in range(num_sequences):
        corrected, full = _simulate_sequence(code, num_bits, num_errors, rng)
        counters.sequences += 1
        counters.corrected_bits += corrected
        counters.fully_corrected += 1 if full else 0
    return counters


#: One Mersenne Twister output per ``array("I")`` item needs 4-byte
#: items; without them the bulk draw falls back to the reference loop.
_WORDS_ARE_32_BIT = array("I").itemsize == 4

#: ``getrandbits`` returns its words least-significant first, which the
#: little-endian byte string keeps; big-endian hosts swap them back.
_SWAP_WORD_BYTES = sys.byteorder != "little"

#: Most words one bulk draw takes, so a huge chunk walks its stream in
#: bounded memory (a 500-trial, 10-error chunk needs about 5 300).
_MAX_DRAW_WORDS = 1 << 16


def _sample_uses_pool(num_bits: int, num_errors: int) -> bool:
    """Whether ``random.sample(range(num_bits), num_errors)`` shuffles a
    pool (drawing ``randbelow(num_bits - i)``) instead of taking its
    set branch, the only one the bulk draw reproduces."""
    setsize = 21
    if num_errors > 5:
        setsize += 4 ** math.ceil(math.log(num_errors * 3, 4))
    return num_bits <= setsize


def _extend_stream(rng: random.Random, num_bits: int, codeword_bits: int,
                   positions: List[int], codewords: List[int], start: int,
                   expected_words: float) -> Tuple[List[int], List[int]]:
    """Drop the consumed ``positions[:start]`` and append the accepted
    ``randbelow(num_bits)`` values among the next Mersenne Twister
    outputs, in stream order; ``codewords`` follows with the codeword
    index of each position.

    ``getrandbits(32 * m)`` returns the next ``m`` outputs, the first
    one in the lowest 32 bits.  ``randbelow`` keeps the top
    ``num_bits.bit_length()`` bits of one output and redraws values
    ``>= num_bits``; both steps are applied here to the whole block.
    """
    # A few standard deviations of slack: a short block only costs a
    # refill, while surplus words cost a one-trial chunk its speed.
    words = min(_MAX_DRAW_WORDS,
                int(expected_words + 2 * math.sqrt(expected_words)) + 4)
    raw = array("I", rng.getrandbits(32 * words).to_bytes(4 * words,
                                                           "little"))
    if _SWAP_WORD_BYTES:
        raw.byteswap()
    shift = 32 - num_bits.bit_length()
    fresh = [value for word in raw if (value := word >> shift) < num_bits]
    return (positions[start:] + fresh,
            codewords[start:] + [pos // codeword_bits for pos in fresh])


def _simulate_chunk_packed(code: HammingCode, num_bits: int,
                           num_errors: int, rng: random.Random,
                           num_sequences: int) -> CorrectionCounters:
    """``num_sequences`` trials from bulk draws, with the counters of
    :func:`_simulate_chunk_reference` on the same ``rng``.

    One ``getrandbits`` call per block yields the accepted
    ``randbelow(num_bits)`` stream of the whole chunk (see
    :func:`_extend_stream`); a further block is drawn whenever
    rejections run past the estimate.  The trials are then read off the
    stream one after another.  ``random.sample``'s set branch redraws a
    position it already picked, so a trial takes the shortest prefix
    holding ``num_errors`` distinct positions.  In the common case the
    next ``num_errors`` positions fall in distinct codewords, which
    makes them distinct and the trial fully corrected.

    Only the counters are exact: ``rng`` ends up past the last trial's
    draws.  Inputs where ``sample`` would shuffle a pool instead
    (:func:`_sample_uses_pool`), ``num_bits >= 2**32`` (``randbelow``
    then spans several words), generators other than
    :class:`random.Random` and hosts without 4-byte ``array`` items run
    the reference loop.
    """
    k = num_errors
    if num_sequences <= 0:
        return CorrectionCounters()
    if not 0 <= k <= num_bits:
        raise ValueError("Sample larger than population or is negative")
    if (type(rng) is not random.Random or not _WORDS_ARE_32_BIT
            or num_bits >= 1 << 32 or _sample_uses_pool(num_bits, k)):
        return _simulate_chunk_reference(code, num_bits, k, rng,
                                         num_sequences)
    n = code.n
    # Raw words per trial: k accepted draws plus the expected duplicate
    # redraws, over the fraction of words below num_bits.
    words_per_trial = ((k + k * (k - 1) / (2 * num_bits))
                       * (1 << num_bits.bit_length()) / num_bits)
    positions: List[int] = []
    codewords: List[int] = []
    start = available = 0
    corrected = full = 0
    for trial in range(num_sequences):
        stop = start + k
        while stop > available:
            positions, codewords = _extend_stream(
                rng, num_bits, n, positions, codewords, start,
                (num_sequences - trial) * words_per_trial)
            start, stop, available = 0, k, len(positions)
        hits = codewords[start:stop]
        distinct = len(set(hits))
        if distinct < k:
            picked = set(positions[start:stop])
            if len(picked) < k:
                # A repeated position: extend to k distinct positions.
                while len(picked) < k:
                    while stop == available:
                        positions, codewords = _extend_stream(
                            rng, num_bits, n, positions, codewords, start,
                            (num_sequences - trial) * words_per_trial)
                        stop -= start
                        start, available = 0, len(positions)
                    picked.add(positions[stop])
                    stop += 1
                hits = [pos // n for pos in picked]
                distinct = len(set(hits))
        start = stop
        if distinct == k:
            full += 1
            corrected += k
        elif distinct == k - 1:
            # Exactly one codeword holds two errors.
            corrected += k - 2
        else:
            corrected += list(map(hits.count, hits)).count(1)
    return CorrectionCounters(sequences=num_sequences,
                              corrected_bits=corrected,
                              fully_corrected=full)


#: Chunk simulators selectable via this study's ``engine`` option, each
#: ``(code, num_bits, num_errors, rng, num_sequences) ->
#: CorrectionCounters``; both return the same counters for the same
#: ``rng``.  Deliberately separate from the design-engine registry of
#: :mod:`repro.engines`: these simulate abstract codeword collisions
#: over a 1000-bit sequence, not a protected design, so engines
#: registered there do not apply here.
SEQUENCE_ENGINES = {
    "reference": _simulate_chunk_reference,
    "packed": _simulate_chunk_packed,
}


@dataclass
class CorrectionCounters:
    """Mergeable counters of one correction-capability shard."""

    sequences: int = 0
    corrected_bits: int = 0
    fully_corrected: int = 0

    def merge(self, other: "CorrectionCounters") -> "CorrectionCounters":
        """Add another shard's counters into this one (in place)."""
        self.sequences += other.sequences
        self.corrected_bits += other.corrected_bits
        self.fully_corrected += other.fully_corrected
        return self

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form (JSON-safe) for checkpoints."""
        return {"sequences": self.sequences,
                "corrected_bits": self.corrected_bits,
                "fully_corrected": self.fully_corrected}

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "CorrectionCounters":
        """Rebuild the counters from :meth:`to_dict` output."""
        return cls(sequences=int(payload["sequences"]),
                   corrected_bits=int(payload["corrected_bits"]),
                   fully_corrected=int(payload["fully_corrected"]))


@dataclass(frozen=True)
class CorrectionCapabilityTask(CampaignTask):
    """One chunk of the Fig. 10 Monte-Carlo study, for the sharded
    runner of :mod:`repro.campaigns`."""

    code_n: int
    code_k: int
    num_bits: int
    num_errors: int
    engine: str = "reference"

    def empty_result(self) -> CorrectionCounters:
        return CorrectionCounters()

    def run_chunk_on(self, state, chunk_seed: int,
                     num_sequences: int) -> CorrectionCounters:
        return SEQUENCE_ENGINES[self.engine](
            HammingCode(self.code_n, self.code_k), self.num_bits,
            self.num_errors, random.Random(chunk_seed), num_sequences)


def _validate_request(error_counts: Sequence[int], num_bits: int,
                      engine: str) -> None:
    """Reject a curve request before any job is dispatched, naming the
    offending error count or engine."""
    if not error_counts:
        raise ValueError("error_counts is empty; name at least one "
                         "error count")
    for num_errors in error_counts:
        if num_errors < 0:
            raise ValueError(f"error count {num_errors} is negative")
        if num_errors > num_bits:
            raise ValueError(f"cannot inject {num_errors} errors into "
                             f"{num_bits} bits")
    if engine not in SEQUENCE_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from "
            f"{tuple(SEQUENCE_ENGINES)}")


def _submit_curve(scheduler: CampaignScheduler, code: HammingCode,
                  error_counts: Sequence[int], num_bits: int,
                  sequences: int, seed: Optional[Union[int, str]],
                  engine: str, chunk_size: Optional[int],
                  progress_callback=None) -> list:
    """Queue one code's curve (one job per error count) on a scheduler."""
    jobs = []
    for num_errors in error_counts:
        task = CorrectionCapabilityTask(
            code_n=code.n, code_k=code.k, num_bits=num_bits,
            num_errors=num_errors, engine=engine)
        jobs.append((num_errors, scheduler.submit(
            task, sequences,
            seed=None if seed is None else child_seed(seed, "errors",
                                                      num_errors),
            chunk_size=chunk_size,
            progress_callback=progress_callback)))
    return jobs


def _curve_results(code: HammingCode,
                   jobs: list) -> List[CorrectionCapabilityResult]:
    """Collect one code's finished scheduler jobs into curve points."""
    results = []
    for num_errors, job in jobs:
        counters = job.result
        results.append(CorrectionCapabilityResult(
            code_n=code.n, code_k=code.k,
            num_errors=num_errors,
            sequences=counters.sequences,
            corrected_fraction=(
                counters.corrected_bits / (counters.sequences * num_errors)
                if num_errors > 0 else 1.0),
            sequences_fully_corrected=counters.fully_corrected))
    return results


def correction_capability_curve(code: HammingCode,
                                error_counts: Sequence[int] = tuple(
                                    range(1, 11)),
                                num_bits: int = 1000,
                                sequences: int = 2000,
                                seed: Optional[Union[int, str]] = 1234,
                                engine: str = "reference",
                                num_workers: int = 1,
                                chunk_size: Optional[int] = None,
                                progress_callback=None,
                                executor=None,
                                scheduler: Optional[CampaignScheduler] = None
                                ) -> List[CorrectionCapabilityResult]:
    """Monte-Carlo correction-capability curve for one code.

    Parameters mirror the paper's setup (1000-bit sequences, 1--10
    injected errors); ``sequences`` trades accuracy against runtime
    (the paper used 10^6, the default here is CI-sized and the
    benchmark harness can raise it).  ``engine="packed"`` simulates
    each chunk from bulk draws: one ``getrandbits`` call yields the
    chunk's Mersenne Twister words, which it turns into exactly the
    positions per-trial ``random.sample`` picks, so it returns
    identical statistics, just faster.  It runs the reference loop
    where ``sample`` would shuffle a pool instead (``num_bits`` at most
    21 for up to 5 errors, at most 85 for 6--10) and for
    ``num_bits >= 2**32``.  Every error count is checked before any
    job is dispatched: an empty ``error_counts``, a negative count or
    one above ``num_bits`` raises :class:`ValueError`.

    The per-error-count campaigns run as jobs of one
    :class:`~repro.campaigns.scheduler.CampaignScheduler` sharing a
    single executor (``executor`` accepts ``"serial"``/``"thread"``/
    ``"process"`` or an instance, sized by ``num_workers``), their
    chunks interleaved fair-share and their merged results memoized --
    re-requesting a curve point on the same scheduler is free.  Each
    error count keeps its own seed-split campaign root, so the
    statistics are bit-identical to the historical one-runner-per-point
    execution for any worker count and executor kind (given the same
    ``chunk_size``).  A scheduler built here is closed on return; a
    passed-in ``scheduler`` is left to its owner.
    """
    _validate_request(error_counts, num_bits, engine)
    owned = scheduler is None
    if owned:
        scheduler = CampaignScheduler(executor=executor,
                                      num_workers=num_workers)
    try:
        jobs = _submit_curve(scheduler, code, error_counts, num_bits,
                             sequences, seed, engine, chunk_size,
                             progress_callback=progress_callback)
        scheduler.run()
    finally:
        if owned:
            scheduler.close()
    return _curve_results(code, jobs)


def fig10_curves(error_counts: Sequence[int] = tuple(range(1, 11)),
                 num_bits: int = 1000,
                 sequences: int = 2000,
                 seed: Optional[Union[int, str]] = 1234,
                 family: Sequence[Tuple[int, int]] = PAPER_HAMMING_CODES,
                 engine: str = "reference",
                 num_workers: int = 1,
                 chunk_size: Optional[int] = None,
                 executor=None
                 ) -> Dict[Tuple[int, int], List[CorrectionCapabilityResult]]:
    """Regenerate all four curves of the paper's Fig. 10.

    All ``len(family) * len(error_counts)`` campaigns are submitted to
    **one** scheduler and executed fair-share over one shared executor
    pool -- the Fig. 10 figure is exactly the many-jobs-one-pool shape
    the campaign service is built for.

    Each curve derives its root seed with hash-based seed-splitting
    (``child_seed(seed, "fig10", n, k)``) instead of the historical
    ``seed + offset`` scheme, under which the same integer seed could
    serve two different (code, error count) campaigns -- e.g. curve 0
    with user seed ``s + 1`` and curve 1 with user seed ``s`` --
    silently correlating samples that the statistics assume are
    independent.
    """
    _validate_request(error_counts, num_bits, engine)
    with CampaignScheduler(executor=executor,
                           num_workers=num_workers) as scheduler:
        submitted = []
        for n, k in family:
            code = HammingCode(n, k)
            curve_seed = (None if seed is None
                          else child_seed(seed, "fig10", n, k))
            submitted.append((code, _submit_curve(
                scheduler, code, error_counts, num_bits, sequences,
                curve_seed, engine, chunk_size)))
        scheduler.run()
    return {(code.n, code.k): _curve_results(code, jobs)
            for code, jobs in submitted}


__all__ = [
    "CorrectionCapabilityResult",
    "CorrectionCapabilityTask",
    "CorrectionCounters",
    "SEQUENCE_ENGINES",
    "analytic_correction_probability",
    "correction_capability_curve",
    "fig10_curves",
]

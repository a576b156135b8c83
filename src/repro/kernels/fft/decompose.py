"""Partitioning an N-point radix-2 FFT onto rows x columns of tiles.

Sec. 3.1: the DIF computation structure is cut horizontally into
``N / M`` rows — each row's M points live in one tile's data memory — and
vertically into ``cols`` columns of tiles, each column executing
``log2(N) / cols`` consecutive stages.  The partition size M follows from
the tile's data memory: a butterfly stage needs 2M words of complex
input, up to M words of twiddles and 41 temporaries, so with output
locations reused ``3M + 41 <= DM`` and M = 128 for the 512-word reMORPH
memory.

The first ``X = log2(N) - log2(M)`` stages have butterfly spans >= M, so
row pairs exchange half their data vertically before computing (Fig. 9);
later stages are tile-internal.  :class:`FFTPlan` packages the stage
schedule, the exchange partners and the per-tile twiddle requirements that
both the performance model and the fabric runner consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import KernelError
from repro.kernels.fft.reference import ilog2, twiddle_exponent
from repro.units import DATA_MEM_WORDS

__all__ = ["partition_size", "FFTPlan"]


def partition_size(dmem_words: int = DATA_MEM_WORDS, *, reuse_io: bool = True) -> int:
    """Largest power-of-two partition M fitting a tile's data memory.

    With input locations reused for outputs a stage needs ``3M + 41``
    words (2M data + M twiddles + 41 temporaries), otherwise ``5M + 41``.
    ``M = 2**floor(log2((DM - 41) / k))`` — 128 for DM = 512 with reuse,
    matching the paper's 1024-point implementation.
    """
    k = 3 if reuse_io else 5
    budget = (dmem_words - 41) // k
    if budget < 2:
        raise KernelError(
            f"data memory of {dmem_words} words cannot hold any partition"
        )
    m = 1
    while m * 2 <= budget:
        m *= 2
    return m


@dataclass(frozen=True)
class FFTPlan:
    """Placement plan for an ``n``-point FFT with partition ``m`` on ``cols`` columns.

    ``cols`` must divide ``log2(n)`` (the paper explores the divisors
    {1, 2, 5, 10} of the 1024-point transform's 10 stages).
    """

    n: int
    m: int
    cols: int

    def __post_init__(self) -> None:
        bits = ilog2(self.n)
        ilog2(self.m)  # m must itself be a power of two
        if self.m > self.n:
            raise KernelError(f"partition m={self.m} exceeds n={self.n}")
        if self.cols < 1 or bits % self.cols:
            raise KernelError(
                f"cols={self.cols} must divide log2(n)={bits} "
                f"(paper uses its divisors)"
            )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @cached_property
    def stages(self) -> int:
        """Total butterfly stages, log2(n)."""
        return ilog2(self.n)

    @property
    def rows(self) -> int:
        """Tiles per column (horizontal partitions), n / m."""
        return self.n // self.m

    @property
    def stages_per_col(self) -> int:
        return self.stages // self.cols

    @property
    def n_tiles(self) -> int:
        """Compute tiles used: rows x cols."""
        return self.rows * self.cols

    @cached_property
    def exchange_stage_count(self) -> int:
        """X = log2(n) - log2(m): stages needing a vertical exchange."""
        return self.stages - ilog2(self.m)

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------

    def column_of_stage(self, stage: int) -> int:
        """Which column executes DIF stage ``stage``."""
        self._check_stage(stage)
        return stage // self.stages_per_col

    def stages_of_column(self, col: int) -> range:
        """The consecutive stages column ``col`` executes."""
        if not 0 <= col < self.cols:
            raise KernelError(f"column {col} outside [0, {self.cols})")
        g = self.stages_per_col
        return range(col * g, (col + 1) * g)

    def is_exchange_stage(self, stage: int) -> bool:
        """True when the stage's butterfly span is >= m (cross-tile pairs)."""
        self._check_stage(stage)
        return stage < self.exchange_stage_count

    def exchanges_in_column(self, col: int) -> int:
        """Number of exchange stages column ``col`` executes."""
        return sum(1 for s in self.stages_of_column(col) if self.is_exchange_stage(s))

    def exchanges_per_beat(self) -> list[int]:
        """R_k: columns doing a vertical exchange at pipeline beat k.

        At beat ``k`` every column ``c`` executes its k-th stage
        ``c * g + k``; the single configuration port serializes the link
        changes of all columns exchanging in the same beat, so beat k's
        link bill is ``R_k`` column-exchanges (Sec. 3.2's case
        expressions: the ``3 x t_l`` of the ten-column case and the
        ``(2 - i)`` factor of the five-column case).
        """
        g = self.stages_per_col
        return [
            sum(
                1
                for c in range(self.cols)
                if self.is_exchange_stage(c * g + k)
            )
            for k in range(g)
        ]

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.stages:
            raise KernelError(f"stage {stage} outside [0, {self.stages})")

    # ------------------------------------------------------------------
    # data distribution (block-contiguous: row r holds [r*m, (r+1)*m))
    # ------------------------------------------------------------------

    def span(self, stage: int) -> int:
        """Butterfly span h = n / 2**(stage+1) at a DIF stage."""
        self._check_stage(stage)
        return self.n >> (stage + 1)

    def partner_row(self, row: int, stage: int) -> int:
        """Exchange partner of ``row`` at an exchange stage.

        Rows pair across the butterfly span: ``row XOR (span / m)``.
        """
        if not 0 <= row < self.rows:
            raise KernelError(f"row {row} outside [0, {self.rows})")
        if not self.is_exchange_stage(stage):
            raise KernelError(f"stage {stage} is tile-internal; no partner")
        return row ^ (self.span(stage) // self.m)

    def is_lower_partner(self, row: int, stage: int) -> bool:
        """True when ``row`` holds the lower (sum-producing) elements."""
        return row < self.partner_row(row, stage)

    @lru_cache(maxsize=None)
    def tile_twiddle_exponents(self, row: int, stage: int) -> list[int]:
        """Twiddle exponents (into W_n) row ``row`` consumes at ``stage``.

        Memoized on the (frozen) plan: both the performance model and the
        fabric runner re-query the same (row, stage) cells every
        transform, and the exponent walk dominated their host-side
        planning cost.  Callers must not mutate the returned list.

        For an exchange stage each partner computes half the pair block:
        the lower row the first m/2 pairs of its block, the upper row the
        last m/2 (Sec. 3.1's half-output transfer).  Internal stages
        compute the m/2 local pairs.  Exponents follow
        :func:`~repro.kernels.fft.reference.twiddle_exponent` on the
        global pair index.
        """
        if not 0 <= row < self.rows:
            raise KernelError(f"row {row} outside [0, {self.rows})")
        self._check_stage(stage)
        h = self.span(stage)
        base = row * self.m
        exponents = []
        if self.is_exchange_stage(stage):
            lower_base = min(base, self.partner_row(row, stage) * self.m)
            half = self.m // 2
            offset = 0 if self.is_lower_partner(row, stage) else half
            for j in range(half):
                i = lower_base + offset + j  # global lower element index
                exponents.append(self._pair_exponent(i, h, stage))
        else:
            for i in range(base, base + self.m):
                if (i % (2 * h)) < h:  # i is a lower element
                    exponents.append(self._pair_exponent(i, h, stage))
        return exponents

    def _pair_exponent(self, lower_index: int, span: int, stage: int) -> int:
        # Global pair index in lower-element order equals the DIF formula's
        # (i mod span) * 2**stage.
        del span
        pair = self._pair_index(lower_index, stage)
        return twiddle_exponent(self.n, stage, pair, dif=True)

    def _pair_index(self, lower_index: int, stage: int) -> int:
        h = self.span(stage)
        group, offset = divmod(lower_index, 2 * h)
        if offset >= h:
            raise KernelError(f"{lower_index} is not a lower element at stage {stage}")
        return group * h + offset

    def total_twiddle_loads_naive(self) -> int:
        """Twiddles loaded with no optimization: one per butterfly-stage.

        The paper's "instead of reloading N x log2 N" baseline.
        """
        return self.n * self.stages

    def describe(self) -> str:
        return (
            f"{self.n}-pt R2FFT: {self.rows} rows x {self.cols} cols "
            f"({self.n_tiles} tiles), {self.stages_per_col} stages/col, "
            f"{self.exchange_stage_count} exchange stages"
        )

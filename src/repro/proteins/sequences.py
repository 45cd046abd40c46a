"""Synthetic protein sequence generation and FASTA I/O.

The paper profiles Protein BERT on "synthetic protein strings" (Section 2.3)
with lengths from 32 to 2048 tokens.  This module produces such strings with
realistic amino-acid composition (UniProt background frequencies) and also
provides a tiny FASTA reader/writer so examples can round-trip datasets.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .alphabet import STANDARD_AMINO_ACIDS, is_valid_sequence

#: Approximate UniProt/Swiss-Prot background amino-acid frequencies.
BACKGROUND_FREQUENCIES: Dict[str, float] = {
    "A": 0.0826, "C": 0.0139, "D": 0.0546, "E": 0.0672, "F": 0.0387,
    "G": 0.0708, "H": 0.0228, "I": 0.0593, "K": 0.0580, "L": 0.0965,
    "M": 0.0241, "N": 0.0406, "P": 0.0475, "Q": 0.0393, "R": 0.0553,
    "S": 0.0660, "T": 0.0535, "V": 0.0687, "W": 0.0110, "Y": 0.0292,
}


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry: a header line and an amino-acid sequence."""

    header: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


class SequenceGenerator:
    """Generates synthetic protein strings with background composition.

    Args:
        seed: RNG seed; generation is fully deterministic given the seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._alphabet = np.array(STANDARD_AMINO_ACIDS)
        freqs = np.array([BACKGROUND_FREQUENCIES[a]
                          for a in STANDARD_AMINO_ACIDS])
        self._probabilities = freqs / freqs.sum()

    def sequence(self, length: int) -> str:
        """Draw one synthetic protein string of exactly ``length`` residues."""
        if length <= 0:
            raise ValueError("sequence length must be positive")
        draws = self._rng.choice(self._alphabet, size=length,
                                 p=self._probabilities)
        return "".join(draws)

    def batch(self, count: int, length: int) -> List[str]:
        """Draw ``count`` synthetic strings of equal ``length``."""
        return [self.sequence(length) for _ in range(count)]

    def mutate(self, sequence: str, num_mutations: int,
               positions: Optional[Sequence[int]] = None) -> str:
        """Apply ``num_mutations`` random point substitutions.

        Used to derive antibody variants from a scaffold (Section 2.2's 39
        Herceptin Fab variants are point-mutant libraries).

        Args:
            sequence: the scaffold to mutate.
            num_mutations: number of distinct positions to substitute.
            positions: restrict substitutions to these positions (antibody
                libraries mutate the CDR/paratope region); all positions
                when omitted.
        """
        if num_mutations < 0:
            raise ValueError("num_mutations must be non-negative")
        candidates = (list(range(len(sequence))) if positions is None
                      else sorted(set(positions)))
        if num_mutations > len(candidates):
            raise ValueError("cannot mutate more positions than candidates")
        # Sorted, so the two ends bound every candidate.
        if candidates and not (0 <= candidates[0]
                               and candidates[-1] < len(sequence)):
            raise ValueError("mutation position out of range")
        residues = list(sequence)
        chosen = self._rng.choice(candidates, size=num_mutations,
                                  replace=False)
        for pos in chosen:
            current = residues[pos]
            choices = [a for a in STANDARD_AMINO_ACIDS if a != current]
            residues[pos] = str(self._rng.choice(choices))
        return "".join(residues)


def parse_fasta(text: str) -> List[FastaRecord]:
    """Parse FASTA-formatted text into records.

    Raises:
        ValueError: on malformed input (sequence data before any header,
            or a record containing non-amino-acid characters).
    """
    records: List[FastaRecord] = []
    header: Optional[str] = None
    chunks: List[str] = []

    def flush() -> None:
        if header is None:
            return
        sequence = "".join(chunks).upper()
        if not is_valid_sequence(sequence):
            raise ValueError(f"invalid sequence for record '{header}'")
        records.append(FastaRecord(header=header, sequence=sequence))

    for line in io.StringIO(text):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            chunks = []
        else:
            if header is None:
                raise ValueError("sequence data before any FASTA header")
            chunks.append(line)
    flush()
    return records


def read_fasta(path: Union[str, Path]) -> List[FastaRecord]:
    """Read a FASTA file from disk."""
    return parse_fasta(Path(path).read_text())


def format_fasta(records: Iterable[FastaRecord], width: int = 60) -> str:
    """Render records as FASTA text with wrapped sequence lines."""
    lines: List[str] = []
    for record in records:
        lines.append(f">{record.header}")
        seq = record.sequence
        for start in range(0, len(seq), width):
            lines.append(seq[start:start + width])
    return "\n".join(lines) + "\n"


def write_fasta(records: Iterable[FastaRecord], path: Union[str, Path],
                width: int = 60) -> None:
    """Write records to a FASTA file."""
    Path(path).write_text(format_fasta(records, width=width))


def length_histogram(records: Sequence[FastaRecord],
                     bins: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Histogram of sequence lengths over half-open ``[lo, hi)`` bins."""
    histogram: Dict[Tuple[int, int], int] = {}
    edges = list(bins)
    for lo, hi in zip(edges[:-1], edges[1:]):
        histogram[(lo, hi)] = sum(1 for r in records if lo <= len(r) < hi)
    return histogram


def iter_windows(sequence: str, window: int, stride: int) -> Iterator[str]:
    """Yield overlapping windows of ``sequence`` (long-protein chunking)."""
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be positive")
    if len(sequence) <= window:
        yield sequence
        return
    for start in range(0, len(sequence) - window + 1, stride):
        yield sequence[start:start + window]

"""Tests for synthetic sequence generation and FASTA I/O."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proteins import (
    BACKGROUND_FREQUENCIES,
    FastaRecord,
    SequenceGenerator,
    STANDARD_AMINO_ACIDS,
    format_fasta,
    is_valid_sequence,
    iter_windows,
    length_histogram,
    parse_fasta,
    read_fasta,
    write_fasta,
)


class TestSequenceGenerator:
    def test_deterministic_given_seed(self):
        assert (SequenceGenerator(seed=3).sequence(50)
                == SequenceGenerator(seed=3).sequence(50))

    def test_different_seeds_differ(self):
        assert (SequenceGenerator(seed=1).sequence(100)
                != SequenceGenerator(seed=2).sequence(100))

    def test_length_respected(self):
        assert len(SequenceGenerator(seed=0).sequence(137)) == 137

    def test_only_standard_amino_acids(self):
        sequence = SequenceGenerator(seed=0).sequence(500)
        assert set(sequence) <= set(STANDARD_AMINO_ACIDS)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            SequenceGenerator(seed=0).sequence(0)

    def test_composition_tracks_background(self):
        sequence = SequenceGenerator(seed=0).sequence(50000)
        leucine_share = sequence.count("L") / len(sequence)
        assert abs(leucine_share - BACKGROUND_FREQUENCIES["L"]) < 0.01

    def test_batch_shape(self):
        batch = SequenceGenerator(seed=0).batch(count=5, length=20)
        assert len(batch) == 5
        assert all(len(s) == 20 for s in batch)


class TestMutate:
    def test_exact_mutation_count(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(100)
        mutant = generator.mutate(base, 7)
        assert sum(a != b for a, b in zip(base, mutant)) == 7

    def test_zero_mutations_is_identity(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(30)
        assert generator.mutate(base, 0) == base

    def test_restricted_positions(self):
        generator = SequenceGenerator(seed=0)
        base = generator.sequence(100)
        allowed = [10, 20, 30, 40]
        mutant = generator.mutate(base, 3, positions=allowed)
        changed = [i for i, (a, b) in enumerate(zip(base, mutant)) if a != b]
        assert set(changed) <= set(allowed)
        assert len(changed) == 3

    def test_too_many_mutations_rejected(self):
        generator = SequenceGenerator(seed=0)
        with pytest.raises(ValueError):
            generator.mutate("MEYQ", 5)

    def test_out_of_range_positions_rejected(self):
        generator = SequenceGenerator(seed=0)
        with pytest.raises(ValueError):
            generator.mutate("MEYQ", 1, positions=[9])

    def test_negative_positions_rejected(self):
        generator = SequenceGenerator(seed=0)
        with pytest.raises(ValueError, match="out of range"):
            generator.mutate("MEYQ", 1, positions=[2, -1])

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_mutant_stays_valid(self, count):
        generator = SequenceGenerator(seed=4)
        base = generator.sequence(40)
        assert is_valid_sequence(generator.mutate(base, count))


class TestFasta:
    SAMPLE = ">seq1 first\nMEYQ\nACDE\n>seq2\nWWWW\n"

    def test_parse_records(self):
        records = parse_fasta(self.SAMPLE)
        assert len(records) == 2
        assert records[0].header == "seq1 first"
        assert records[0].sequence == "MEYQACDE"
        assert records[1].sequence == "WWWW"

    def test_parse_skips_blank_lines(self):
        records = parse_fasta(">a\n\nME\n\nYQ\n")
        assert records[0].sequence == "MEYQ"

    def test_sequence_before_header_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta("MEYQ\n>late\nAC\n")

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta(">bad\nME1Q\n")

    def test_format_wraps_lines(self):
        record = FastaRecord(header="long", sequence="A" * 130)
        text = format_fasta([record], width=60)
        lines = text.strip().split("\n")
        assert lines[0] == ">long"
        assert [len(line) for line in lines[1:]] == [60, 60, 10]

    def test_roundtrip_through_disk(self, tmp_path):
        records = [FastaRecord("a", "MEYQ"), FastaRecord("b", "ACDE")]
        path = tmp_path / "test.fasta"
        write_fasta(records, path)
        assert read_fasta(path) == records

    def test_parse_format_roundtrip(self):
        records = parse_fasta(self.SAMPLE)
        assert parse_fasta(format_fasta(records)) == records


class TestHelpers:
    def test_length_histogram(self):
        records = [FastaRecord("a", "A" * n) for n in (5, 15, 25, 26)]
        histogram = length_histogram(records, bins=[0, 10, 20, 30])
        assert histogram == {(0, 10): 1, (10, 20): 1, (20, 30): 2}

    def test_iter_windows_short_sequence(self):
        assert list(iter_windows("MEYQ", window=10, stride=5)) == ["MEYQ"]

    def test_iter_windows_stride(self):
        windows = list(iter_windows("ABCDEFGH", window=4, stride=2))
        assert windows == ["ABCD", "CDEF", "EFGH"]

    def test_iter_windows_bad_args(self):
        with pytest.raises(ValueError):
            list(iter_windows("MEYQ", window=0, stride=1))

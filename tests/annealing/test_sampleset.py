"""Unit tests for SampleSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import RowAssignment, Sample, SampleSet
from repro.annealing.sampleset import matrix_rows


class TestSample:
    def test_value_accessor(self):
        s = Sample({"a": 1, "b": 0}, -2.0)
        assert s.value("a") == 1
        assert s.num_occurrences == 1


class TestSampleSet:
    def test_sorted_by_energy(self):
        ss = SampleSet([Sample({"a": 0}, 5.0), Sample({"a": 1}, -1.0)])
        assert ss.first.energy == -1.0
        assert ss.lowest_energy == -1.0

    def test_empty_first_raises(self):
        with pytest.raises(ValueError, match="empty"):
            SampleSet().first

    def test_len_counts_occurrences(self):
        ss = SampleSet([Sample({"a": 0}, 0.0, num_occurrences=3)])
        assert len(ss) == 3

    def test_from_states_merges_duplicates(self):
        states = [{"a": 1}, {"a": 1}, {"a": 0}]
        ss = SampleSet.from_states(states, [2.0, 2.0, 1.0])
        assert len(ss.samples) == 2
        dup = next(s for s in ss if s.assignment == {"a": 1})
        assert dup.num_occurrences == 2

    def test_truncate(self):
        ss = SampleSet([Sample({"a": i}, float(i)) for i in range(5)])
        top = ss.truncate(2)
        assert [s.energy for s in top.samples] == [0.0, 1.0]

    def test_info_passthrough(self):
        ss = SampleSet.from_states([{"a": 0}], [0.0], info={"k": 1})
        assert ss.info["k"] == 1

    def test_iteration(self):
        ss = SampleSet([Sample({"a": 0}, 0.0)])
        assert [s.energy for s in ss] == [0.0]

    def test_constructor_does_not_mutate_callers_list(self):
        # Regression: __post_init__ used to list.sort() the caller's
        # list in place, corrupting fixtures that index into it.
        mine = [Sample({"a": 0}, 5.0), Sample({"a": 1}, -1.0)]
        ss = SampleSet(mine)
        assert [s.energy for s in mine] == [5.0, -1.0]
        assert [s.energy for s in ss.samples] == [-1.0, 5.0]
        assert ss.samples is not mine

    def test_equal_energy_ties_break_on_occurrences_then_input_order(self):
        rare = Sample({"a": 0}, 1.0, num_occurrences=1)
        common = Sample({"a": 1}, 1.0, num_occurrences=5)
        also_rare = Sample({"a": 2}, 1.0, num_occurrences=1)
        ss = SampleSet([rare, common, also_rare])
        # Descending multiplicity first, then stable input order.
        assert ss.samples == [common, rare, also_rare]
        assert ss.first is common


class TestRowAssignment:
    def _ra(self):
        import numpy as np

        from repro.annealing import RowAssignment

        row = np.array([1, 0, 1], dtype=np.int8)
        return RowAssignment(("a", "b", "c"), row)

    def test_mapping_protocol(self):
        ra = self._ra()
        assert len(ra) == 3
        assert list(ra) == ["a", "b", "c"]
        assert ra["a"] == 1 and ra["b"] == 0
        assert dict(ra) == {"a": 1, "b": 0, "c": 1}

    def test_values_are_python_ints(self):
        # Downstream code (JSON encoding, dict equality against plain
        # int dicts) relies on native ints, not numpy scalars.
        ra = self._ra()
        assert all(type(v) is int for v in ra.values())

    def test_equality_with_dict_and_peer(self):
        ra = self._ra()
        assert ra == {"a": 1, "b": 0, "c": 1}
        assert {"a": 1, "b": 0, "c": 1} == ra
        assert ra == self._ra()
        assert ra != {"a": 0, "b": 0, "c": 1}
        assert ra != "not a mapping"

    def test_lazy_materialisation(self):
        ra = self._ra()
        assert ra._dict is None
        _ = ra["a"]
        assert ra._dict is not None

    def test_works_inside_sample(self):
        s = Sample(self._ra(), -1.5)
        assert s.value("c") == 1
        assert s.assignment == {"a": 1, "b": 0, "c": 1}


class TestFromCounts:
    def test_matches_from_states_on_deduped_input(self):
        states = [{"a": 0, "b": 1}, {"a": 1, "b": 1}, {"a": 0, "b": 1}]
        energies = [2.0, -1.0, 2.0]
        via_states = SampleSet.from_states(states, energies)
        via_counts = SampleSet.from_counts(
            [{"a": 0, "b": 1}, {"a": 1, "b": 1}], [2.0, -1.0], [2, 1]
        )
        assert [
            (s.assignment, s.energy, s.num_occurrences) for s in via_states.samples
        ] == [
            (s.assignment, s.energy, s.num_occurrences) for s in via_counts.samples
        ]

    def test_counts_and_info(self):
        ss = SampleSet.from_counts([{"a": 1}], [0.5], [7], info={"k": 2})
        assert len(ss) == 7
        assert ss.info == {"k": 2}


class TestStateMatrix:
    """``from_matrix`` and ``state_matrix``: the samplers' matrix form."""

    ORDER = ("a", "b", "c")

    @staticmethod
    def _rows(ss):
        return [(dict(s.assignment), s.energy, s.num_occurrences) for s in ss.samples]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=n, max_size=n),
                st.lists(
                    st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n
                ),
            )
        )
    )
    def test_from_matrix_equals_from_states(self, data):
        rows, energies = data
        states = np.array(rows, dtype=np.int8).reshape(len(rows), 3)
        via_matrix = SampleSet.from_matrix(self.ORDER, states, np.array(energies))
        via_states = SampleSet.from_states(
            [dict(zip(self.ORDER, map(int, row))) for row in rows], energies
        )
        assert self._rows(via_matrix) == self._rows(via_states)
        assert all(isinstance(s.assignment, RowAssignment) for s in via_matrix)

    def test_zero_width_rows_merge_into_one_sample(self):
        ss = SampleSet.from_matrix((), np.zeros((4, 0), dtype=np.int8), np.full(4, 1.5))
        assert self._rows(ss) == [({}, 1.5, 4)]
        assert ss.state_matrix(()).shape == (4, 0)

    def test_state_matrix_repeats_rows_in_sample_order(self):
        ss = SampleSet([
            Sample({"a": 1, "b": 0, "c": 1}, 2.0, num_occurrences=2),
            Sample(RowAssignment(self.ORDER, np.array([0, 1, 1], np.int8)), -1.0),
            Sample({"c": 0, "b": 0, "a": 1}, 0.0, num_occurrences=3),
        ])
        expected = [[0, 1, 1]] + [[1, 0, 0]] * 3 + [[1, 0, 1]] * 2
        matrix = ss.state_matrix(self.ORDER)
        assert matrix.dtype == np.int8
        assert matrix.tolist() == expected
        assert ss.state_matrix(("c", "b", "a")).tolist() == [r[::-1] for r in expected]

    def test_round_trip(self):
        states = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=np.int8)
        ss = SampleSet.from_matrix(self.ORDER, states, np.array([1.0, 0.0, 1.0]))
        assert ss.state_matrix(self.ORDER).tolist() == [[0, 0, 0], [1, 0, 1], [1, 0, 1]]

    def test_matrix_rows_selects_integer_rows_over_the_order(self):
        view = RowAssignment(self.ORDER, np.array([1, 0, 1], np.int8))
        samples = [
            Sample(view, 0.0),
            Sample({"a": 1, "b": 0, "c": 1}, 0.0),
            Sample(RowAssignment(("c", "b", "a"), np.array([1, 0, 1], np.int8)), 0.0),
            Sample(RowAssignment(self.ORDER, [1, 0, 1]), 0.0),
            Sample(RowAssignment(self.ORDER, np.array([1.0, 0.0, 1.0])), 0.0),
            Sample(RowAssignment(self.ORDER, np.array([1, 0], np.int8)), 0.0),
        ]
        rows = matrix_rows(samples, list(self.ORDER))
        assert list(rows) == [0]
        assert rows[0] is view.row

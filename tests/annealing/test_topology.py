"""Unit tests for hardware topologies."""

import pytest

from repro.annealing import chimera_graph, pegasus_like_graph


class TestChimera:
    def test_qubit_count(self):
        # C_m with shore t has 2 t m^2 qubits.
        assert chimera_graph(2).num_qubits == 32
        assert chimera_graph(16).num_qubits == 2048

    def test_coupler_count_c1(self):
        # a single K_{4,4} cell has 16 couplers
        assert chimera_graph(1).num_couplers == 16

    def test_coupler_count_formula(self):
        # m^2 cells x t^2 intra + 2 t m (m-1) inter
        for m in (2, 3):
            g = chimera_graph(m)
            expected = m * m * 16 + 2 * 4 * m * (m - 1)
            assert g.num_couplers == expected

    def test_intra_cell_bipartite(self):
        g = chimera_graph(2)
        # left-shore qubits of a cell are never coupled to each other
        assert not g.are_coupled(0, 1)
        # left-right coupling inside the cell
        assert g.are_coupled(0, 4)

    def test_inter_cell_coupling(self):
        g = chimera_graph(2, t=4)
        # left shore couples vertically: cell (0,0) index 0 <-> cell (1,0) index 0
        q_top = 0                      # row 0, col 0, side 0, index 0
        q_bottom = ((1 * 2 + 0) * 2 + 0) * 4  # row 1, col 0, side 0, index 0
        assert g.are_coupled(q_top, q_bottom)

    def test_grid_metadata(self):
        g = chimera_graph(3, t=2)
        assert g.grid_size == 3
        assert g.shore_size == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            chimera_graph(0)

    def test_degree_bounds(self):
        g = chimera_graph(3)
        degrees = [len(a) for a in g.adjacency]
        assert max(degrees) <= 6  # t intra + 2 inter
        assert min(degrees) >= 4


class TestPegasusLike:
    def test_superset_of_chimera(self):
        chim = chimera_graph(2)
        peg = pegasus_like_graph(2)
        for q in range(chim.num_qubits):
            for w in chim.adjacency[q]:
                assert peg.are_coupled(q, w)

    def test_strictly_denser(self):
        assert pegasus_like_graph(3).num_couplers > chimera_graph(3).num_couplers

    def test_odd_couplers_within_shore(self):
        peg = pegasus_like_graph(2)
        assert peg.are_coupled(0, 1)  # same shore, consecutive indices

    def test_metadata(self):
        assert pegasus_like_graph(4).grid_size == 4


class TestMemo:
    def test_same_parameters_share_one_graph(self):
        assert chimera_graph(3) is chimera_graph(3)
        assert chimera_graph(3, 2) is chimera_graph(3, 2)
        assert pegasus_like_graph(3) is pegasus_like_graph(3)

    def test_different_parameters_build_different_graphs(self):
        assert chimera_graph(3) is not chimera_graph(4)
        assert chimera_graph(3, 2) is not chimera_graph(3, 4)
        assert pegasus_like_graph(3).num_couplers > chimera_graph(3).num_couplers

    def test_shared_graph_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            chimera_graph(2).num_qubits = 1
        assert isinstance(chimera_graph(2).adjacency, tuple)

    def test_invalid_parameters_still_raise(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                chimera_graph(0)

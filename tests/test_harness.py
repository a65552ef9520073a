"""Bench-harness tests: grids, geomeans, NC handling, cells."""

import pytest

from repro.bench.harness import (
    SYSTEM1,
    SYSTEM2,
    Cell,
    geomean,
    run_cell,
    run_grid,
)
from repro.generators import suite


@pytest.fixture(scope="module")
def small_grid():
    graphs = {
        name: suite.build(name, scale=0.06)
        for name in ("USA-road-d.NY", "rmat16.sym", "coPapersDBLP")
    }
    return run_grid(
        ("ECL-MST", "Jucele GPU", "PBBS Ser."), graphs, SYSTEM2, verify=True
    )


class TestGrid:
    def test_all_cells_present(self, small_grid):
        assert len(small_grid.cells) == 9

    def test_nc_cell_for_mst_only_code(self, small_grid):
        cell = small_grid.cell("Jucele GPU", "rmat16.sym")  # multi-CC
        assert cell.is_nc
        assert cell.seconds is None

    def test_connected_inputs_measured(self, small_grid):
        cell = small_grid.cell("Jucele GPU", "USA-road-d.NY")
        assert not cell.is_nc
        assert cell.seconds > 0

    def test_column(self, small_grid):
        col = small_grid.column("ECL-MST")
        assert [c.graph_name for c in col] == list(small_grid.graphs)

    def test_geomean_none_when_any_nc(self, small_grid):
        assert small_grid.geomean_seconds("Jucele GPU") is None

    def test_geomean_mst_subset(self, small_grid):
        mst_names = {"USA-road-d.NY", "coPapersDBLP"}
        gm = small_grid.geomean_seconds("Jucele GPU", mst_only_names=mst_names)
        assert gm is not None and gm > 0

    def test_throughput(self, small_grid):
        g = small_grid.graphs["USA-road-d.NY"]
        cell = small_grid.cell("ECL-MST", "USA-road-d.NY")
        t = cell.throughput_meps(g.num_directed_edges)
        assert t == pytest.approx(
            g.num_directed_edges / cell.seconds / 1e6
        )

    def test_nc_throughput_none(self, small_grid):
        cell = small_grid.cell("Jucele GPU", "rmat16.sym")
        assert cell.throughput_meps(100) is None


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])


class TestRunCell:
    def test_cell_reads_the_query_result(self):
        g = suite.build("USA-road-d.NY", scale=0.05)
        cell = run_cell("ECL-MST", g, SYSTEM2)
        assert cell.seconds == cell.result.modeled_seconds > 0
        assert cell.memcpy_seconds == cell.result.memcpy_seconds

    def test_memcpy_only_for_gpu_result(self):
        g = suite.build("USA-road-d.NY", scale=0.05)
        gpu_cell = run_cell("ECL-MST", g, SYSTEM2)
        assert gpu_cell.memcpy_seconds > 0


class TestSystems:
    def test_system_presets(self):
        assert "Titan V" in SYSTEM1.gpu.name
        assert "3080" in SYSTEM2.gpu.name
        assert SYSTEM1.cpu.cores == 16
        assert SYSTEM2.cpu.cores == 32

    def test_system1_slower_gpu(self):
        g = suite.build("r4-2e23.sym", scale=0.2)
        c1 = run_cell("ECL-MST", g, SYSTEM1)
        c2 = run_cell("ECL-MST", g, SYSTEM2)
        assert c1.seconds > c2.seconds

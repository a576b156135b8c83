"""Mesh topology, link legality and statistics."""

import pytest

from repro.errors import LinkError
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh


class TestTopology:
    def test_size_and_iteration(self):
        mesh = Mesh(3, 4)
        assert len(mesh) == 12
        assert len(list(mesh)) == 12

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 3)

    def test_tile_lookup(self, mesh2x2):
        assert mesh2x2.tile((1, 1)).coord == (1, 1)
        with pytest.raises(LinkError):
            mesh2x2.tile((2, 0))

    def test_contains(self, mesh2x2):
        assert (0, 1) in mesh2x2
        assert (5, 5) not in mesh2x2

    def test_neighbour_coord(self, mesh2x2):
        assert mesh2x2.neighbour_coord((0, 0), Direction.EAST) == (0, 1)
        assert mesh2x2.neighbour_coord((1, 0), Direction.NORTH) == (0, 0)

    def test_neighbour_off_mesh(self, mesh2x2):
        with pytest.raises(LinkError, match="no neighbour"):
            mesh2x2.neighbour_coord((0, 0), Direction.NORTH)

    def test_neighbours_map(self):
        mesh = Mesh(3, 3)
        centre = mesh.neighbours((1, 1))
        assert len(centre) == 4
        corner = mesh.neighbours((0, 0))
        assert set(corner) == {Direction.EAST, Direction.SOUTH}


class TestLinks:
    def test_configure_valid(self, mesh2x2):
        assert mesh2x2.configure_link((0, 0), Direction.SOUTH) is True
        assert mesh2x2.active_link((0, 0)) is Direction.SOUTH

    def test_configure_off_mesh_rejected(self, mesh2x2):
        with pytest.raises(LinkError):
            mesh2x2.configure_link((0, 0), Direction.WEST)

    def test_reconfigure_counts(self, mesh2x2):
        mesh2x2.configure_link((0, 0), Direction.EAST)
        mesh2x2.configure_link((0, 0), Direction.SOUTH)
        mesh2x2.configure_link((0, 0), Direction.SOUTH)  # no-op
        assert mesh2x2.links.reconfig_count == 2

    def test_detach(self, mesh2x2):
        mesh2x2.configure_link((0, 0), Direction.EAST)
        mesh2x2.configure_link((0, 0), None)
        assert mesh2x2.active_link((0, 0)) is None

    def test_describe_shows_arrows(self, mesh2x2):
        mesh2x2.configure_link((0, 0), Direction.EAST)
        picture = mesh2x2.describe()
        assert picture.splitlines()[0].startswith(">")


class TestStats:
    def test_total_cycles_and_reset(self, mesh1x2):
        from repro.fabric.assembler import assemble

        tile = mesh1x2.tile((0, 0))
        tile.load_program(assemble("NOP\nNOP\nHALT"))
        tile.run()
        assert mesh1x2.total_cycles() == 3
        mesh1x2.reset_stats()
        assert mesh1x2.total_cycles() == 0


class TestAcyclic:
    """A mesh is not a reference cycle, so a dropped fabric is freed by
    refcount instead of waiting for a full collection."""

    def test_cold_fft_point_leaves_no_cyclic_fabric(self, cyclic_garbage):
        import numpy as np

        from tests.conftest import FABRIC_TYPES
        from repro.kernels.fft.decompose import FFTPlan
        from repro.kernels.fft.runner import FabricFFT

        x = np.linspace(-1e-3, 1e-3, 64) + 0j

        def point():
            result = FabricFFT(FFTPlan(64, 8, 3), 9.0).run(x)
            assert result.output.shape == (64,)

        garbage = cyclic_garbage(point)
        assert not FABRIC_TYPES & set(garbage)
        assert not [name for name in garbage if "resolve" in name or "port" in name]

    def test_resolver_keeps_the_link_contract(self, mesh2x2):
        resolve = mesh2x2.tile((0, 0)).neighbour_resolver
        assert resolve.port(Direction.EAST) is None
        with pytest.raises(LinkError, match="stored toward EAST but its link is detached"):
            resolve(Direction.EAST, 0, 1)
        mesh2x2.configure_link((0, 0), Direction.EAST)
        assert resolve.port(Direction.EAST) is mesh2x2.tile((0, 1)).dmem
        resolve(Direction.EAST, 3, 7)
        assert mesh2x2.tile((0, 1)).dmem.peek(3) == 7

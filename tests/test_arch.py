import json
import math
import random
from itertools import permutations

import pytest

from swaproute import arch
from swaproute.arch import ConnectivityGraph, NoiseModel, diameter, load_arch, load_noise, orbit_minima
from swaproute.errors import ArchError, NoiseModelError


def test_line_edges():
    g = load_arch("line:4")
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3)]


def test_parametric_families():
    assert len(load_arch("cycle:6").edges) == 6
    assert len(load_arch("grid:3x3").edges) == 12
    star = load_arch("star:5")
    assert sorted(star.edges) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_tokyo_family_shape():
    minus, std, plus = load_arch("tokyo_minus"), load_arch("tokyo"), load_arch("tokyo_plus")
    assert minus.num_physical == std.num_physical == plus.num_physical == 20
    assert len(minus.edges) == 31  # the bare 4x5 grid
    assert len(std.edges) == 43
    assert len(plus.edges) == 55  # every unit square crossed
    assert std.has_edge(0, 1) and std.has_edge(1, 7)
    assert minus.edges < std.edges < plus.edges
    # the standard device's average degree sits exactly between the variants
    assert len(minus.edges) + len(plus.edges) == 2 * len(std.edges)


def test_tokyo_diagonal_placement():
    std, plus = load_arch("tokyo"), load_arch("tokyo_plus")
    # crossed squares of the standard device, as drawn
    for u, v in [(1, 7), (2, 6), (5, 11), (6, 10), (13, 19), (14, 18)]:
        assert std.has_edge(u, v)
    # the first square is uncrossed on the standard device but crossed
    # on the dense variant
    assert not std.has_edge(0, 6) and not std.has_edge(1, 5)
    assert plus.has_edge(0, 6) and plus.has_edge(1, 5)
    # no variant has anything beyond grid steps and unit diagonals
    for u, v in [(0, 2), (0, 7), (5, 12), (0, 19)]:
        assert not plus.has_edge(u, v)


def test_unknown_name():
    with pytest.raises(ArchError, match="unknown architecture"):
        load_arch("hexagon:9")


def test_arch_file_round_trip(tmp_path):
    g = load_arch("grid:2x3")
    path = tmp_path / "g.arch"
    path.write_text("n 6\n" + "\n".join(f"{u} {v}" for u, v in g.sorted_edges()))
    again = load_arch(str(path))
    assert again == g


def test_arch_file_duplicate_edge(tmp_path):
    path = tmp_path / "bad.arch"
    path.write_text("n 3\n0 1\n0 1\n")
    with pytest.raises(ArchError, match="duplicate edge"):
        load_arch(str(path))


def test_disconnected_rejected(tmp_path):
    path = tmp_path / "disc.arch"
    path.write_text("n 4\n0 1\n2 3\n")
    with pytest.raises(ArchError, match="disconnected"):
        load_arch(str(path))


def test_too_few_edges_are_disconnected_before_any_adjacency_is_built(tmp_path, monkeypatch):
    path = tmp_path / "huge.arch"
    path.write_text("n 1000000000\n0 1\n")

    def refuse(self):
        raise AssertionError("adjacency lists built for a graph that cannot be connected")

    monkeypatch.setattr(ConnectivityGraph, "_adjacency", refuse)
    with pytest.raises(ArchError, match="disconnected"):
        load_arch(str(path))


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "loop.arch"
    path.write_text("n 2\n0 0\n0 1\n")
    with pytest.raises(ArchError, match="self-loop"):
        load_arch(str(path))


def test_edge_lookup_symmetric():
    g = load_arch("tokyo")
    for u, v in g.edges:
        assert g.has_edge(u, v) and g.has_edge(v, u)
    assert not g.has_edge(0, 19)


def test_diameter_small_cases():
    assert diameter(load_arch("line:4")) == 3
    assert diameter(load_arch("cycle:6")) == 3
    complete5 = ConnectivityGraph(5, frozenset((i, j) for i in range(5) for j in range(i + 1, 5)))
    assert diameter(complete5) == 1


def test_diameter_line_closed_form():
    for n in range(2, 11):
        assert diameter(load_arch(f"line:{n}")) == n - 1


def test_diameter_at_least_one():
    for name in ["line:2", "star:4", "tokyo"]:
        assert diameter(load_arch(name)) >= 1


# -- noise models ------------------------------------------------------------


def test_swap_fidelity_defaults_to_cx_cubed(tmp_path):
    g = load_arch("line:2")
    path = tmp_path / "noise.json"
    path.write_text(json.dumps([{"edge": [0, 1], "cx": 0.99}]))
    model = load_noise(str(path), g)
    assert model.swap_fidelity[(0, 1)] == pytest.approx(0.970299)


def test_noise_zero_fidelity_rejected(tmp_path):
    g = load_arch("line:2")
    path = tmp_path / "noise.json"
    path.write_text(json.dumps([{"edge": [0, 1], "cx": 0.0}]))
    with pytest.raises(NoiseModelError, match="outside"):
        load_noise(str(path), g)


def test_noise_must_cover_every_edge(tmp_path):
    g = load_arch("tokyo")
    half = [{"edge": list(e), "cx": 0.99} for e in sorted(g.edges)[: len(g.edges) // 2]]
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(half))
    with pytest.raises(NoiseModelError, match="no fidelity"):
        load_noise(str(path), g)


def test_noise_edge_not_in_graph(tmp_path):
    g = load_arch("line:3")
    path = tmp_path / "noise.json"
    path.write_text(json.dumps([{"edge": [0, 2], "cx": 0.9}]))
    with pytest.raises(NoiseModelError, match="not in the connectivity graph"):
        load_noise(str(path), g)


def test_uniform_noise_helper():
    g = load_arch("line:3")
    model = NoiseModel.uniform(g, cx=0.95)
    assert model.covers(g)
    assert model.swap_fidelity[(0, 1)] == pytest.approx(0.95**3)
    assert math.isclose(model.cx_fidelity[(1, 2)], 0.95)


@pytest.mark.parametrize("name, minima", [
    ("line:4", (0, 1, 1, 0)),
    ("cycle:6", (0,) * 6),
    ("grid:3x3", (0, 1, 0, 1, 4, 1, 0, 1, 0)),
    ("star:5", (0, 1, 1, 1, 1)),
    ("tokyo", tuple(range(10)) + (5, 6, 7, 8, 9, 0, 1, 2, 3, 4)),  # the top-bottom mirror
])
def test_orbit_minima_of_built_in_devices(name, minima):
    assert orbit_minima(load_arch(name)) == minima


def test_orbit_counts_of_built_in_devices():
    counts = {name: len(set(orbit_minima(load_arch(name))))
              for name in ("line:2", "line:5", "cycle:4", "grid:2x3", "tokyo_minus", "tokyo_plus", "star:20")}
    assert counts == {"line:2": 1, "line:5": 3, "cycle:4": 1, "grid:2x3": 2,
                      "tokyo_minus": 6, "tokyo_plus": 6, "star:20": 2}


def brute_orbit_minima(g):
    """Orbit minima from every permutation of the places."""
    minima = list(range(g.num_physical))
    for sigma in permutations(range(g.num_physical)):
        if all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges):
            for p in range(g.num_physical):
                minima[p] = min(minima[p], sigma[p])
    return tuple(minima)


def test_orbit_minima_match_the_whole_group_on_small_graphs():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        num = rng.randint(2, 6)
        edges = {tuple(sorted(rng.sample(range(num), 2))) for _ in range(rng.randint(num - 1, 2 * num))}
        try:
            g = ConnectivityGraph(num, frozenset(edges))
        except ArchError:
            continue  # disconnected draw
        assert orbit_minima.__wrapped__(g) == brute_orbit_minima(g)
        checked += 1


def test_orbit_search_that_gives_up_only_loses_merges(monkeypatch):
    monkeypatch.setattr(arch, "AUTOMORPHISM_SEARCH_STEPS", 1)
    assert orbit_minima.__wrapped__(load_arch("cycle:6")) == tuple(range(6))


@pytest.mark.parametrize("spec", ["line:4097", "cycle:5000", "star:1000000000", "grid:65x64", "grid:1x4097"])
def test_parametric_devices_above_the_cap_are_refused_before_any_edge(monkeypatch, spec):
    def refuse(*args):  # a regression fails here instead of building every edge
        raise AssertionError("edges built for a device above the size cap")

    for builder in ("_line", "_cycle", "_star", "_grid_edges"):
        monkeypatch.setattr(arch, builder, refuse)
    with pytest.raises(ArchError, match=f"more than the {arch.MAX_PARAMETRIC_QUBITS}"):
        load_arch(spec)


@pytest.mark.parametrize("spec", ["line:4096", "grid:64x64"])
def test_parametric_devices_at_the_cap_load(spec):
    assert load_arch(spec).num_physical == arch.MAX_PARAMETRIC_QUBITS

import pytest

from tmatch.errors import InputFormatError, ValidationError
from tmatch.generators import plant_forbidden, random_bounded
from tmatch.graph import CapacityVector, Graph

from .conftest import complete_graph


def test_weights_doubled_exactly():
    g = Graph(3, [(0, 1, 3), (1, 2, 7)], 3)
    assert [w for (_, _, w) in g.edges] == [6, 14]


def test_validation_errors():
    # Each case keeps its error class and message; an endpoint out of range
    # is malformed input, not a failed validation.
    cases = [
        (lambda: Graph(3, [(0, 3, 1)], 3), InputFormatError,
         r"edge \(0,3\) has an endpoint out of range"),
        (lambda: Graph(3, [(-1, 2, 1)], 3), InputFormatError,
         r"edge \(-1,2\) has an endpoint out of range"),
        (lambda: Graph(3, [(0, 0, 1)], 3), ValidationError, r"loop at vertex 0 is not allowed"),
        (lambda: Graph(3, [(0, 1, 1), (1, 0, 2)], 3), ValidationError,
         r"parallel edge \(1,0\) is not allowed"),
        (lambda: Graph(3, [(0, 1, -1)], 3), ValidationError, r"edge \(0,1\) has negative weight"),
        (lambda: Graph(2, [(0, 1, 1)], 2), ValidationError,  # t too small
         r"degree parameter t=2 is not supported; t must be >= 3"),
        (lambda: complete_graph(6, 3), ValidationError,
         r"vertex 0 has degree 5, exceeding t\+1 = 4"),
    ]
    for (build, error, message) in cases:
        with pytest.raises(error, match=f"^{message}$") as info:
            build()
        assert type(info.value) is error


def test_plain_neighbour_lists_follow_adj():
    graphs = [random_bounded(n, t, 0.5, seed) for (n, t, seed) in [(0, 3, 1), (40, 3, 2), (60, 5, 3)]]
    graphs.append(plant_forbidden(random_bounded(30, 4, 0.5, 4), "dense", 3, 5, p=3, q=2))
    graphs.append(plant_forbidden(random_bounded(30, 3, 0.5, 6), "biclique_pair", 2, 7))
    for g in graphs:
        assert len(g.nbrs) == g.n
        assert g.nbrs == [[u for (u, _) in g.adj[v]] for v in range(g.n)]
    assert sum(map(len, graphs[-1].nbrs)) == 2 * graphs[-1].m > 0


def test_isolated_vertices_accepted():
    g = Graph(5, [(0, 1, 1)], 3)
    assert g.degree(4) == 0


def test_capacity_vector_rejects_bad_intervals():
    cap = CapacityVector([0, 1, 2], [0, 3, 2])
    assert (cap.lower, cap.upper) == ([0, 1, 2], [0, 3, 2])
    with pytest.raises(InputFormatError, match="equal length"):
        CapacityVector([0, 1], [1])
    with pytest.raises(InputFormatError, match=r"\[-1,1\] at vertex 1"):
        CapacityVector([0, -1], [1, 1])
    with pytest.raises(InputFormatError, match=r"\[2,1\] at vertex 0"):
        CapacityVector([2, 0], [1, 1])

import pytest

from tmatch.errors import InputFormatError, ValidationError
from tmatch.graph import CapacityVector, Graph

from .conftest import complete_graph


def test_weights_doubled_exactly():
    g = Graph(3, [(0, 1, 3), (1, 2, 7)], 3)
    assert [w for (_, _, w) in g.edges] == [6, 14]


def test_validation_errors():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 0, 1)], 3)
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1, 1), (1, 0, 2)], 3)
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1, -1)], 3)
    with pytest.raises(ValidationError):
        Graph(2, [(0, 1, 1)], 2)  # t too small
    with pytest.raises(ValidationError):
        complete_graph(6, 3)  # degree 5 > t+1


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

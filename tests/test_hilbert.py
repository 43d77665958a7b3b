"""Preprojective Hilbert series against their closed forms.

This check shares no code with the pipelines: the expected dimensions come
from the adjacency matrix C of the graph alone.  For a non-Dynkin graph the
matrix Hilbert series is (1 - C t + t^2)^{-1} (Koszulity; Etingof-Eu,
*Koszulity and the Hilbert series of preprojective algebras*).  For a
Dynkin graph it is (1 + P t^h)(1 - C t + t^2)^{-1}, with P the Nakayama
permutation and h the Coxeter number (Malkin-Ostrik-Vybornov).  Totals are
checked against `lambda_piece`; the diagonal blocks e_i Lambda e_i, checked
against `cyclic_piece_dim`, are where P shows.
"""

import pytest

from zigzaghh.exactla import GF, QQ
from zigzaghh.preproj import cyclic_piece_dim, lambda_piece
from zigzaghh.quiver import catalog, orient_bipartite


def _nakayama(family, n):
    """(Coxeter number, Nakayama permutation as a dict) of a catalog Dynkin graph.

    Catalog labels: A_n is the path 1..n; D_n has leaves 1 and 2 at the hub
    n and the long arm 3..n-1; E6 has arms 1, 2-3 and 4-5 (tip first) at the
    hub 6.
    """
    ident = {v: v for v in range(1, n + 1)}
    if family == "A":
        return n + 1, {v: n + 1 - v for v in ident}
    if family == "D":
        return 2 * n - 2, {**ident, **({1: 2, 2: 1} if n % 2 else {})}
    assert (family, n) == ("E", 6)
    return 12, {**ident, 2: 4, 3: 5, 4: 2, 5: 3}


def _series(graph, top, nakayama=None):
    """Matrices H_0..H_top of the closed form, as lists of rows."""
    n = graph.vertex_count
    c = [[0] * n for _ in range(n)]
    for s, t in graph.edges:
        c[s - 1][t - 1] += 1
        c[t - 1][s - 1] += 1
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    # (1 - C t + t^2) H = 1, so H_k = C H_(k-1) - H_(k-2)
    h = [eye, c]
    while len(h) <= top:
        prev, prev2 = h[-1], h[-2]
        h.append([[sum(c[i][k] * prev[k][j] for k in range(n)) - prev2[i][j]
                   for j in range(n)] for i in range(n)])
    h = h[:top + 1]
    if nakayama is not None:
        cox, perm = nakayama
        h = [[[h[d][i][j] + (h[d - cox][perm[i + 1] - 1][j] if d >= cox else 0)
               for j in range(n)] for i in range(n)] for d in range(top + 1)]
    return h


@pytest.mark.parametrize("label", ["A3", "A4", "D4", "D5", "E6", "D~4", "D~5", "A~3"])
@pytest.mark.parametrize("fld", [QQ, GF(2)], ids=["Q", "F2"])
def test_preprojective_hilbert_series_closed_form(label, fld):
    family, n = label.rstrip("0123456789"), int(label.lstrip("ADE~"))
    graph = catalog(family, n)
    quiv = orient_bipartite(graph)
    if "~" in family:
        top = total_top = 10
        nakayama = None
    else:
        nakayama = _nakayama(family, n)
        top = nakayama[0] + 2
        # Lambda is generated in degree 1, so Lambda_(h-1) = Lambda_h = 0
        # already forces every higher degree to vanish, and lambda_piece on E6
        # in degrees 13 and 14 would cost more than the rest of this test
        total_top = nakayama[0]
    series = _series(graph, top, nakayama)
    for deg, block in enumerate(series):
        if deg <= total_top:
            assert lambda_piece(quiv, deg, fld).dimension == sum(map(sum, block)), (label, deg)
        for v in range(1, graph.vertex_count + 1):
            assert cyclic_piece_dim(quiv, deg, v, fld) == block[v - 1][v - 1], (label, deg, v)


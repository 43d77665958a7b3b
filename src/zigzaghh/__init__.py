"""Bigraded Hochschild cohomology of zigzag algebras, three ways.

The package computes HH^{2,q} of the zigzag algebra of a graph by three
independent exact pipelines and cross-checks them:

* ginzburg -- the small three-term complex on the 2-Ginzburg dg algebra
  of an orientation of the graph;
* preproj  -- trace spaces (algebra modulo commutators) of the
  preprojective algebra, degree q+2;
* zigzag   -- the reduced bar complex of the zigzag algebra itself.

On top sits an A-infinity layer (Stasheff identity checking and the
explicit extended-D4 deformation) and a batch CLI.
"""

from .exactla import GF, QQ, ExactMatrix, FieldSpec
from .quiver import Graph, Quiver, catalog, double, load_graph, orient_bipartite, parse_label
from .pathalg import Path, basis_of_bidegree, paths_between
from .preproj import (GradedQuotientPiece, TracePiece, cyclic_piece_dim,
                      koszul_dual_zigzag_piece, lambda_piece, trace_piece,
                      trace_piece_general)
from .ginzburg import h0_dim, hh2_complex, hh2_dim
from .zigzag import (HochschildCochain, ZigzagAlgebra, build_zigzag, hochschild_dim,
                     is_coboundary, is_cocycle)
from .ainfty import AInftyCandidate, StasheffReport, check_stasheff, class_of, extended_d4_m4
from .reports import HHReport

__all__ = [
    "GF", "QQ", "ExactMatrix", "FieldSpec",
    "Graph", "Quiver", "catalog", "double", "load_graph", "orient_bipartite", "parse_label",
    "Path", "basis_of_bidegree", "paths_between",
    "GradedQuotientPiece", "TracePiece", "cyclic_piece_dim",
    "koszul_dual_zigzag_piece", "lambda_piece", "trace_piece", "trace_piece_general",
    "h0_dim", "hh2_complex", "hh2_dim",
    "HochschildCochain", "ZigzagAlgebra", "build_zigzag", "hochschild_dim",
    "is_coboundary", "is_cocycle",
    "AInftyCandidate", "StasheffReport", "check_stasheff", "class_of", "extended_d4_m4",
    "HHReport",
]

__version__ = "0.10.0"

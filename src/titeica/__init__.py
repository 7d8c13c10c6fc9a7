"""Numerical realization of the Tzitzeica/Toda family of surface
geometries: solvers for the metric equation in all six sign cases, flat
connections and their frames, affine sphere and minimal Lagrangian
surface reconstruction, developing maps, holonomy and verification."""

from .geometry import (BackgroundMetric, CubicDifferential, Domain,
                       MetricSolution, SignCase, cubic_norm_induced,
                       cubic_norm_sq, gauss_curvature, global_weight,
                       local_weight)
from .pde import (ContinuationResult, PdeProblem, SolveReport,
                  ch2_continuation_bound, constant_solution,
                  continuation_family, cubic_supersolution_root,
                  residual_global, residual_local, residual_scaled,
                  scaling_shift, solve_monotone, solve_newton,
                  supersolution_bound, toda_residual_complex)
from .frames import (ConnectionForm, PathSpec, build_connection, cell_loop,
                     curvature_residual, group_residuals, holonomy,
                     integrate_frame, line_path, minlag_frame_connection,
                     polyline_path, reality_check, torus_generator)
from .immersion import (ImmersionMesh, affine_sphere_immersion,
                        angle_oscillation, conormal_dual, cpn_point,
                        lagrangian_angle, minlag_c2_immersion,
                        minlag_cpn_immersion, recover_cubic,
                        recover_metric_weight, shape_operator_norm,
                        sphere_frame, verify_affine, verify_cpn,
                        verify_minlag_c2)
from .projective import (QuadricFit, SemiFlatData, develop_rp2, holonomy_report,
                         normalize_rp2, quadric_fit, semiflat_develop,
                         semiflat_dual_roundtrip)
from .weierstrass import (GraphFunction, HoloPair, graph_ma_residual,
                          legendre_transform, monge_ampere_residual,
                          parabolic_from_holomorphic, path_integral)

__version__ = "0.1.0"

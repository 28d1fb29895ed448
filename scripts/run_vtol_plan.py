#!/usr/bin/env python3
"""VTOL obstacle-avoidance demo: plan around obstacles inflated by the
projected tube extent, then verify geometric clearance.

Composes the planner with the tube projection the way the tracking
guarantee wants: if the planned path clears every obstacle inflated by the
tube's planar shadow, any execution that stays in the tube clears the
original obstacles.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from prcitube.metric import box_grid, synthesize_constant_metric
from prcitube.planner import ObstacleEllipse, PlanProblem, plan
from prcitube.systems import (
    TrajectoryRecord,
    VTOL_CERTIFIED_BOX,
    VTOL_HOVER_THRUST,
    make_benchmark_vtol,
)
from prcitube.tube import PRCITube, project_tube_2d


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/vtol_plan", help="output directory")
    parser.add_argument("--extent", type=float, default=0.2,
                        help="planar tube shadow to inflate obstacles by [m]")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    vtol = make_benchmark_vtol()
    nom = vtol.nominal
    metric = synthesize_constant_metric(
        nom, box_grid(VTOL_CERTIFIED_BOX, [1, 1, 5, 5, 5, 5]), (0.1, 0.6),
        chi_max=300.0, margin_target=-0.02,
    )

    # tube whose (p_x, p_z) shadow has the requested extent
    k = 151
    ref = TrajectoryRecord(np.arange(k) * 0.02, np.zeros((k, 6)), np.zeros((k, 2)))
    unit = project_tube_2d(PRCITube(ref, metric, 1.0, 0.1), (0, 1)).max_extent()
    radius = args.extent / unit
    tube = PRCITube(ref, metric, radius, 0.1)
    proj = project_tube_2d(tube, (0, 1))
    proj.save_csv(out / "tube_ellipses.csv")

    obstacle = ObstacleEllipse(np.array([0.0, 0.3]), np.diag([1 / 0.35**2, 1 / 0.35**2]))
    inflated = obstacle.inflate(proj.max_extent())
    problem = PlanProblem(
        sys=nom,
        T=3.0,
        dt=0.02,
        x0=np.array([-1.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        goal=np.array([1.5, 0.0, 0.0, 0.0, 0.0, 0.0]),
        state_box=np.array([[-20.0, 20.0]] * 6),
        input_box=np.array([[0.0, 4.0 * VTOL_HOVER_THRUST]] * 2),
        obstacles=(inflated,),
        w1=0.005,
        w2=1.0,
        goal_weights=np.array([2.0, 2.0, 0.3, 0.3, 0.3, 0.3]),
    )
    warm = np.tile([VTOL_HOVER_THRUST] * 2, (int(round(3.0 / 0.02)) + 1, 1))
    result = plan(problem, init=warm, max_iter=250)
    result.record.save_csv(out / "plan.csv")

    inflated_clear = float(np.min(inflated.clearance(result.record.states)))
    original_clear = float(np.min(obstacle.clearance(result.record.states)))
    print(f"tube radius {radius:.3f} (planar extent {proj.max_extent():.3f} m)")
    print(f"plan cost {result.cost:.4f}, converged={result.converged}")
    print(f"min clearance: inflated {inflated_clear:.4f}, original {original_clear:.4f}")
    print(f"final position ({result.record.states[-1, 0]:.2f}, {result.record.states[-1, 1]:.2f})")
    print(f"artifacts in {out}")
    return 0 if inflated_clear > 0 else 1


if __name__ == "__main__":
    sys.exit(main())

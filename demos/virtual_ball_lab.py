"""Forward-simulator showcase: bounce a virtual ball, then poke it.

Drops an inflated Neo-Hookean membrane ball onto a floor with restitution
0.75, then runs a quasi-static virtual indentation (the static equilibrium
at each depth, by energy minimisation) and prints the measured force-depth
series.

Run: python3 demos/virtual_ball_lab.py   (takes a few seconds)
"""

import math

import numpy as np

from inflatekit import (
    Indenter,
    MaterialSpec,
    Plane,
    ScenarioConfig,
    icosphere,
    indent_virtual,
    init_sim,
    step,
)

MATERIAL = MaterialSpec(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0)


def bounce():
    h0 = 0.5
    mesh = icosphere(radius=0.13, subdivisions=2)
    mesh = mesh.with_vertices(mesh.vertices + np.array([0.0, 0.0, h0 + 0.13]))
    state = init_sim(mesh, MATERIAL)
    config = ScenarioConfig(
        planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
        restitution=0.75,
    )
    t_fall = math.sqrt(2 * h0 / 9.81)
    peak = 0.0
    for _ in range(int(2.2 * t_fall / config.dt)):
        state = step(state, config)
        if state.time > 1.1 * t_fall:
            peak = max(peak, float(state.vertices[:, 2].min()))
    print(f"dropped from {h0} m, rebounded to {peak:.3f} m "
          f"(restitution^2 * h0 = {0.75**2 * h0:.3f} m)")


def poke():
    mesh = icosphere(radius=0.13, subdivisions=2)
    state = init_sim(mesh, MATERIAL)
    top = int(np.argmax(mesh.vertices[:, 2]))
    config = ScenarioConfig(
        gravity=(0.0, 0.0, 0.0),
        indenter=Indenter(vertex=top, axis=(0.0, 0.0, -1.0)),
    )
    series = indent_virtual(state, config, target_depth=0.02, n_levels=4)
    print(f"\nvirtual indentation (R = {series.region_radius * 1e3:.1f} mm):")
    for s in series.samples:
        print(f"  depth {s.depth * 1e3:5.1f} mm  ->  force {s.force:6.3f} N")


if __name__ == "__main__":
    bounce()
    poke()

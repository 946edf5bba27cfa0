"""Tests for the inflated-membrane dynamics simulator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from inflatekit import geometry, simulator
from inflatekit.errors import (
    InsufficientDataError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
)
from inflatekit.geometry import TriMesh, icosphere, signed_volume
from inflatekit.simulator import (
    GRAVITY,
    P_ATM,
    RELAX_FORCE_TOL,
    SUPPORT_CAP_DEG,
    Indenter,
    MaterialSpec,
    Plane,
    ScenarioConfig,
    SimState,
    indent_virtual,
    init_sim,
    run,
    step,
    step_count,
    _gas_pressure,
)

MATERIAL = MaterialSpec(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0)
NO_GRAVITY = ScenarioConfig(gravity=(0.0, 0.0, 0.0))
FREE_FALL = ScenarioConfig()


def ball_state(radius=0.13, subdivisions=2, material=MATERIAL, center=None):
    mesh = icosphere(radius=radius, subdivisions=subdivisions)
    if center is not None:
        mesh = TriMesh(vertices=mesh.vertices + np.asarray(center), faces=mesh.faces)
    return init_sim(mesh, material)


class TestSpecs:
    def test_material_validation(self):
        with pytest.raises(ValidationError):
            MaterialSpec(E=-1.0, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0)
        values = dict(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0)
        for bad in (math.inf, math.nan):
            for name in values:
                with pytest.raises(ValidationError):
                    MaterialSpec(**{**values, name: bad})
        with pytest.raises(ValidationError):
            MaterialSpec(E=2.3e6, nu=0.6, h=1e-3, density=1000.0, Pg0=1300.0)
        with pytest.raises(ValidationError):
            MaterialSpec(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0, gas_model="adiabatic")

    def test_plane_normal_normalized(self):
        plane = Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 5.0))
        assert plane.normal == (0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 0.0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                Plane(point=(0.0, 0.0, bad), normal=(0.0, 0.0, 1.0))
            with pytest.raises(ValidationError):
                Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, bad))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_refused_without_a_warning(self):
        # 1.4e154 squared overflows double precision; 1.3e154 does not
        with pytest.raises(ValidationError, match="plane normal must be finite and nonzero"):
            Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.4e154))
        with pytest.raises(ValidationError, match="axis must be finite and nonzero"):
            Indenter(vertex=0, axis=(0.0, 0.0, 1.4e154))
        assert Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.3e154)).normal == (0.0, 0.0, 1.0)

    def test_scenario_validation(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(dt=0.0)
        with pytest.raises(ValidationError):
            ScenarioConfig(restitution=0.0)
        with pytest.raises(ValidationError):
            ScenarioConfig(restitution=1.5)
        with pytest.raises(ValidationError):
            ScenarioConfig(duration=-1.0)
        for bad in (math.inf, math.nan):
            for kwargs in (
                {"dt": bad},
                {"duration": bad},
                {"gravity": (0.0, 0.0, bad)},
            ):
                with pytest.raises(ValidationError):
                    ScenarioConfig(**kwargs)
            with pytest.raises(ValidationError):
                Indenter(vertex=0, axis=(0.0, 0.0, bad))


class TestInit:
    def test_total_mass_matches_shell_mass(self):
        state = ball_state(subdivisions=3)
        # density * thickness * sphere area, within mesh discretization
        expected = 1000.0 * 1e-3 * 4.0 * math.pi * 0.13**2
        assert state.total_mass == pytest.approx(expected, rel=0.02)

    def test_starts_quiescent_at_initial_pressure(self):
        state = ball_state()
        assert state.kinetic_energy == 0.0
        assert state.Pg == 1300.0
        assert state.time == 0.0

    def test_isothermal_gas_starts_at_its_rest_volume(self):
        # the rest volume and the state's volume are one formula, so the gas
        # starts at exactly Pg0 on a ball away from the origin
        state = ball_state(material=replace(MATERIAL, gas_model="isothermal"), center=(0.0, 0.0, 0.63))
        assert state.volume == state._model.rest_volume
        assert state.Pg == 1300.0

    def test_open_mesh_rejected(self):
        mesh = icosphere(radius=0.13, subdivisions=1)
        open_mesh = TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1])
        with pytest.raises(TopologyError):
            init_sim(open_mesh, MATERIAL)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_rest_triangle_names_its_first_face(self):
        mesh = icosphere(radius=0.13, subdivisions=1)
        x = mesh.vertices.copy()
        a, b = mesh.faces[5, :2]
        x[b] = x[a]
        f = mesh.faces
        e1, e2 = x[f[:, 1]] - x[f[:, 0]], x[f[:, 2]] - x[f[:, 0]]
        zero = (np.linalg.norm(e1, axis=1) == 0) | (np.linalg.norm(e2, axis=1) == 0)
        with pytest.raises(SimulationInstabilityError, match="degenerate rest triangle") as err:
            init_sim(mesh.with_vertices(x), MATERIAL)
        assert (err.value.face_id, err.value.frame) == (int(np.flatnonzero(zero)[0]), 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_set_up_is_refused_without_a_warning(self):
        with pytest.raises(ValidationError, match="non-finite membrane forces"):
            ball_state(subdivisions=1, material=replace(MATERIAL, h=4e301))

    def test_velocity_shape_enforced(self):
        state = ball_state()
        with pytest.raises(ValidationError):
            SimState(
                vertices=state.vertices,
                velocities=np.zeros((3, 3)),
                time=0.0,
                _model=state._model,
            )

    def test_positions_and_velocities_read_only(self):
        state = step(ball_state(), FREE_FALL)
        for array in (state.vertices, state.velocities):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_arrays_are_copied(self, order):
        state = ball_state()
        x = np.array(state.vertices, order=order)
        v = np.full_like(x, 0.25)
        built = SimState(vertices=x, velocities=v, time=0.0, _model=state._model)
        x[0, 0] += 1.0
        v[:] = -3.0
        np.testing.assert_array_equal(built.vertices, state.vertices)
        assert (built.velocities == 0.25).all()
        for after in (built, step(built, FREE_FALL)):
            for array in (after.vertices, after.velocities):
                assert not array.flags.writeable
                assert array.flags.f_contiguous

    def test_volume_matches_signed_volume(self):
        state = ball_state(subdivisions=3)
        rng = np.random.default_rng(5)
        x = state.vertices * (1.0 + 0.03 * rng.standard_normal((len(state.vertices), 1)))
        state = replace(state, vertices=x + 0.002 * rng.standard_normal(x.shape))
        assert len(state.vertices) == 642
        assert state.volume == pytest.approx(signed_volume(state.mesh), rel=1e-12)
        assert state.Pg == _gas_pressure(state._model, state.volume)

    def test_equivalent_radius(self):
        state = ball_state(subdivisions=3)
        assert geometry.equivalent_radius(state.volume) == pytest.approx(0.13, rel=0.01)


class TestDynamics:
    def test_initial_state_is_equilibrium(self):
        # without gravity the pressurized ball must not move at all
        state = ball_state()
        after = step(state, NO_GRAVITY)
        disp = np.abs(after.mesh.vertices - state.mesh.vertices).max()
        assert disp < 1e-9

    def test_internal_forces_conserve_momentum(self):
        # give the ball a uniform drift; internal forces must not change it
        state = ball_state()
        v0 = np.tile([0.3, -0.1, 0.2], (state.mesh.n_vertices, 1))
        state = SimState(
            vertices=state.vertices,
            velocities=v0,
            time=0.0,
            _model=state._model,
        )
        p0 = state.momentum
        for _ in range(50):
            state = step(state, NO_GRAVITY)
        assert np.linalg.norm(state.momentum - p0) < 1e-10 * np.linalg.norm(p0)

    def test_free_fall_matches_kinematics(self):
        state = ball_state()
        z0 = state.centroid[2]
        t = 0.5
        final, _ = run(state, ScenarioConfig(duration=t))
        drop = z0 - final.centroid[2]
        assert drop == pytest.approx(0.5 * 9.81 * t**2, rel=1e-3)
        # energy bookkeeping: kinetic gain equals potential loss within 1%
        ke = final.kinetic_energy
        assert ke == pytest.approx(final.total_mass * 9.81 * drop, rel=0.01)

    def test_step_count_rounds_to_the_nearest(self):
        assert step_count(ScenarioConfig(duration=0.5, dt=1e-4)) == 5000
        assert step_count(ScenarioConfig(duration=0.0)) == 0
        cap = simulator.MAX_STEPS
        assert step_count(ScenarioConfig(duration=cap / 2, dt=0.5)) == cap

    @pytest.mark.parametrize("dt", [5e-324, 1e-300, 1e-8])
    def test_step_count_above_the_cap_is_rejected(self, dt):
        # 1 / 5e-324 overflows to inf; the others are finite but too many
        with pytest.raises(ValidationError, match="duration / dt"):
            run(ball_state(subdivisions=1), ScenarioConfig(duration=1.0, dt=dt))

    def test_deterministic(self):
        a, _ = run(ball_state(), ScenarioConfig(duration=0.05))
        b, _ = run(ball_state(), ScenarioConfig(duration=0.05))
        np.testing.assert_array_equal(a.mesh.vertices, b.mesh.vertices)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_c_and_fortran_ordered_states_step_alike(self):
        # 162 vertices pushed into the floor by their speed and lifted off
        # again by an upward load: contact, projection and separation
        state = ball_state(center=(0.0, 0.0, 0.13 + 1e-5))
        v = np.tile([0.0, 0.0, -0.3], (state.mesh.n_vertices, 1))
        config = ScenarioConfig(
            gravity=(0.0, 0.0, 1000.0),
            planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
            restitution=0.75,
        )
        states = [
            SimState(vertices=order(state.vertices), velocities=order(v), time=0.0,
                     _model=state._model)
            for order in (np.ascontiguousarray, np.asfortranarray)
        ]
        contacts = []
        for _ in range(30):
            states = [step(s, config) for s in states]
            c_state, f_state = states
            np.testing.assert_array_equal(c_state.vertices, f_state.vertices)
            np.testing.assert_array_equal(c_state.velocities, f_state.velocities)
            assert c_state.contact_state == f_state.contact_state
            contacts.append(c_state.contact_state[0])
            for a in (c_state.vertices, c_state.velocities):
                assert a.flags.f_contiguous and not a.flags.writeable
        assert contacts[0] == (True, pytest.approx(0.2))
        assert contacts[-1] == (False, 0.0)
        # the separation set the outgoing speed to e * v_in
        assert states[0].momentum[2] / states[0].total_mass == pytest.approx(
            0.75 * 0.2 + (30 - 6) * 0.1, rel=1e-9
        )

    def test_contact_carries_over_only_to_the_same_planes(self):
        # a ball touching the floor z = 0 and moving down, stepped once with
        # only a floor 5 m below it: that floor starts out of contact, so
        # the step is the one without planes, not a separation bounce
        floor = ScenarioConfig(planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
                               restitution=0.75)
        state = ball_state(center=(0.0, 0.0, 0.13 + 1e-5))
        state = replace(state, velocities=np.tile([0.0, 0.0, -0.3], (len(state.vertices), 1)))
        touching = step(state, floor)
        assert touching.contact_state[0][0]
        far = replace(floor, planes=(Plane(point=(0.0, 0.0, -5.0), normal=(0.0, 0.0, 1.0)),))
        after = step(touching, far)
        assert after.contact_state == ((False, 0.0),)
        assert after.momentum[2] < 0
        free = step(touching, replace(floor, planes=()))
        np.testing.assert_array_equal(after.vertices, free.vertices)
        np.testing.assert_array_equal(after.velocities, free.velocities)
        # an equal floor built anew keeps the contact
        again = replace(floor, planes=(Plane(point=(0, 0, 0), normal=(0, 0, 1)),))
        assert step(touching, again).contact_state[0][0]

    FLOOR = ScenarioConfig(planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
                           restitution=0.75)

    def test_stepping_leaves_the_model_unchanged(self):
        state = ball_state()
        model = state._model
        before = dict(vars(model))
        state = step(step(state, self.FLOOR), FREE_FALL)
        run(state, replace(NO_GRAVITY, duration=3e-4))
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[name] is value for name, value in before.items())

    def test_chains_on_one_model_step_alike_interleaved_or_in_turn(self):
        # one chain on the floor, one with no planes: interleaved, each step
        # follows a step of the other chain's config on the same model
        start = ball_state(center=(0.0, 0.0, 0.13 + 1e-5))
        start = replace(start, velocities=np.tile([0.0, 0.0, -0.3], (len(start.vertices), 1)))
        configs = (self.FLOOR, FREE_FALL)

        def chains(order):
            states, out = [start, start], [[], []]
            for k in order:
                states[k] = step(states[k], configs[k])
                out[k].append(states[k])
            return out[0] + out[1]

        interleaved = chains([0, 1] * 12)
        in_turn = chains([0] * 12 + [1] * 12)
        assert interleaved[0].contact_state[0][0]
        for a, b in zip(interleaved, in_turn):
            np.testing.assert_array_equal(a.vertices, b.vertices)
            np.testing.assert_array_equal(a.velocities, b.velocities)
            assert a.contact_state == b.contact_state

    def test_a_state_given_another_model_steps_like_a_fresh_state_of_it(self):
        # the carried step constants belong to the model that made them
        state = ball_state()
        rng = np.random.default_rng(7)
        state = replace(state, vertices=state.vertices + 1e-3 * rng.standard_normal((162, 3)))
        stepped = step(state, FREE_FALL)
        heavy = ball_state(material=replace(MATERIAL, density=3000.0))._model
        swapped = replace(stepped, _model=heavy)
        fresh = SimState(vertices=stepped.vertices, velocities=stepped.velocities,
                         time=stepped.time, _model=heavy)
        a, b = swapped, fresh
        for _ in range(3):
            a, b = step(a, FREE_FALL), step(b, FREE_FALL)
            np.testing.assert_array_equal(a.vertices, b.vertices)
            np.testing.assert_array_equal(a.velocities, b.velocities)
        # the model matters: the same state on its own model steps otherwise
        assert not np.array_equal(step(swapped, FREE_FALL).velocities,
                                  step(stepped, FREE_FALL).velocities)

    def test_step_makes_one_geometry_pass(self, monkeypatch):
        # the successor is built from positions alone: no mesh is rebuilt
        # or validated and the volume is not gathered a second time
        state = ball_state()
        calls = []
        post_init = TriMesh.__post_init__

        def counted_post_init(mesh):
            calls.append("TriMesh")
            post_init(mesh)

        def counted_volume(mesh):
            calls.append("signed_volume")
            return signed_volume(mesh)

        monkeypatch.setattr(TriMesh, "__post_init__", counted_post_init)
        monkeypatch.setattr(simulator, "signed_volume", counted_volume)
        monkeypatch.setattr(geometry, "signed_volume", counted_volume)
        for _ in range(3):
            state = step(state, FREE_FALL)
        assert calls == []

    def test_collapsed_volume_raises(self):
        # mirrored positions keep every element's metric but turn the
        # enclosed volume negative
        state = ball_state()
        inverted = replace(state, vertices=-state.vertices)
        assert inverted.volume < 0
        with pytest.raises(SimulationInstabilityError, match="volume collapsed"):
            step(inverted, NO_GRAVITY)

    def test_constant_pressure_model_holds_pg(self):
        state, _ = run(ball_state(), ScenarioConfig(duration=0.05))
        assert state.Pg == 1300.0

    def test_isothermal_invariant(self):
        material = MaterialSpec(
            E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0, gas_model="isothermal"
        )
        state = ball_state(material=material)
        invariant0 = (P_ATM + state.Pg) * state.volume
        # squeeze the ball slightly so the volume actually changes
        v = -50.0 * state.mesh.vertices  # radially inward
        state = SimState(
            vertices=state.vertices,
            velocities=v,
            time=0.0,
            _model=state._model,
        )
        v0 = state.volume
        volumes = []
        for _ in range(20):
            state = step(state, NO_GRAVITY)
            volumes.append(state.volume)
            assert (P_ATM + state.Pg) * state.volume == pytest.approx(
                invariant0, rel=1e-9
            )
        assert min(volumes) < v0  # the squeeze actually compressed the gas


class TestBounce:
    def test_drop_rebound_height_follows_restitution(self):
        # drop the ball so its lowest point starts 0.5 m above the floor
        e = 0.75
        h0 = 0.5
        state = ball_state(center=(0.0, 0.0, h0 + 0.13))
        t_fall = math.sqrt(2.0 * h0 / 9.81)
        config = ScenarioConfig(
            planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
            restitution=e,
            dt=1e-4,
            duration=2.2 * t_fall,
        )
        peak = 0.0
        prev_z = state.centroid[2]
        falling_after_bounce = False

        def observe(_k, s):
            nonlocal peak, prev_z, falling_after_bounce
            z = s.centroid[2]
            if s.time > 1.1 * t_fall:
                peak = max(peak, float(s.vertices[:, 2].min()))
                if z < prev_z - 1e-6 and peak > 0.01:
                    falling_after_bounce = True
            prev_z = z

        run(state, config, observe)
        assert falling_after_bounce
        assert peak == pytest.approx(e**2 * h0, rel=0.05)

    def test_recontact_after_lift_off_keeps_the_rebound(self):
        # 642 vertices, isothermal gas: after lift-off a wobbling vertex
        # touches the floor again, starting a second contact episode with
        # no approach speed.  Its separation must not reset the bounce.
        e, h0 = 0.75, 0.5
        material = MaterialSpec(
            E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0, gas_model="isothermal"
        )
        state = ball_state(subdivisions=3, material=material, center=(0.0, 0.0, h0 + 0.13))
        t_fall = math.sqrt(2.0 * h0 / 9.81)
        config = ScenarioConfig(
            planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
            restitution=e,
            duration=2.2 * t_fall,
        )
        peak = 0.0

        def observe(_k, s):
            nonlocal peak
            if s.time > 1.1 * t_fall:
                peak = max(peak, float(s.vertices[:, 2].min()))

        _final, report = run(state, config, observe)
        assert report.contact_episodes == (2,)
        assert peak == pytest.approx(e**2 * h0, rel=0.05)


class TestRun:
    # 162 vertices pushed into the floor, lifted off by an upward load and
    # carried into a ceiling: a floor contact, a separation and a ceiling
    # contact held to the end
    CONFIG = ScenarioConfig(
        gravity=(0.0, 0.0, 1000.0),
        planes=(
            Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),
            Plane(point=(0.0, 0.0, 0.28), normal=(0.0, 0.0, -1.0)),
        ),
        restitution=0.75,
        duration=0.03,
    )

    def start(self):
        state = ball_state(center=(0.0, 0.0, 0.13 + 1e-5))
        return replace(state, velocities=np.tile([0.0, 0.0, -0.3], (len(state.vertices), 1)))

    def step_chain(self, state, n_steps, config=CONFIG):
        states = []
        for _ in range(n_steps):
            state = step(state, config)
            states.append(state)
        return states

    def test_final_state_equals_the_step_chain(self):
        chain = self.step_chain(self.start(), 300)
        final, report = run(self.start(), self.CONFIG)
        assert report.steps == 300
        np.testing.assert_array_equal(final.vertices, chain[-1].vertices)
        np.testing.assert_array_equal(final.velocities, chain[-1].velocities)
        assert final.contact_state == chain[-1].contact_state
        assert final.time == chain[-1].time
        # the scenario holds what its comment promises
        floor = [s.contact_state[0][0] for s in chain]
        assert floor[0] and not floor[-1]
        assert chain[-1].contact_state[1][0]

    def test_contact_episodes_match_a_hand_count(self):
        episodes, touching = [0, 0], [False, False]
        for state in self.step_chain(self.start(), 300):
            for k, (now, _v_in) in enumerate(state.contact_state):
                episodes[k] += now and not touching[k]
                touching[k] = now
        assert episodes == [1, 1]
        assert run(self.start(), self.CONFIG)[1].contact_episodes == tuple(episodes)

    def test_observer_sees_the_simulate_sampling_steps(self):
        # cmd_simulate sampled after step i (0-based) when i % every == 0
        # or i was the last step
        config = replace(self.CONFIG, duration=30 * self.CONFIG.dt)
        chain = self.step_chain(self.start(), 30)
        seen = []

        def observe(k, state):
            seen.append(k)
            np.testing.assert_array_equal(state.vertices, chain[k - 1].vertices)
            np.testing.assert_array_equal(state.velocities, chain[k - 1].velocities)
            assert state.contact_state == chain[k - 1].contact_state

        _final, report = run(self.start(), config, observe, every=7)
        assert seen == [i + 1 for i in range(30) if i % 7 == 0 or i == 29] == [1, 8, 15, 22, 29, 30]
        assert report.steps == 30
        for every in (0, -1, 1.5, True):
            with pytest.raises(ValidationError, match="every"):
                run(self.start(), config, observe, every=every)

    def test_numpy_integer_every_gives_the_same_observations(self):
        config = replace(self.CONFIG, duration=30 * self.CONFIG.dt)

        def observations(every):
            seen = []
            run(self.start(), config, lambda k, state: seen.append((k, state)), every=every)
            return seen

        want, got = observations(7), observations(np.int64(7))
        assert [k for k, _ in got] == [k for k, _ in want] == [1, 8, 15, 22, 29, 30]
        for (_, state), (_, expected) in zip(got, want):
            np.testing.assert_array_equal(state.vertices, expected.vertices)
            np.testing.assert_array_equal(state.velocities, expected.velocities)

    def test_collapse_raises_the_step_chain_error(self):
        # a fast radial squeeze collapses the enclosed volume a few steps in
        state = ball_state(subdivisions=1)
        state = replace(state, velocities=-2000.0 * state.vertices)
        config = replace(NO_GRAVITY, duration=0.01)
        with pytest.raises(SimulationInstabilityError) as from_chain:
            self.step_chain(state, step_count(config), config)
        with pytest.raises(SimulationInstabilityError) as from_run:
            run(state, config)
        assert str(from_run.value) == str(from_chain.value) == "enclosed volume collapsed"
        assert from_run.value.frame == from_chain.value.frame == 7
        assert from_run.value.face_id == from_chain.value.face_id

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_raises_the_typed_error_without_a_warning(self):
        # 1e305 m/s over a 1e4 s step overflows the positions
        state = replace(ball_state(subdivisions=1), velocities=np.full((42, 3), 1e305))
        config = ScenarioConfig(dt=1e4, duration=3e4)
        for advance in (lambda: step(state, config), lambda: run(state, config)):
            with pytest.raises(SimulationInstabilityError, match="non-finite state after step") as err:
                advance()
            assert err.value.frame == 1

    def test_observer_runs_under_the_callers_error_state(self):
        config = replace(self.CONFIG, duration=2 * self.CONFIG.dt)

        def observe(k, state):
            np.float64(1e308) * 10.0

        with pytest.warns(RuntimeWarning, match="overflow"):
            run(self.start(), config, observe)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run(self.start(), config, observe)


class TestIndentation:
    def test_zero_target_depth_rejected(self):
        with pytest.raises(InsufficientDataError):
            indent_virtual(ball_state(), Indenter(vertex=0), target_depth=0.0)

    @pytest.mark.parametrize(
        "target_depth, n_levels",
        [(0.01, 100_000), (0.01, simulator.MAX_LEVELS + 1), (100.0, None)],
        ids=["given", "one-above", "derived"],
    )
    def test_levels_above_the_cap_rejected_before_any_minimisation(
        self, monkeypatch, target_depth, n_levels
    ):
        monkeypatch.setattr(simulator, "lbfgs", None)  # any minimisation would fail
        with pytest.raises(ValidationError, match="above the cap of 1,000"):
            indent_virtual(ball_state(subdivisions=1), Indenter(vertex=0), target_depth, n_levels,
                           gravity=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("vertex", [28, 0], ids=["in-support-cap", "on-the-equator"])
    def test_indenter_outside_the_entry_cap_rejected_before_any_minimisation(
        self, monkeypatch, vertex
    ):
        # with the default axis (0, 0, -1), the bottom vertex 28 lies in the
        # fixed cap, where the axis points out of the surface, and vertex 0
        # on the equator, where it runs along the surface
        monkeypatch.setattr(simulator, "lbfgs", None)  # any minimisation would fail
        with pytest.raises(ValidationError) as err:
            indent_virtual(ball_state(), Indenter(vertex=vertex), target_depth=0.01, n_levels=3)
        assert str(err.value) == (
            f"indenter vertex {vertex} lies more than 30 degrees from the pole where its axis "
            "enters the surface; the axis must point into the surface"
        )

    def test_series_has_increasing_force_and_depth(self):
        state = ball_state()
        top = int(np.argmax(state.mesh.vertices[:, 2]))
        indenter = Indenter(vertex=top, axis=(0.0, 0.0, -1.0))
        series = indent_virtual(state, indenter, target_depth=0.015, n_levels=3,
                                gravity=(0.0, 0.0, 0.0))
        depths = series.depths
        forces = series.forces
        assert len(depths) == 3
        assert depths[-1] == pytest.approx(0.015, rel=1e-9)
        assert all(d2 > d1 for d1, d2 in zip(depths, depths[1:]))
        assert all(f2 > f1 for f1, f2 in zip(forces, forces[1:]))
        assert series.region_radius == pytest.approx(0.13, rel=0.02)
        assert series.region_thickness == MATERIAL.h


# ---------------------------------------------------------------------------
# Equivalence with the batched-matrix / np.add.at force assembly that the
# per-component kernel replaced.  The reference is the former library code.


def reference_forces(rest: TriMesh, material: MaterialSpec, prestretch: float, x, pg):
    """(masses, elastic forces, pressure forces) by the former formulas."""
    faces = rest.faces
    v = rest.vertices
    i0, i1, i2 = faces[:, 0], faces[:, 1], faces[:, 2]
    e1 = v[i1] - v[i0]
    e2 = v[i2] - v[i0]
    l1 = np.linalg.norm(e1, axis=1)
    t1 = e1 / l1[:, None]
    proj = np.einsum("fi,fi->f", e2, t1)
    l2 = np.linalg.norm(e2 - proj[:, None] * t1, axis=1)
    masses = np.zeros(rest.n_vertices)
    np.add.at(
        masses, faces.ravel(), np.repeat(material.density * material.h * 0.5 * l1 * l2 / 3.0, 3)
    )
    l1, proj, l2 = l1 / prestretch, proj / prestretch, l2 / prestretch
    dm_inv = np.zeros((len(faces), 2, 2))
    dm_inv[:, 0, 0] = 1.0 / l1
    dm_inv[:, 0, 1] = -proj / (l1 * l2)
    dm_inv[:, 1, 1] = 1.0 / l2
    rest_area = 0.5 * l1 * l2

    d = np.stack([x[i1] - x[i0], x[i2] - x[i0]], axis=2)
    f_grad = d @ dm_inv
    c = np.einsum("fij,fik->fjk", f_grad, f_grad)
    det_c = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    c_inv = np.empty_like(c)
    c_inv[:, 0, 0] = c[:, 1, 1]
    c_inv[:, 1, 1] = c[:, 0, 0]
    c_inv[:, 0, 1] = -c[:, 0, 1]
    c_inv[:, 1, 0] = -c[:, 1, 0]
    c_inv /= det_c[:, None, None]
    log_j = 0.5 * np.log(det_c)
    s = material.mu * (np.eye(2) - c_inv) + (material.lam * log_j)[:, None, None] * c_inv
    h_mat = -(rest_area * material.h)[:, None, None] * (
        (f_grad @ s) @ np.transpose(dm_inv, (0, 2, 1))
    )
    elastic = np.zeros_like(x)
    np.add.at(elastic, i1, h_mat[:, :, 0])
    np.add.at(elastic, i2, h_mat[:, :, 1])
    np.add.at(elastic, i0, -h_mat[:, :, 0] - h_mat[:, :, 1])

    vec_area = 0.5 * np.cross(x[i1] - x[i0], x[i2] - x[i0])
    pressure = np.zeros_like(x)
    np.add.at(pressure, faces.ravel(), np.repeat(pg * vec_area / 3.0, 3, axis=0))
    return masses, elastic, pressure


class TestForceKernelMatchesReference:
    @pytest.mark.parametrize("subdivisions", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_forces_on_perturbed_ball(self, subdivisions, seed):
        state = ball_state(subdivisions=subdivisions)
        model = state._model
        rng = np.random.default_rng(seed)
        x = state.mesh.vertices * (
            1.0 + 0.03 * rng.standard_normal((state.mesh.n_vertices, 1))
        ) + 0.002 * rng.standard_normal(state.mesh.vertices.shape)
        pg = 1450.0
        masses, elastic, pressure = reference_forces(
            state.mesh, MATERIAL, model.prestretch, x, pg
        )
        scale = np.abs(elastic).max()

        def close(got, want, scale):
            assert np.abs(got - want).max() <= 1e-12 * scale

        close(model.masses, masses, masses.max())
        got_elastic = model.internal_forces(x, 0.0, 0) - model.pressure_offset
        got_total = model.internal_forces(x, pg, 0) - model.pressure_offset
        close(got_elastic, elastic, scale)
        # the pressure forces are linear in pg: what pg adds to the total
        close(got_total - got_elastic, pressure, np.abs(pressure).max())
        close(got_total, elastic + pressure, scale)

    def test_collapse_names_face_and_frame(self):
        state = ball_state()
        x = state.mesh.vertices.copy()
        faces = state.mesh.faces
        i0, i1, _ = faces[17]
        x[i1] = x[i0]  # the two faces sharing this edge collapse: det C = 0
        first = min(f for f, tri in enumerate(faces.tolist()) if i0 in tri and i1 in tri)
        with pytest.raises(SimulationInstabilityError) as err:
            state._model.internal_forces(x, state.Pg, 42)
        assert (err.value.face_id, err.value.frame) == (first, 42)


# ---------------------------------------------------------------------------
# Quasi-static indentation by energy minimisation.  The reference is the
# damped advance-and-relax loop that it replaced, kept here as it was in the
# library; the pinning that step() used to apply is applied after each step.

RELAX_KE_TOL = 1e-6  # J
RELAX_DAMPING = 50.0  # 1/s


def pinned_step(state, config, pinned, pinned_positions):
    """step() with viscous damping at the rate RELAX_DAMPING and the pinned
    vertices held in place at zero velocity.

    The velocities are scaled by (1 - RELAX_DAMPING dt) before the step, so
    the step makes the damped update v (1 - RELAX_DAMPING dt) + dt F / m.
    """
    state = replace(state, velocities=state.velocities * (1.0 - RELAX_DAMPING * config.dt))
    state = step(state, config)
    x = state.vertices.copy()
    v = state.velocities.copy()
    x[pinned] = pinned_positions
    v[pinned] = 0.0
    return replace(state, vertices=x, velocities=v)


def damped_indentation_forces(state, ind, config, target_depth, n_levels, speed=0.01):
    """Reaction forces of the former damped advance-and-relax indentation of
    ind, stepped with config's dt and gravity."""
    model = state._model
    axis = np.asarray(ind.axis)
    x = state.mesh.vertices
    x0 = x[ind.vertex].copy()
    centered = x - x.mean(axis=0)
    along = centered @ axis
    cap = along >= np.linalg.norm(centered, axis=1) * math.cos(math.radians(SUPPORT_CAP_DEG))
    cap[ind.vertex] = False
    support = np.nonzero(cap)[0]
    pinned = np.concatenate(([ind.vertex], support))
    support_pos = x[support]
    free = np.ones(state.mesh.n_vertices, dtype=bool)
    free[pinned] = False
    gravity = model.masses[:, None] * np.asarray(config.gravity)
    forces = []
    depth = 0.0
    for level in range(1, n_levels + 1):
        depth_target = target_depth * level / n_levels
        while depth < depth_target:
            depth = min(depth + speed * config.dt, depth_target)
            pos = np.vstack([(x0 + depth * axis)[None, :], support_pos])
            state = pinned_step(state, config, pinned, pos)
        for i in range(200_000):
            state = pinned_step(state, config, pinned, pos)
            if state.kinetic_energy < RELAX_KE_TOL and (i + 1) % 200 == 0:
                f = model.internal_forces(state.mesh.vertices, state.Pg, 0) + gravity
                if np.linalg.norm(f[free], axis=1).max() < RELAX_FORCE_TOL:
                    break
        else:
            raise AssertionError("damped reference did not relax")
        forces.append(-float(f[ind.vertex] @ axis))
    return forces


def lbfgsb_indentation_forces(state, ind, target_depth, n_levels, gravity=GRAVITY):
    """Reaction forces of the former indent_virtual: scipy's L-BFGS-B
    minimises the same potential over the same free vertices at each level."""
    model = state._model
    axis = np.asarray(ind.axis)
    x = state.vertices.copy(order="F")
    gravity = model.masses[:, None] * np.asarray(gravity)
    centered = x - x.mean(axis=0)
    cos_cap = math.cos(math.radians(SUPPORT_CAP_DEG))
    free = centered @ axis < np.linalg.norm(centered, axis=1) * cos_cap
    free[ind.vertex] = False

    def potential(q):
        x[free] = q.reshape(-1, 3)
        energy, grad = model.potential(x, gravity)
        return energy, grad[free].ravel()

    forces = []
    for level in range(1, n_levels + 1):
        x[ind.vertex] = state.vertices[ind.vertex] + target_depth * level / n_levels * axis
        result = minimize(potential, x[free].ravel(), jac=True, method="L-BFGS-B",
                          options={"gtol": RELAX_FORCE_TOL / 2.0, "ftol": 0.0})
        x[free] = result.x.reshape(-1, 3)
        f = model.internal_forces(x) + gravity
        assert np.linalg.norm(f[free], axis=1).max() < RELAX_FORCE_TOL
        forces.append(-float(f[ind.vertex] @ axis))
    return forces


GAS_MATERIALS = [
    MATERIAL,
    MaterialSpec(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0, gas_model="isothermal"),
]


class TestQuasiStaticIndentation:
    @pytest.mark.parametrize("material", GAS_MATERIALS, ids=lambda m: m.gas_model)
    def test_potential_gradient_is_minus_net_force(self, material):
        state = ball_state(material=material)
        model = state._model
        rng = np.random.default_rng(3)
        x = state.mesh.vertices * (
            1.0 + 0.02 * rng.standard_normal((state.mesh.n_vertices, 1))
        ) + 0.002 * rng.standard_normal(state.mesh.vertices.shape)
        gravity = model.masses[:, None] * np.array([0.0, 0.0, -9.81])
        _, grad = model.potential(x, gravity)
        volume = signed_volume(state.mesh.with_vertices(x.copy()))
        net = model.internal_forces(x, _gas_pressure(model, volume), 0) + gravity
        assert np.abs(grad + net).max() <= 1e-12 * np.abs(net).max()
        # central differences of the energy along random directions
        eps = 1e-7
        for _ in range(3):
            d = rng.standard_normal(x.shape)
            slope = (model.potential(x + eps * d, gravity)[0]
                     - model.potential(x - eps * d, gravity)[0]) / (2.0 * eps)
            assert slope == pytest.approx(-float((net * d).sum()), rel=1e-6)

    @pytest.mark.parametrize("material", GAS_MATERIALS, ids=lambda m: m.gas_model)
    def test_matches_damped_advance_and_relax(self, material):
        # 162 vertices with gravity on: the reaction force at every level
        # agrees with the damped-dynamics equilibrium it replaced.  dt only
        # sets the reference's path; its own stopping rule leaves it up to
        # about 8e-4 N from the equilibrium.
        state = ball_state(material=material)
        top = int(np.argmax(state.mesh.vertices[:, 2]))
        indenter = Indenter(vertex=top)
        series = indent_virtual(state, indenter, target_depth=0.015, n_levels=3)
        reference = damped_indentation_forces(state, indenter, ScenarioConfig(dt=3e-4), 0.015, 3)
        assert np.abs(np.asarray(series.forces) - reference).max() <= 1e-3

    @pytest.mark.parametrize(
        "subdivisions, material, gravity, target_depth, n_levels",
        [
            *((2, m, g, 0.02, 4) for m in GAS_MATERIALS for g in ((0.0, 0.0, 0.0), (0.0, 0.0, -9.81))),
            (3, replace(MATERIAL, h=3e-3, Pg0=800.0), (0.0, 0.0, 0.0), 0.035, 5),
        ],
        ids=["constant-weightless", "constant-gravity", "isothermal-weightless",
             "isothermal-gravity", "642-vertices"],
    )
    def test_matches_lbfgsb(self, subdivisions, material, gravity, target_depth, n_levels):
        state = ball_state(material=material, subdivisions=subdivisions)
        top = int(np.argmax(state.vertices[:, 2]))
        indenter = Indenter(vertex=top)
        series = indent_virtual(state, indenter, target_depth, n_levels, gravity=gravity)
        reference = lbfgsb_indentation_forces(state, indenter, target_depth, n_levels, gravity)
        assert np.abs(np.asarray(series.forces) - reference).max() <= 1e-3

    def test_isothermal_relaxes_to_a_hundredth_of_the_force_tolerance(self, monkeypatch):
        # 642 vertices under gravity: the gas energy is measured from the
        # rest volume, so its round-off stays below the decrease of a step
        # with a residual near 1e-6 N
        state = ball_state(material=GAS_MATERIALS[1], subdivisions=3)
        top = int(np.argmax(state.vertices[:, 2]))
        indenter = Indenter(vertex=top)
        forces = np.asarray(indent_virtual(state, indenter, 0.02, 4).forces)
        monkeypatch.setattr(simulator, "RELAX_FORCE_TOL", RELAX_FORCE_TOL / 100.0)
        monkeypatch.setattr(simulator, "RELAX_GTOL", simulator.RELAX_GTOL / 100.0)
        tight = np.asarray(indent_virtual(state, indenter, 0.02, 4).forces)
        assert np.abs(forces - tight).max() <= 1e-3

    @pytest.mark.parametrize("material", GAS_MATERIALS, ids=lambda m: m.gas_model)
    def test_near_the_tight_equilibrium(self, monkeypatch, material):
        # 642 vertices under gravity: the two minimisers stop on different
        # sides inside the force tolerance, up to 1.1e-3 N apart; each is
        # within 1e-3 N of the equilibrium solved to a 10 times smaller
        # residual, whichever solver finds it
        state = ball_state(material=material, subdivisions=3)
        top = int(np.argmax(state.vertices[:, 2]))
        indenter = Indenter(vertex=top)
        forces = np.asarray(indent_virtual(state, indenter, 0.02, 4).forces)
        reference = lbfgsb_indentation_forces(state, indenter, 0.02, 4)
        monkeypatch.setattr(simulator, "RELAX_FORCE_TOL", RELAX_FORCE_TOL / 10.0)
        monkeypatch.setattr(simulator, "RELAX_GTOL", simulator.RELAX_GTOL / 10.0)
        tight = np.asarray(indent_virtual(state, indenter, 0.02, 4).forces)
        assert np.abs(forces - tight).max() <= 1e-3
        assert np.abs(reference - tight).max() <= 1e-3

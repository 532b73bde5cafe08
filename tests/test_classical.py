import inspect
import math
import os
import pickle
import time

import pytest

from lambda_osc.classical import (
    ClassicalState,
    DomainExitError,
    OrbitParams,
    energy,
    integrate,
    measure_period,
    ode_residual,
)
from lambda_osc.cli import main
from lambda_osc.verification import check_classical


class TestOrbitParams:
    def test_frequency_law(self):
        orbit = OrbitParams.from_amplitude(1.0, 1.0, 0.5)
        assert orbit.omega**2 == pytest.approx(1.0 / 1.5)

    def test_negative_coupling_law(self):
        orbit = OrbitParams.from_amplitude(1.0, 1.0, -0.5)
        assert orbit.omega**2 == pytest.approx(2.0)

    def test_amplitude_restriction(self):
        with pytest.raises(ValueError):
            OrbitParams.from_amplitude(1.5, 1.0, -0.5)  # lam*A^2 <= -1

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        # omega = 0 made the period a division by zero
        with pytest.raises(ValueError, match="must be positive"):
            OrbitParams.from_amplitude(1.0, alpha, 0.5)

    def test_exact_solution_residual(self):
        # x = A sin(w t + phi) with the constrained frequency solves the
        # equation of motion identically (analytic derivatives)
        for lam in (0.5, -0.5, 0.1, -0.1):
            for amp in (0.5, 1.0):
                orbit = OrbitParams.from_amplitude(amp, 1.0, lam, phase=0.3)
                worst = max(
                    abs(ode_residual(orbit, 1.0, lam, 0.131 * k))
                    for k in range(100)
                )
                assert worst <= 1e-10

    def test_unconstrained_frequency_fails(self):
        bad = OrbitParams(amplitude=1.0, omega=1.0, phase=0.0)
        assert abs(ode_residual(bad, 1.0, 0.5, 0.3)) > 1e-3


class TestEnergy:
    def test_kinetic_only(self):
        assert energy(ClassicalState(0.0, 2.0), 1.0, 0.9) == pytest.approx(2.0)

    def test_turning_point(self):
        assert energy(ClassicalState(1.0, 0.0), 1.0, 0.5) == pytest.approx(
            0.5 / 1.5
        )

    def test_harmonic(self):
        s = ClassicalState(0.7, -1.1)
        assert energy(s, 1.0, 0.0) == pytest.approx(0.5 * (1.1**2 + 0.7**2))

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            energy(ClassicalState(2.0, 0.0), 1.0, -1.0)


class TestIntegrate:
    def test_harmonic_cosine(self):
        traj = integrate(ClassicalState(1.0, 0.0), 1.0, 0.0, 6.5, 1e-3,
                         sample_every=50)
        worst = max(abs(x - math.cos(t)) for t, x in zip(traj.t, traj.x))
        assert worst < 5e-7  # second-order in the step

    def test_energy_conserved_along_trajectory(self):
        traj = integrate(ClassicalState(0.8, 0.3), 1.0, 0.4, 30.0, 1e-3,
                         sample_every=100)
        e0 = traj.e[0]
        assert max(abs(e - e0) for e in traj.e) < 1e-6 * e0

    def test_time_reversibility(self):
        # one step forward then one step backward returns the start
        s0 = ClassicalState(0.6, 0.4)
        fwd = integrate(s0, 1.0, 0.5, 0.01, 0.01)
        back = integrate(
            ClassicalState(fwd.x[-1], -fwd.v[-1]), 1.0, 0.5, 0.01, 0.01
        )
        assert back.x[-1] == pytest.approx(s0.x, abs=1e-15)
        assert -back.v[-1] == pytest.approx(s0.v, abs=1e-15)

    def test_sample_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            integrate(ClassicalState(1.0, 0.0), 1.0, 0.5, 1.0, 1e-2,
                      sample_every=0)

    def test_initial_state_outside_domain(self):
        with pytest.raises(ValueError):
            integrate(ClassicalState(1.5, 0.0), 1.0, -0.5, 1.0, 1e-3)

    @pytest.mark.parametrize("total_time", [-1e-3, -1.0, math.nan])
    def test_negative_total_time_refused(self, total_time):
        with pytest.raises(ValueError, match="must be nonnegative"):
            integrate(ClassicalState(1.0, 0.0), 1.0, 0.5, total_time, 1e-2)

    def test_zero_total_time_takes_one_step(self):
        traj = integrate(ClassicalState(1.0, 0.0), 1.0, 0.5, 0.0, 1e-2)
        assert traj.t == [0.0, 1e-2]

    def test_numerical_overshoot_aborts_with_time(self):
        # a coarse step drives the arclength drift across the wall
        with pytest.raises(DomainExitError) as err:
            integrate(ClassicalState(1.3, 8.0), 1.0, -0.5, 5.0, 0.5)
        assert 0 < err.value.time <= 5.0


class TestPeriodMeasurement:
    @pytest.mark.parametrize("lam", [0.5, -0.5, 0.1, -0.1])
    @pytest.mark.parametrize("amplitude", [0.5, 1.0])
    def test_period_matches_law(self, lam, amplitude):
        probe = measure_period(1.0, lam, amplitude, n_periods=50,
                               steps_per_period=10_000)
        expected = 2 * math.pi * math.sqrt(1 + lam * amplitude**2)
        assert probe.period == pytest.approx(expected, rel=1e-4)
        assert probe.crossings >= 49

    def test_energy_drift_bounded(self):
        probe = measure_period(1.0, 0.5, 1.0, n_periods=100,
                               steps_per_period=10_000)
        assert probe.max_rel_energy_drift <= 1e-6

    def test_harmonic_reference(self):
        # limited by the crossing interpolation, second order in the step
        probe = measure_period(1.0, 0.0, 1.0, n_periods=50,
                               steps_per_period=10_000)
        assert probe.period == pytest.approx(2 * math.pi, rel=1e-7)

    def test_crossings_are_interpolated(self):
        # at lam = 0 the leapfrog's own period is pi*h/asin(h/2); 37 steps
        # per period do not divide it, so the step time of each upward
        # crossing is off by up to a step and only interpolation recovers it
        h = 2 * math.pi / 37
        probe = measure_period(1.0, 0.0, 1.0, n_periods=30,
                               steps_per_period=37)
        assert probe.period == pytest.approx(math.pi * h / math.asin(h / 2),
                                             rel=1e-5)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_per_period_must_be_positive(self, steps):
        with pytest.raises(ValueError, match="steps_per_period"):
            measure_period(1.0, 0.5, 1.0, n_periods=1, steps_per_period=steps)

    def test_wall_exit_carries_time(self):
        # a coarse step at lam*A^2 = -0.98 leaves the domain on step one
        with pytest.raises(DomainExitError) as err:
            measure_period(1.0, -0.5, 1.4, n_periods=2, steps_per_period=4)
        assert err.value.time == pytest.approx(0.2221441469, abs=1e-10)

    @pytest.mark.parametrize("amplitude, tol", [(10.0, 1e-7), (100.0, 1e-6)])
    def test_large_amplitude_matches_law(self, amplitude, tol):
        # at lam*A^2 >> 1 the turning point sits at large a, where the
        # force factor 1 - tanh^2 cancels; the law still holds (the error
        # is the same to three digits at 100 periods)
        probe = measure_period(1.0, 0.5, amplitude, n_periods=10)
        law = OrbitParams.from_amplitude(amplitude, 1.0, 0.5).period
        assert abs(probe.period - law) <= tol * law

    @pytest.mark.parametrize("amplitude", [1e4, 1e5])
    def test_escaping_orbit_is_a_runtime_error(self, amplitude):
        # 10^4 steps per period do not resolve this orbit: it passes the
        # well once and runs off in a with no upward crossing
        with pytest.raises(RuntimeError, match="no full period observed"):
            measure_period(1.0, 0.5, amplitude, n_periods=10)

    def test_escaped_probe_stops_early(self):
        # once float tanh saturates the kick is exactly 0 and the orbit
        # drifts off; 10^8 steps took tens of seconds when all were run
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="no full period observed"):
            measure_period(1.0, 0.5, 1e4, n_periods=10_000)
        assert time.perf_counter() - t0 < 2.0

    def test_probe_that_escapes_after_crossings_keeps_its_results(self):
        # 1000 steps per period hold A = 100 for 7 upward crossings, then
        # it escapes; the values are those of a run of all 50,000 steps
        want = (698.2178275148061, 6, 0.03426462869082954)
        for n_periods in (50, 10_000):
            t0 = time.perf_counter()
            probe = measure_period(1.0, 0.5, 100.0, n_periods=n_periods,
                                   steps_per_period=1000)
            assert time.perf_counter() - t0 < 2.0
            assert tuple(probe) == want

    def test_sample_past_float_range_is_a_runtime_error(self):
        # the same escape in a trajectory: at A = 2000 the sample of step
        # 10182 is x = -inf, two steps before sinh itself overflows
        h = OrbitParams.from_amplitude(2000.0, 1.0, 0.5).period / 10_000
        with pytest.raises(RuntimeError, match="take more steps per period"):
            integrate(ClassicalState(2000.0, 0.0), 1.0, 0.5, 10_182 * h, h)

    @pytest.mark.parametrize("lam", [1e-320, -1e-320])
    def test_subnormal_deformation_is_the_harmonic_probe(self, lam):
        # the identity chart: w = sqrt(1e-320) would make 1/(w h)^2 divide
        # by zero
        assert measure_period(1.0, lam, 1.0) == measure_period(1.0, 0.0, 1.0)

    def test_infinite_drift_is_a_runtime_error(self, capsys):
        # at lam = 1e-305 the energy's 1/(w h)^2 overflows to inf, and the
        # probe used to print an infinite max_rel_energy_drift
        assert main(["classical", "--probe", "--lambda", "1e-305",
                     "--amplitude", "1", "--periods", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: energy drift is not finite at deformation 1e-305: the "
            "momentum scale 1/(sqrt(|lam|) h)^2 of the energy overflows "
            "float range\n")
        # 1e-302 is past the overflow
        probe = measure_period(1.0, 1e-302, 1.0, n_periods=5)
        assert math.isfinite(probe.max_rel_energy_drift)

    def test_wall_exit_error_pickles_from_its_time(self):
        # a worker process sends the error back pickled
        err = pickle.loads(pickle.dumps(DomainExitError(1.5)))
        assert str(err) == "trajectory left the domain at t = 1.5"
        assert err.time == 1.5


class TestSharedStepper:
    @pytest.mark.parametrize("lam", [0.5, -0.5, 0.0])
    def test_integrate_and_probe_take_the_same_steps(self, lam):
        # both entry points run the one stepper: sampling every step
        # reproduces the probe's drift to the last bit
        amp, n_periods, spp = 1.0, 3, 1000
        h = OrbitParams.from_amplitude(amp, 1.0, lam).period / spp
        n = n_periods * spp
        traj = integrate(ClassicalState(amp, 0.0), 1.0, lam, n * h, h,
                         sample_every=1)
        assert len(traj.t) == n + 1
        e0 = traj.e[0]
        drift = max(abs(e - e0) for e in traj.e) / e0
        probe = measure_period(1.0, lam, amp, n_periods, spp)
        assert drift == probe.max_rel_energy_drift

    @staticmethod
    def _count_calls(monkeypatch, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(math, name)

            def counted(x, name=name, real=real):
                calls[name] += 1
                return real(x)

            monkeypatch.setattr(math, name, counted)
        return calls

    CHARTS = ("tanh", "tan", "sinh", "cosh", "sin", "cos")

    @pytest.mark.parametrize("lam, chart", [(0.5, "tanh"), (-0.5, "tan")])
    def test_one_chart_call_per_step(self, monkeypatch, lam, chart):
        # the force comes from r = T(a) alone: n + O(1) calls of T, and
        # a probe, which takes no samples, calls neither S nor K
        calls = self._count_calls(monkeypatch, self.CHARTS)
        for n_periods in (2, 4):
            calls.update(dict.fromkeys(calls, 0))
            measure_period(1.0, lam, 1.0, n_periods, steps_per_period=100)
            n = 100 * n_periods
            assert n <= calls[chart] <= n + 2
            assert sum(calls.values()) == calls[chart]

    def test_chart_functions_only_at_samples(self, monkeypatch):
        calls = self._count_calls(monkeypatch, self.CHARTS)
        # 100 steps, every 10th sampled: S and K once per sample
        traj = integrate(ClassicalState(1.0, 0.0), 1.0, 0.5, 1.0, 0.01,
                         sample_every=10)
        assert len(traj.t) == 11
        assert 100 <= calls.pop("tanh") <= 102
        assert calls == {"tan": 0, "sinh": 10, "cosh": 10, "sin": 0, "cos": 0}

    @pytest.mark.parametrize("lam", [0.5, -0.5, 0.1, -0.1])
    def test_tangent_chart_matches_the_sinh_cosh_steps(self, lam):
        # reference: the same kick-drift-kick in (a, q), with the force
        # g*S/K^3 from two chart calls; the tangent chart only reorders
        # rounding, so 1000 synchronised states agree to 1e-12
        alpha, h, n = 1.0, 0.01, 1000
        w = math.sqrt(abs(lam))
        S, K, inv = ((math.sinh, math.cosh, math.asinh) if lam > 0
                     else (math.sin, math.cos, math.asin))
        a = inv(w * 0.9)
        s, k = S(a), K(a)
        q = 0.2 / k
        g = 0.5 * h * alpha * alpha / w
        ref = []
        for _ in range(n):
            q -= g * s / k**3
            a += w * h * q
            s, k = S(a), K(a)
            q -= g * s / k**3
            ref.append((s / w, q * k))
        traj = integrate(ClassicalState(0.9, 0.2), alpha, lam, n * h, h)
        assert len(traj.x) == n + 1
        for (x, v), xt, vt in zip(ref, traj.x[1:], traj.v[1:]):
            assert abs(x - xt) <= 1e-12
            assert abs(v - vt) <= 1e-12

    def test_check_classical_work_is_pinned(self):
        # a faster stepper must not buy its speed with a smaller check
        params = inspect.signature(check_classical).parameters
        defaults = {k: v.default for k, v in params.items()}
        assert defaults == {
            "lams": (0.5, -0.5, 0.1, -0.1),
            "amplitudes": (0.5, 1.0),
            "n_periods": 100,
            "steps_per_period": 10_000,
        }

    def test_default_cli_trajectory(self, capsys):
        # lam = 0.5, A = 1, 3 periods at 10,000 steps, every 10th sampled
        assert main(["classical"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,x,v,E"
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert len(rows) == 3001
        orbit = OrbitParams.from_amplitude(1.0, 1.0, 0.5, phase=math.pi / 2)
        e0 = rows[0][3]
        for t, x, _v, e in rows:
            exact = orbit.amplitude * math.sin(orbit.omega * t + orbit.phase)
            assert abs(x - exact) <= 1e-4 * orbit.amplitude
            assert abs(e - e0) <= 1e-6 * e0

    def test_subnormal_cli_trajectory_is_the_harmonic_one(self, capsys):
        # -1e-320 used to end in a ZeroDivisionError traceback
        assert main(["classical", "--lambda", "0"]) == 0
        harmonic = capsys.readouterr()
        assert main(["classical", "--lambda", "-1e-320"]) == 0
        assert capsys.readouterr() == harmonic


class TestPooledProbes:
    """check_classical maps its probes over forked workers, one per CPU."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def _count_forks(monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    def test_pool_matches_in_process_records(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        serial = check_classical(n_periods=3)
        self._cpus(monkeypatch, 2)
        forks = self._count_forks(monkeypatch)
        pooled = check_classical(n_periods=3)
        assert len(forks) == 2
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
        assert len(pooled) == 16

    def test_one_cpu_starts_no_process(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        forks = self._count_forks(monkeypatch)
        assert len(check_classical(n_periods=3)) == 16
        assert forks == []

    def test_wall_exit_reaches_the_caller(self, monkeypatch):
        # the first probe leaves the domain in a worker; the error comes
        # back with its time, and its message is not formatted twice
        self._cpus(monkeypatch, 2)
        with pytest.raises(DomainExitError) as err:
            check_classical(lams=(-0.5,), amplitudes=(1.4, 0.5), n_periods=2,
                            steps_per_period=4)
        assert err.value.time == 0.222144146907919
        assert str(err.value) == (
            "trajectory left the domain at t = 0.222144146907919")

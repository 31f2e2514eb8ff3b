"""Seeded stream fuzz: no corrupted event ends a run, and each drop is counted.

Clean simulated streams get zero quaternions, 1e2-1e6 m position offsets,
NaN fields, duplicated samples and samples 5 ms late injected at random.
Every variant must fuse the whole stream without raising, count exactly
the injected non-finite and late samples under their reasons, refuse at
least every zero quaternion, and keep its state and covariance finite.
"""

import dataclasses

import numpy as np
import pytest

from corfuse import experiments, sim
from corfuse.eskf import VARIANTS, OdometrySample

ODOM_FAULTS = ("zero_quaternion", "offset", "non_finite", "duplicate", "late")
IMU_FAULTS = ("non_finite", "duplicate", "late")


def with_nan(event, rng):
    fields = [f.name for f in dataclasses.fields(event)
              if f.name not in ("sensor_id", "time")]
    name = str(rng.choice(fields + ["time"]))
    if name == "time":
        return dataclasses.replace(event, time=np.nan)
    value = np.array(getattr(event, name), dtype=float)
    value[rng.integers(value.size)] = np.nan
    return dataclasses.replace(event, **{name: value})


def corrupt(events, rng, odom_rate=0.15, imu_rate=0.02):
    """The stream with faults injected, and the count of each fault kind."""
    counts = dict.fromkeys(ODOM_FAULTS, 0)
    out = []
    for event in events:
        is_odom = isinstance(event, OdometrySample)
        if rng.random() >= (odom_rate if is_odom else imu_rate):
            out.append(event)
            continue
        kind = str(rng.choice(ODOM_FAULTS if is_odom else IMU_FAULTS))
        counts[kind] += 1
        if kind == "zero_quaternion":
            out.append(dataclasses.replace(event, orientation=np.zeros(4)))
        elif kind == "offset":
            direction = rng.standard_normal(3)
            offset = 10.0 ** rng.uniform(2, 6) * direction / np.linalg.norm(direction)
            out.append(dataclasses.replace(event, position=event.position + offset))
        elif kind == "non_finite":
            out.append(with_nan(event, rng))
        elif kind == "duplicate":
            out += [event, dataclasses.replace(event)]
        else:
            # Behind the clean event just fused, so beyond the clock's tolerance.
            out += [event, dataclasses.replace(event, time=event.time - 0.005)]
    return out, counts


@pytest.mark.parametrize("scenario,seed", [("hover", 1), ("hover", 2),
                                           ("figure8", 3), ("figure8", 4)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_corrupted_stream_never_raises_and_every_drop_is_counted(variant, scenario, seed):
    config = experiments.RunConfig(filter=variant, scenario=scenario, seed=seed,
                                   duration=4.0, sensors=2)
    spec = experiments.build_scenario(config)
    truth = sim.generate_truth(spec)
    events, counts = corrupt(sim.sample_sensors(truth, spec), np.random.default_rng(seed))
    assert counts["zero_quaternion"] and counts["late"] and counts["non_finite"]
    engine = experiments.build_engine(config, [s.sensor_id for s in spec.sensors])
    engine.initialize(truth.state(0), config.p0)
    for event in events:
        engine.process(event)
        state = engine.state
        assert np.isfinite(np.concatenate([state.position, state.velocity,
                                           state.orientation])).all()
        assert np.isfinite(engine.covariance).all()
    assert engine.dropped["non_finite"] == counts["non_finite"]
    assert engine.dropped["out_of_order"] == counts["late"]
    assert engine.dropped["rejected"] >= counts["zero_quaternion"]

"""Sliding-window smoother, noise recursions and the adapter's snapshots.

The backward pass and both window statistics are checked against a fully
hand-computed three-step scalar filter, then against Monte Carlo
expectations on a matched linear-Gaussian system where the statistics
must average to the true noise values.

The window smooths corrections: each snapshot carries delta_j, the filtered
mean after minus before its correction, and the pass returns
d_j = x_j|k - s_j.  The references (``re_solving_smoother``,
``two_loop_statistics``) stay in mean form, on the frame of filtered means
that ``filter_frame`` rebuilds from the deltas with x_j|j-1 = F_j s_j-1.
"""

import logging
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from corfuse import adapt_vb
from corfuse.adapt_residual import DIAG_FLOOR
from corfuse.adapt_vb import (SmootherWindow, VbNoiseAdapter, WindowSnapshot,
                              _ascending_sum, backward_smooth, window_statistics)
from corfuse.errors import AdaptationNotReady
from corfuse.experiments import RunConfig, run_experiment
from corfuse.filter_core import CorrentropyWeights, InnovationRecord
from corfuse.linalg import floor_diagonal, psd_project, symmetrize

UNIT = CorrentropyWeights(unweighted=np.array([1.0]), weighted=np.array([1.0]))


def scalar_snapshot(delta, cov, cov_pred, residual,
                    trans=1.0, steps=1.0, sensor="s", weights=UNIT):
    record = InnovationRecord(
        innovation=np.array([residual]), residual=np.array([residual]),
        cov_pred=np.array([[cov_pred]]), cov_post=np.array([[cov]]), gain=np.zeros((1, 1)),
        weights=weights)
    return WindowSnapshot(
        record=record, delta=np.array([delta]), transition=np.array([[trans]]),
        steps=steps, sensor_id=sensor)


def hand_filtered_window():
    """Three corrections of the scalar system q=0.5, r=1, worked by hand.

    z = (1, 0, 0.25) from m0=0, P0=1 gives gains of one half throughout,
    filtered means (0.5, 0.25, 0.25) and covariances (0.5, 0.5, 0.5) with
    predicted covariances (1, 1, 1), so corrections (0.5, -0.25, 0).
    """
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.5, 0.5, 1.0, residual=0.5))
    window.push(scalar_snapshot(-0.25, 0.5, 1.0, residual=-0.25))
    window.push(scalar_snapshot(0.0, 0.5, 1.0, residual=0.0))
    return window


def test_backward_pass_matches_hand_computation():
    window = hand_filtered_window()
    corrections, covs = backward_smooth(window)
    # smoothed means (0.375, 0.25, 0.25) less the filtered (0.5, 0.25, 0.25)
    np.testing.assert_allclose(corrections[:, 0], [-0.125, 0.0, 0.0])
    np.testing.assert_allclose([c[0, 0] for c in covs],
                               [0.34375, 0.375, 0.5])
    gains = [s.gain for s in window.snapshots[1:]]
    np.testing.assert_allclose([g[0, 0] for g in gains], [0.5, 0.5])
    # lag-one cross-covariances P_j-1,j|k = G_j-1 P_j|k
    np.testing.assert_allclose([(g @ c)[0, 0] for g, c in zip(gains, covs[1:])],
                               [0.1875, 0.25])


def test_process_statistic_matches_hand_computation():
    window = hand_filtered_window()
    total, steps, _ = window_statistics(window, *backward_smooth(window))
    assert steps == [1.0, 1.0]
    assert total[0, 0] == pytest.approx(0.734375)


def test_measurement_statistic_matches_hand_computation():
    window = hand_filtered_window()
    total, count = window_statistics(window, *backward_smooth(window))[2]["s"]
    assert count == 3
    assert total[0, 0] == pytest.approx(1.671875)


def test_single_snapshot_smooths_to_filtered_values():
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.5, 0.25, 0.5, residual=0.1))
    corrections, covs = backward_smooth(window)
    assert corrections[0][0] == 0.0
    assert covs[0][0, 0] == pytest.approx(0.25)
    assert window.snapshots[0].gain is None


def test_empty_window_raises():
    with pytest.raises(AdaptationNotReady):
        backward_smooth(SmootherWindow(length=5))


def test_process_statistic_needs_a_transition():
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    adapter.push(scalar_snapshot(1.0, 0.5, 1.0, residual=0.0))
    total, steps, _ = window_statistics(adapter.window, *backward_smooth(adapter.window))
    assert steps == [] and total[0, 0] == 0.0
    with pytest.raises(AdaptationNotReady):
        adapter.refresh()


def test_same_instant_corrections_carry_no_process_evidence():
    """Two corrections at one timestamp form an exact identity transition.

    The smoother treats the pair as a single instant (gain one, equal
    smoothed moments) and the statistic must skip it rather than count a
    zero into the average.  Equal smoothed means make the first smoothed
    correction the second snapshot's delta.
    """
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(-0.2, 0.4, 0.6, residual=0.1))
    window.push(scalar_snapshot(-0.1, 0.3, 0.4, residual=0.0, steps=0.0))
    corrections, covs = backward_smooth(window)
    np.testing.assert_array_equal(window.snapshots[1].gain, np.eye(1))
    np.testing.assert_array_equal(corrections, [[-0.1], [0.0]])
    total, steps, _ = window_statistics(window, corrections, covs)
    assert steps == []
    assert total[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_zero_step_snapshot_with_another_prior_still_solves_its_gain():
    """Only an unchanged prior covariance makes a zero-step transition same-instant."""
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(-0.2, 0.4, 0.6, residual=0.1))
    window.push(scalar_snapshot(-0.1, 0.3, 0.6, residual=0.0, steps=0.0))
    snap = window.snapshots[1]
    solved = cho_solve(cho_factor(snap.record.cov_pred, lower=True),
                       snap.transition @ window.snapshots[0].record.cov_post).T
    np.testing.assert_array_equal(snap.gain, solved)
    assert snap.gain.flags.writeable
    assert_smoothed_means(backward_smooth(window)[0], re_solving_smoother(window.snapshots))


def spy_on_projection(monkeypatch):
    """Record every matrix ``window_statistics`` hands to ``psd_project``."""
    calls = []
    monkeypatch.setattr(adapt_vb, "psd_project", lambda a: calls.append(a) or psd_project(a))
    return calls


def test_certified_process_sum_has_the_bits_of_its_projection(monkeypatch):
    """A sum Cholesky accepts is returned without eigh, as psd_project returns it."""
    window = SmootherWindow(length=10)
    for fields in random_snapshot_data(np.random.default_rng(5), 11):
        window.push(snapshot_from(fields))
    corrections, covs = backward_smooth(window)
    calls = spy_on_projection(monkeypatch)
    certified, steps, _ = window_statistics(window, corrections, covs)
    assert steps and calls == []
    monkeypatch.setattr(adapt_vb, "dpotrf", lambda a, lower: (a, 1))  # refuse every certificate
    projected, _, _ = window_statistics(window, corrections, covs)
    assert len(calls) == 1
    np.testing.assert_array_equal(certified, projected)


def two_state_snapshot(delta, cov, cov_pred, steps=1.0):
    """Two uncoupled scalar states, each observed."""
    weights = CorrentropyWeights(unweighted=np.ones(2), weighted=np.ones(2))
    record = InnovationRecord(
        innovation=np.zeros(2), residual=np.zeros(2), cov_pred=np.diag(cov_pred),
        cov_post=np.diag(cov), gain=np.zeros((2, 2)), weights=weights)
    return WindowSnapshot(record=record, delta=np.array(delta), transition=np.eye(2),
                          steps=steps)


def test_indefinite_process_sum_is_still_clipped(monkeypatch):
    """A prior tighter than the previous posterior makes the second state's term negative.

    State 1 is consistent (P- = 2 > P+ = 1): gain 1/2, D = 1/2, B = 1/2 and
    O = 1/4 * 1/2 + 1/2 > 0.  State 2 is not (P- = 1/2 < P+ = 1): gain 2,
    D = -1, B = -1 and O = 1/10 - 1 < 0.  The sum fails the certificate and
    is projected, clipping the negative eigenvalue to zero.
    """
    window = SmootherWindow(length=4)
    window.push(two_state_snapshot([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]))
    window.push(two_state_snapshot([0.0, 0.0], [0.5, 0.1], [2.0, 0.5]))
    calls = spy_on_projection(monkeypatch)
    total, steps, _ = window_statistics(window, *backward_smooth(window))
    assert steps == [1.0] and len(calls) == 1
    np.testing.assert_allclose(np.diag(calls[0]), [0.625, -0.9], rtol=1e-12)
    np.testing.assert_array_equal(total, psd_project(calls[0]))
    np.testing.assert_allclose(total, np.diag([0.625, 0.0]), rtol=0, atol=1e-15)


def test_window_of_same_instant_transitions_factorizes_nothing(monkeypatch):
    """Without a moving transition the process sum is zero, with no eigh or Cholesky."""
    window = SmootherWindow(length=4)
    window.push(scalar_snapshot(-0.2, 0.4, 0.6, residual=0.1))
    for _ in range(3):
        window.push(scalar_snapshot(0.0, 0.4, 0.4, residual=0.0, steps=0.0))

    def refuse(*args, **kwargs):
        raise AssertionError("factorized a zero process sum")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(adapt_vb, "dpotrf", refuse)
    total, steps, by_sensor = window_statistics(window, *backward_smooth(window))
    assert steps == [] and list(by_sensor) == ["s"]
    np.testing.assert_array_equal(total, np.zeros((1, 1)))


def test_engine_window_shares_one_identity_gain_across_same_instant_snapshots():
    """Three sensors at one rate: most transitions are same-instant row copies."""
    engine = run_experiment(RunConfig(scenario="hover", filter="vb-amcckf", sensors=3,
                                      odom_rate=20.0, window=20, duration=2.0, seed=3)).engine
    window = engine._adapter.window
    assert len(window) == 21
    snaps = window.snapshots[1:]
    instant = [snap for snap in snaps if snap.steps == 0.0]
    assert 10 <= len(instant) < len(snaps)
    shared = instant[0].gain
    np.testing.assert_array_equal(shared, np.eye(9))
    assert not shared.flags.writeable
    for snap in snaps:
        assert (snap.gain is shared) == (snap.steps == 0.0)
        if snap.steps == 0.0:
            assert snap.conditional_cov is instant[0].conditional_cov
            np.testing.assert_array_equal(snap.conditional_cov, np.zeros((9, 9)))
    corrections, covs = backward_smooth(window)
    reference = re_solving_smoother(window.snapshots)
    assert_smoothed_means(corrections, reference)
    np.testing.assert_allclose(covs, reference.covs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(40, 1, 1), (40, 2, 1, 1), (40, 1, 3, 3), (40, 3, 9, 9)])
def test_ascending_sum_adds_terms_in_order(shape):
    """Bit for bit the left-to-right loop, also on 1x1 blocks that np.add.reduce pairs up."""
    rng = np.random.default_rng(13)
    terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    want = terms[0]
    for term in terms[1:]:
        want = want + term
    np.testing.assert_array_equal(_ascending_sum(terms), want)


def test_window_length_bounds_buffer():
    window = SmootherWindow(length=3)
    for k in range(10):
        window.push(scalar_snapshot(float(k), 0.5, 1.0, residual=0.0))
    assert len(window) == 4  # length transitions need length + 1 snapshots
    assert window.snapshots[0].delta[0] == 6.0


def filter_frame(snaps, start=None):
    """The filtered means (priors, states) the deltas imply: x_j|j-1 = F_j s_j-1.

    The first prior is ``start`` (default zero).  The smoothed corrections
    do not depend on it.
    """
    prior = np.zeros(snaps[0].delta.shape[0]) if start is None else start
    priors, states = [], []
    for snap in snaps:
        if states:
            prior = snap.transition @ states[-1]
        priors.append(prior)
        states.append(prior + snap.delta)
    return priors, states


class Reference(NamedTuple):
    states: list
    means: list
    covs: list
    gains: list
    crosses: list


def re_solving_smoother(snaps, start=None):
    """The mean-form RTS pass solving every gain afresh from the buffered snapshots."""
    priors, states = filter_frame(snaps, start)
    count = len(snaps)
    means, covs = [None] * count, [None] * count
    gains, crosses = [None] * (count - 1), [None] * (count - 1)
    means[-1] = states[-1].copy()
    covs[-1] = snaps[-1].record.cov_post.copy()
    for j in range(count - 1, 0, -1):
        prev, cur = snaps[j - 1], snaps[j]
        cov_prev, cov_pred = prev.record.cov_post, cur.record.cov_pred
        factor = cho_factor(cov_pred, lower=True, check_finite=False)
        gain = cho_solve(factor, cur.transition @ cov_prev, check_finite=False).T
        means[j - 1] = states[j - 1] + gain @ (means[j] - priors[j])
        covs[j - 1] = symmetrize(cov_prev + gain @ (covs[j] - cov_pred) @ gain.T)
        gains[j - 1] = gain
        crosses[j - 1] = gain @ covs[j]
    return Reference(states, means, covs, gains, crosses)


def assert_smoothed_means(corrections, reference):
    """The smoothed means s_j + d_j match the mean-form reference to rtol 1e-12."""
    np.testing.assert_allclose(np.array(reference.states) + corrections,
                               reference.means, rtol=1e-12, atol=0)


def two_loop_statistics(snaps, reference):
    """The window statistics as separate process, measurement and step passes.

    ``reference`` is ``re_solving_smoother``'s output; the process statistic
    takes the lag-one cross-covariances from it.  The measurement statistic
    is written for a general H, here a writable identity.
    """
    states, means, covs, _, crosses = reference
    dim = snaps[0].delta.shape[0]
    total = np.zeros((dim, dim))
    count = 0
    for j in range(1, len(snaps)):
        if snaps[j].steps <= 0.0:
            continue
        trans = snaps[j].transition
        cross = crosses[j - 1]
        tilde = means[j] - trans @ means[j - 1]
        term = (covs[j] - trans @ cross - cross.T @ trans.T
                + trans @ covs[j - 1] @ trans.T + np.outer(tilde, tilde))
        total += term
        count += 1
    process = psd_project(total)

    h = np.eye(dim)
    totals, counts = {}, {}
    for j, snap in enumerate(snaps):
        sid = snap.sensor_id
        if sid not in totals:
            totals[sid] = np.zeros((dim, dim))
            counts[sid] = 0
        residual = snap.record.residual + h @ (states[j] - means[j])
        weighted = snap.record.weights.unweighted * residual
        totals[sid] += np.outer(weighted, weighted) + h @ covs[j] @ h.T
        counts[sid] += 1
    measurement = {sid: (symmetrize(t), counts[sid]) for sid, t in totals.items()}

    steps = [snap.steps for snap in snaps[1:] if snap.steps > 0.0]
    return process, count, measurement, float(np.mean(steps)) if steps else 1.0


def random_spd9(rng):
    a = rng.standard_normal((9, 9))
    # exactly symmetric, as filter_core returns every covariance
    return symmetrize(a @ a.T + 9.0 * np.eye(9) + 1e-9 * rng.standard_normal((9, 9)))


def test_gains_cached_at_push_match_re_solving_smoother_bitwise():
    """Gains match the re-solving pass bit for bit.

    The smoothed corrections and covariances and the process statistic use
    terms fixed at push, a regrouping of the reference algebra, so they and
    everything built on them agree to round-off only.  The reference runs on
    the filtered means of the whole stream, from a random first prior.
    """
    rng = np.random.default_rng(41)
    window = SmootherWindow(length=4)
    start = 5.0 * rng.standard_normal(9)
    pushed = []
    for k in range(9):  # evicts from the sixth push on
        instant = k == 5  # a second correction at the same instant
        delta = rng.standard_normal(9)
        cov = random_spd9(rng)
        trans = np.eye(9) if instant else np.eye(9) + 0.1 * rng.standard_normal((9, 9))
        residual = rng.standard_normal(9)
        record = InnovationRecord(
            innovation=residual, residual=residual, cov_pred=random_spd9(rng), cov_post=cov,
            gain=np.zeros((9, 9)),
            weights=CorrentropyWeights(unweighted=rng.uniform(0.1, 1.0, 9),
                                       weighted=np.ones(9)))
        pushed.append(WindowSnapshot(
            record=record, delta=delta, transition=trans,
            steps=0.0 if instant else 1.0 + k, sensor_id="ab"[k % 2]))
        window.push(pushed[-1])
        if len(window) < 2:
            continue
        corrections, covs = backward_smooth(window)
        priors, _ = filter_frame(pushed, start)
        reference = re_solving_smoother(window.snapshots, priors[-len(window)])
        gains = [snap.gain for snap in window.snapshots[1:]]
        assert len(gains) == len(reference.gains)
        for got, want in zip(gains, reference.gains):
            np.testing.assert_array_equal(got, want)
        assert_smoothed_means(corrections, reference)
        np.testing.assert_allclose(covs, reference.covs, rtol=1e-12, atol=0)

        process, steps, by_sensor = window_statistics(window, corrections, covs)
        want_process, want_count, want_by_sensor, want_mean = two_loop_statistics(
            window.snapshots, reference)
        np.testing.assert_allclose(process, want_process, rtol=1e-12, atol=0)
        assert len(steps) == want_count
        assert (float(np.mean(steps)) if steps else 1.0) == want_mean
        assert list(by_sensor) == list(want_by_sensor)
        for sid, (total, count) in by_sensor.items():
            np.testing.assert_allclose(total, want_by_sensor[sid][0], rtol=1e-12, atol=0)
            assert count == want_by_sensor[sid][1]
    assert len(window) == 5


def random_snapshot_data(rng, count):
    """Field values of ``count`` 9-state snapshots; sensors alternate."""
    data = []
    for k in range(count):
        instant = k % 3 == 2  # a second correction at the same instant
        residual = rng.standard_normal(9)
        data.append(dict(
            residual=residual, cov_pred=random_spd9(rng), cov_post=random_spd9(rng),
            weights=rng.uniform(0.1, 1.0, 9), delta=rng.standard_normal(9),
            trans=np.eye(9) if instant else np.eye(9) + 0.1 * rng.standard_normal((9, 9)),
            steps=0.0 if instant else 1.0 + k % 4, sensor="ab"[k % 2]))
    return data


def snapshot_from(fields):
    record = InnovationRecord(
        innovation=fields["residual"], residual=fields["residual"],
        cov_pred=fields["cov_pred"], cov_post=fields["cov_post"], gain=np.zeros((9, 9)),
        weights=CorrentropyWeights(unweighted=fields["weights"], weighted=np.ones(9)))
    return WindowSnapshot(
        record=record, delta=fields["delta"], transition=fields["trans"],
        steps=fields["steps"], sensor_id=fields["sensor"])


@pytest.mark.parametrize("pushes", range(5, 17))
def test_evicting_window_matches_a_fresh_window_of_its_snapshots_bitwise(pushes):
    """The buffers hold exactly what pushing only the kept snapshots gives.

    At W = 4 the buffers have 10 rows and are compacted at the 11th push:
    5 to 16 pushes put the window at every start row, on both sides of a
    compaction.
    """
    data = random_snapshot_data(np.random.default_rng(77), pushes)
    rolled = VbNoiseAdapter(state_dim=9, window=4)
    for fields in data:
        rolled.push(snapshot_from(fields))
    fresh = VbNoiseAdapter(state_dim=9, window=4)
    for fields in data[-5:]:
        fresh.push(snapshot_from(fields))
    assert len(rolled.window) == len(fresh.window) == 5

    got, want = backward_smooth(rolled.window), backward_smooth(fresh.window)
    np.testing.assert_array_equal(got[0], want[0])  # corrections
    np.testing.assert_array_equal(got[1], want[1])  # covariances
    got_stats = window_statistics(rolled.window, *got)
    want_stats = window_statistics(fresh.window, *want)
    np.testing.assert_array_equal(got_stats[0], want_stats[0])
    assert got_stats[1] == want_stats[1] and 0.0 not in got_stats[1]
    q, noise = rolled.refresh()
    want_q, want_noise = fresh.refresh()
    np.testing.assert_array_equal(q, want_q)
    assert list(noise) == list(want_noise) == ["ab"[(pushes - 5) % 2], "ab"[pushes % 2]]
    for sid in noise:
        np.testing.assert_array_equal(noise[sid], want_noise[sid])


def test_smoother_ridge_warning_is_logged_once_per_snapshot(caplog):
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    with caplog.at_level(logging.WARNING, logger="corfuse.adapt_vb"):
        adapter.push(scalar_snapshot(0.5, 0.5, 1.0, residual=0.1))
        adapter.push(scalar_snapshot(-0.25, 0.5, 0.0, residual=0.0, sensor="odo1"))
        for _ in range(3):
            adapter.refresh()
    assert [r.getMessage() for r in caplog.records] == [
        "smoother regularized a singular predicted covariance from sensor 'odo1'"]


def test_measurement_statistic_filters_by_sensor():
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.5, 0.5, 1.0, residual=0.5, sensor="a"))
    window.push(scalar_snapshot(-0.25, 0.5, 1.0, residual=-0.25, sensor="b"))
    window.push(scalar_snapshot(0.0, 0.5, 1.0, residual=0.0, sensor="a"))
    by_sensor = window_statistics(window, *backward_smooth(window))[2]
    assert list(by_sensor) == ["a", "b"]  # order of first appearance
    assert [count for _, count in by_sensor.values()] == [2, 1]
    # the same snapshots under one sensor id give the summed statistic
    merged = hand_filtered_window()
    total, _ = window_statistics(merged, *backward_smooth(merged))[2]["s"]
    assert by_sensor["a"][0][0, 0] + by_sensor["b"][0][0, 0] == pytest.approx(total[0, 0])


def with_signed_zeros(rng, values, share):
    """``values`` with about ``share`` of its entries replaced by +0.0 or -0.0."""
    zeros = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)
    return np.where(rng.random(values.shape) < share, zeros, values)


def signed_zero_window(rng, sensors):
    """A random window of 1-11 pushes and the smoothed pair to pass with it.

    The corrections and covariances are unsymmetric, with exact +-0.0
    entries, as are some residuals and weights.  The last sensor's rows are all signed zeros when there are
    several sensors, and a third of the rows otherwise; covariance zero
    rows are -0.0 throughout.
    """
    window = SmootherWindow(length=5)
    for _ in range(rng.integers(1, 12)):
        weights = with_signed_zeros(rng, rng.uniform(0.1, 1.0, 9), 0.3)
        record = InnovationRecord(
            innovation=np.zeros(9),
            residual=with_signed_zeros(rng, rng.standard_normal(9), 0.3),
            cov_pred=random_spd9(rng), cov_post=random_spd9(rng), gain=np.zeros((9, 9)),
            weights=CorrentropyWeights(unweighted=weights, weighted=weights))
        window.push(WindowSnapshot(
            record=record, delta=rng.standard_normal(9),
            transition=np.eye(9) + 0.1 * rng.standard_normal((9, 9)),
            sensor_id=str(rng.choice(list(sensors)))))
    count = len(window)
    zero_rows = (np.array([snap.sensor_id == sensors[-1] for snap in window.snapshots])
                 if len(sensors) > 1 else rng.random(count) < 1 / 3)
    corrections = with_signed_zeros(rng, rng.standard_normal((count, 9)), 0.3)
    corrections[zero_rows] = with_signed_zeros(rng, corrections[zero_rows], 1.0)
    covs = with_signed_zeros(rng, rng.standard_normal((count, 9, 9)), 0.3)
    covs[zero_rows] = -0.0
    residuals = window.residuals[window.rows]
    residuals[zero_rows] = with_signed_zeros(rng, residuals[zero_rows], 1.0)
    return window, corrections, covs


def test_measurement_sums_are_in_order_python_sums_bit_for_bit():
    """Each sensor's sum is its terms added left to right, then symmetrized, sign bits included.

    The reference forms the terms one snapshot at a time.  Pushes past the
    window length put its rows anywhere in the buffers.
    """
    rng = np.random.default_rng(2024)
    negative_zeros = 0
    for case in range(36):
        window, corrections, covs = signed_zero_window(rng, "abc"[:1 + case // 3 % 3])
        terms: dict = {}
        for j, snap in enumerate(window.snapshots):
            weighted = snap.record.weights.unweighted * (
                window.residuals[window.rows][j] - corrections[j])
            terms.setdefault(snap.sensor_id, []).append(np.outer(weighted, weighted) + covs[j])
        want = {}
        for sid, sensor_terms in terms.items():
            total = sensor_terms[0]
            for term in sensor_terms[1:]:
                total = total + term
            want[sid] = (symmetrize(total), len(sensor_terms))

        got = window_statistics(window, corrections, covs)[2]
        assert list(got) == list(want)
        for sid, (total, count) in got.items():
            assert count == want[sid][1]
            np.testing.assert_array_equal(total, want[sid][0])
            np.testing.assert_array_equal(np.signbit(total), np.signbit(want[sid][0]))
            negative_zeros += int((np.signbit(total) & (total == 0.0)).sum())
    assert negative_zeros > 0  # the sign bits are tested on sums that are -0.0


def test_suppressed_channel_contributes_only_covariance_floor():
    weights = CorrentropyWeights(unweighted=np.array([0.0]),
                                 weighted=np.array([0.0]))
    window = SmootherWindow(length=10)
    window.push(scalar_snapshot(0.5, 0.5, 1.0, residual=7.0, weights=weights))
    corrections, covs = backward_smooth(window)
    total, count = window_statistics(window, corrections, covs)[2]["s"]
    assert count == 1
    assert total[0, 0] == pytest.approx(0.5)  # P alone, residual gated


def run_matched_scalar_filter(rng, steps, q_true, r_true):
    """Exact Kalman filter on x' = x + w, z = x + v with snapshots kept."""
    window = SmootherWindow(length=steps)
    x, m, p = 0.0, 0.0, 1.0
    for k in range(steps + 1):
        if k > 0:
            x += rng.normal(0.0, np.sqrt(q_true))
            m_prior, p_prior = m, p + q_true
        else:
            m_prior, p_prior = m, p
        z = x + rng.normal(0.0, np.sqrt(r_true))
        gain = p_prior / (p_prior + r_true)
        m = m_prior + gain * (z - m_prior)
        p = (1.0 - gain) ** 2 * p_prior + gain * r_true * gain
        window.push(scalar_snapshot(m - m_prior, p, p_prior, residual=z - m))
    return window


def test_statistics_average_to_true_noise_on_matched_filter():
    rng = np.random.default_rng(101)
    q_true, r_true = 0.05, 0.2
    o_vals, m_vals = [], []
    for _ in range(250):
        window = run_matched_scalar_filter(rng, 60, q_true, r_true)
        corrections, covs = backward_smooth(window)
        o_sum, steps, by_sensor = window_statistics(window, corrections, covs)
        m_sum, m_count = by_sensor["s"]
        o_vals.append(o_sum[0, 0] / len(steps))
        m_vals.append(m_sum[0, 0] / m_count)
    assert np.mean(o_vals) == pytest.approx(q_true, rel=0.05)
    assert np.mean(m_vals) == pytest.approx(r_true, rel=0.05)


# ---------------------------------------------------------------------------
# hyperparameter recursions


def full_window_adapter(window, forgetting):
    """Adapter holding ``window + 1`` snapshots, so ``window`` real transitions."""
    adapter = VbNoiseAdapter(state_dim=1, window=window,
                             forgetting=forgetting)
    for k in range(window + 1):
        adapter.push(scalar_snapshot(0.05, 0.5, 1.0, residual=0.2 * (-1) ** k))
    return adapter


def test_wishart_update_accumulates_and_discounts():
    n = 4
    adapter = full_window_adapter(n, forgetting=0.5)
    corrections, covs = backward_smooth(adapter.window)
    o_sum, steps, by_sensor = window_statistics(adapter.window, corrections, covs)
    m_sum, m_count = by_sensor["s"]
    assert (len(steps), m_count) == (n, n + 1)
    adapter.refresh()
    adapter.refresh()
    assert adapter.t == pytest.approx(0.5 * n + n)
    assert adapter.T[0, 0] == pytest.approx(0.5 * o_sum[0, 0] + o_sum[0, 0])
    b, big_b = adapter.measurement["s"]
    assert b == pytest.approx(0.5 * (n + 1) + (n + 1))
    assert big_b[0, 0] == pytest.approx(0.5 * m_sum[0, 0] + m_sum[0, 0])


def test_extract_noise_point_estimates_and_guard():
    fresh = VbNoiseAdapter(state_dim=1, window=4)
    with pytest.raises(AdaptationNotReady):
        fresh.refresh()
    adapter = full_window_adapter(4, forgetting=0.5)
    adapter.refresh()
    q, by_sensor = adapter.refresh()
    # point estimates Q = T / t (one step per transition) and R = B / b
    b, big_b = adapter.measurement["s"]
    assert q[0, 0] == pytest.approx(adapter.T[0, 0] / adapter.t)
    assert by_sensor["s"][0, 0] == pytest.approx(big_b[0, 0] / b)


def test_degrees_of_freedom_converge_to_geometric_limit():
    rho, n = 0.97, 10
    adapter = full_window_adapter(n, forgetting=rho)
    o_sum, _, _ = window_statistics(adapter.window, *backward_smooth(adapter.window))
    for _ in range(500):
        adapter.refresh()
    assert adapter.t == pytest.approx(n / (1.0 - rho), abs=0.01)
    b, _ = adapter.measurement["s"]
    assert b == pytest.approx((n + 1) / (1.0 - rho), abs=0.01)
    # the scale matrix converges to O / (1 - rho) for a constant summand
    np.testing.assert_allclose(adapter.T, o_sum / (1.0 - rho), rtol=1e-6)


# ---------------------------------------------------------------------------
# snapshots the adapter pushes


def scalar_record(residual=0.0):
    return InnovationRecord(
        innovation=np.array([residual]), residual=np.array([residual]),
        cov_pred=np.eye(1), cov_post=0.5 * np.eye(1), gain=0.5 * np.eye(1), weights=UNIT)


def test_adapter_pushes_each_delta_with_the_composed_transition():
    """Scalar case worked by hand: transitions compose, step counts add."""
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    record = scalar_record(residual=0.3)
    delta = np.array([1.0])
    adapter.correct("a", record, delta)
    first = adapter.window.snapshots[-1]
    assert first.delta is delta
    assert (first.transition[0, 0], first.steps) == (1.0, 0.0)

    adapter.advance(np.array([[2.0]]), 1.0)
    adapter.advance(np.array([[3.0]]), 0.5)
    adapter.correct("b", record, np.array([0.5]))
    second = adapter.window.snapshots[-1]
    assert second.delta[0] == 0.5
    assert second.transition[0, 0] == 6.0
    assert second.steps == 1.5
    assert second.sensor_id == "b"
    # the snapshot keeps the record itself, covariances included
    assert second.record is record

    # the pending transition and step count restart after each correction
    adapter.correct("b", record, np.array([0.0]))
    third = adapter.window.snapshots[-1]
    assert (third.transition[0, 0], third.steps) == (1.0, 0.0)
    assert third.delta[0] == 0.0


# ---------------------------------------------------------------------------
# adapter wrapper


def test_adapter_reports_not_ready_until_two_snapshots():
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    adapter.push(scalar_snapshot(0.5, 0.5, 1.0, residual=0.1))
    with pytest.raises(AdaptationNotReady):
        adapter.refresh()


def test_adapter_withholds_process_estimate_without_real_transitions():
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    adapter.push(scalar_snapshot(-0.2, 0.4, 0.6, residual=0.1))
    adapter.push(scalar_snapshot(-0.1, 0.3, 0.4, residual=0.0, steps=0.0))
    q, by_sensor = adapter.refresh()
    assert q is None
    assert "s" in by_sensor  # measurement evidence still flows


def test_adapter_tracks_measurement_noise_per_sensor():
    adapter = VbNoiseAdapter(state_dim=1, window=8, forgetting=0.9)
    rng = np.random.default_rng(55)
    for k in range(40):
        sensor = "a" if k % 2 == 0 else "b"
        resid = rng.normal(0.0, 0.1 if sensor == "a" else 1.0)
        adapter.push(scalar_snapshot(0.0, 1e-6, 1e-6, residual=resid, sensor=sensor))
    _, by_sensor = adapter.refresh()
    assert set(by_sensor) == {"a", "b"}
    assert by_sensor["b"][0, 0] > by_sensor["a"][0, 0]


def test_adapter_mean_steps_ignores_instant_transitions():
    adapter = VbNoiseAdapter(state_dim=1, window=5)
    adapter.push(scalar_snapshot(0.0, 0.5, 1.0, 0.0, steps=1.0))
    adapter.push(scalar_snapshot(0.0, 0.5, 1.0, 0.0, steps=4.0))
    adapter.push(scalar_snapshot(0.0, 0.5, 1.0, 0.0, steps=0.0))
    adapter.push(scalar_snapshot(0.0, 0.5, 1.0, 0.0, steps=6.0))
    _, steps, _ = window_statistics(adapter.window, *backward_smooth(adapter.window))
    assert steps == [4.0, 6.0]
    q_step, _ = adapter.refresh()
    np.testing.assert_array_equal(q_step, floor_diagonal(adapter.T / adapter.t / 5.0, DIAG_FLOOR))


def test_closed_loop_measurement_noise_identification():
    """R starts 100x small and must climb to the true value in the loop."""
    rng = np.random.default_rng(7)
    q_true, r_true = 0.1, 1.0
    adapter = VbNoiseAdapter(state_dim=1, window=10, forgetting=0.97)
    x, m, p = 0.0, 0.0, 1.0
    r_hat = 0.01
    history = []
    for k in range(800):
        x += rng.normal(0.0, np.sqrt(q_true))
        m_prior, p_prior = m, p + q_true
        z = x + rng.normal(0.0, np.sqrt(r_true))
        gain = p_prior / (p_prior + r_hat)
        m = m_prior + gain * (z - m_prior)
        p = (1.0 - gain) ** 2 * p_prior + gain * r_hat * gain
        adapter.push(scalar_snapshot(m - m_prior, p, p_prior, residual=z - m))
        try:
            _, by_sensor = adapter.refresh()
            r_hat = by_sensor["s"][0, 0]
        except AdaptationNotReady:
            pass
        history.append(r_hat)
    assert 0.7 < np.mean(history[-100:]) < 1.4


@pytest.mark.parametrize("window", [0, adapt_vb.MAX_WINDOW + 1])
def test_adapter_refuses_a_window_outside_its_bounds(window):
    VbNoiseAdapter(state_dim=9, window=adapt_vb.MAX_WINDOW)  # buffers wait for a push
    with pytest.raises(ValueError, match=r"window must lie in \[1, 10000\]"):
        VbNoiseAdapter(state_dim=9, window=window)

"""The block replicate path against the public one-sample functions.

Both run the same row kernels, on a block of replicates or on one, so
every row, tied or not, must equal the one-sample results exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
import scalar_oracle as oracle

from rmtlkit import DegenerateTestError, gray_test, rmtld_test, scenarios, select_tau, simulate
from rmtlkit.inference import _rejects
from rmtlkit.scenarios import CENSOR_TARGETS, SCENARIO_IDS, generate_group, scenario
from rmtlkit.simulate import _FIELDS, _map_replicates, _replicate_block

REPS = 200
SEED = 4242

# per study mode, the arm sizes (None: the scenario's) and the keyword
# arguments the study functions pass
MODES = {
    "power": (None, {}),
    "estimation": (None, {"fixed_tau": 4.0}),
    "pilot": ((17, 29), {"phase": simulate._PHASE_PILOT}),
}


def scalar_replicate(spec, i, phase=0, fixed_tau=None):
    """Replicate ``i`` through the public one-sample functions: None when
    the follow-up ends before ``fixed_tau``, else ``(rmtld, gray)``, with
    Gray's test where a block runs it (min-max tau, not the pilot)."""
    rng = oracle.rng_for(SEED, phase, i)
    s0 = generate_group(spec, 0, spec.n0, rng)
    s1 = generate_group(spec, 1, spec.n1, rng)
    gray = fixed_tau is None and phase != simulate._PHASE_PILOT
    tau = select_tau(s0, s1)
    if fixed_tau is not None:
        if tau < fixed_tau:
            return None
        tau = fixed_tau
    res = rmtld_test(s0, s1, tau, alpha=simulate.ALPHA)
    return res, gray_test(s0, s1, cause=1) if gray else None


def scalar_rows(spec, indices, options):
    """The block fields of each replicate from the one-sample functions,
    and their p-values: ``(fields, {"p": ..., "gray_p": ...})``."""
    rows, pvalues = [], []
    for i in indices:
        outcome = scalar_replicate(spec, i, **options)
        if outcome is None:
            rows.append({**dict.fromkeys(_FIELDS, np.nan), "unusable": True})
            pvalues.append({"p": np.nan, "gray_p": np.nan})
            continue
        res, gray = outcome
        rows.append({
            "tau": res.tau, "delta": res.delta, "variance": res.variance,
            "var0": res.group0.variance, "var1": res.group1.variance,
            "ci_low": res.ci_low, "ci_high": res.ci_high, "z": res.z,
            "gray_stat": np.nan if gray is None else gray.statistic, "unusable": False,
        })
        pvalues.append({"p": res.p, "gray_p": np.nan if gray is None else gray.p})
    return tuple(
        {name: np.array([row[name] for row in table]) for name in table[0]}
        for table in (rows, pvalues)
    )


def assert_rows_equal(got, want):
    assert set(got) == set(want) == {*_FIELDS, "unusable"}
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_block_matches_scalar(sid):
    for cr in CENSOR_TARGETS:
        spec = scenario(sid, 20, 24, cr)
        for mode, (sizes, options) in MODES.items():
            cell = spec if sizes is None else replace(spec, n0=sizes[0], n1=sizes[1])
            got = _map_replicates(cell, SEED, REPS, None, **options)
            want, pvalues = scalar_rows(cell, range(REPS), options)
            assert_rows_equal(got, want)
            assert np.array_equal(_rejects(got["z"], 0.05), pvalues["p"] < 0.05)
            if mode == "power":
                assert np.array_equal(
                    _rejects(got["gray_stat"], 0.05, gray=True), pvalues["gray_p"] < 0.05
                )
            if mode == "estimation" and sid == "A" and cr == 45:
                # the uniform censoring bound sits below tau = 4 here
                assert got["unusable"].all()


def test_block_size_invariance(monkeypatch):
    spec = scenario("E", 40, 30, 15)
    runs = []
    for rows in (1, 7, 32, 75):
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", rows * (spec.n0 + spec.n1))
        runs.append(_map_replicates(spec, SEED, 75, None))
    # the even split cuts 75 reps into 25-row blocks at a 32-row budget, so
    # 32-row blocks are composed here
    blocks = [_replicate_block(spec, SEED, range(k, min(k + 32, 75))) for k in (0, 32, 64)]
    runs.append({name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]})
    # another composition: scattered indices in one block
    shuffled = np.random.default_rng(0).permutation(75)
    block = _replicate_block(spec, SEED, shuffled.tolist())
    runs.append({name: values[np.argsort(shuffled)] for name, values in block.items()})
    for other in runs[1:]:
        for name in runs[0]:
            assert runs[0][name].tobytes() == other[name].tobytes(), name


@pytest.mark.parametrize("decimals", [3, 0])
def test_tied_rows_match_the_scalar_path(monkeypatch, decimals):
    observe = scenarios._observe

    def rounded(*args):
        time, event = observe(*args)
        return np.round(time, decimals), event

    # every arm, block or one-row, is drawn through this one transform
    monkeypatch.setattr(scenarios, "_observe", rounded)
    spec = scenario("C", 25, 25, 30)

    def has_tie(i):
        rng = oracle.rng_for(SEED, 0, i)
        pooled = np.concatenate([generate_group(spec, g, 25, rng).time for g in (0, 1)])
        return np.unique(pooled).size < pooled.size

    tied = sum(has_tie(i) for i in range(60))
    # to 3 decimals some rows tie and some do not; to 0 decimals all do
    assert 0 < tied < 60 if decimals == 3 else tied == 60
    got = _map_replicates(spec, SEED, 60, None)
    assert_rows_equal(got, scalar_rows(spec, range(60), {})[0])


def test_gray_runs_at_the_min_max_tau_outside_the_pilot():
    # studies read Gray's test from main- and power-phase blocks only;
    # pilot and fixed-tau blocks skip it and leave gray_stat NaN
    spec = scenario("C", 30, 30, 15)
    for phase in (simulate._PHASE_MAIN, simulate._PHASE_PILOT, simulate._PHASE_POWER):
        for fixed_tau in (None, 1.0):
            block = _replicate_block(spec, SEED, range(8), phase, fixed_tau)
            assert not block["unusable"].any() and np.isfinite(block["z"]).all()
            skipped = fixed_tau is not None or phase == simulate._PHASE_PILOT
            assert np.isnan(block["gray_stat"]).all() == skipped
            assert np.isfinite(block["gray_stat"]).all() != skipped


@pytest.mark.parametrize("gray", [True, False])
def test_degenerate_row_raises_the_scalar_error(gray):
    # p1 -> 0: no cause-1 event in either arm, so the test is undefined
    spec = scenario("A", 6, 6, 0, p1=1e-12)
    # Gray's test runs outside the pilot phase only
    phase = simulate._PHASE_MAIN if gray else simulate._PHASE_PILOT
    with pytest.raises(DegenerateTestError) as scalar:
        scalar_replicate(spec, 3, phase=phase)
    with pytest.raises(DegenerateTestError) as block:
        _replicate_block(spec, SEED, [1, 3], phase=phase)
    assert str(block.value) == str(scalar.value)


def test_block_draw_keeps_the_substream_layout(monkeypatch):
    # the subjects a block hands the kernel, and the state the block's
    # generator is left in after each row's fill, match per-row
    # generate_group (control arm first) on numpy's own substream
    # generator and the substream contract, bit for bit
    drawn, filled = [], []

    def kernel(t, e, n0, tau, alpha, gray, usable):
        drawn.append((t.copy(), e.copy()))
        return dict.fromkeys(_FIELDS, np.zeros(len(t)))

    class Recording(np.random.Generator):
        def random(self, *args, **kwargs):
            out = super().random(*args, **kwargs)
            filled.append(self.bit_generator.state)
            return out

    monkeypatch.setattr(simulate, "_rmtld_rows", kernel)
    monkeypatch.setattr(np.random, "Generator", Recording)
    n0, n1 = 37, 29
    shuffled = np.random.default_rng(3).permutation(40)[:13].tolist()
    for sid in SCENARIO_IDS:
        for cr in CENSOR_TARGETS:
            spec = scenario(sid, n0, n1, cr)
            for indices in ([11], shuffled):
                drawn.clear()
                filled.clear()
                _replicate_block(spec, SEED, indices, phase=simulate._PHASE_POWER)
                (t, e), = drawn
                assert len(filled) == len(indices)
                for r, i in enumerate(indices):
                    rng = oracle.rng_for(SEED, simulate._PHASE_POWER, i)
                    ref = oracle.rng_for(SEED, simulate._PHASE_POWER, i)
                    for g, cols in ((0, slice(0, n0)), (1, slice(n0, n0 + n1))):
                        sample = generate_group(spec, g, cols.stop - cols.start, rng)
                        want = oracle.substream_arm(spec, g, cols.stop - cols.start, ref)
                        for got in ((sample.time, sample.event), (t[r, cols], e[r, cols])):
                            assert got[0].tobytes() == want[0].tobytes(), (sid, cr, i, g)
                            assert got[1].tobytes() == want[1].tobytes(), (sid, cr, i, g)
                    state = ref.bit_generator.state
                    assert rng.bit_generator.state == state == filled[r]

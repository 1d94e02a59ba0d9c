"""Shared fixtures and the acceptance-criteria terminal summary."""

import numpy as np
import pytest

from mi_decode.dsp import PreprocessParams
from mi_decode.evaluate import FeatureConfig, train_decoder
from mi_decode.session import (
    ClassLabel,
    EventKind,
    EventMarker,
    Recording,
    SessionKind,
)
from mi_decode.synth import SynthSpec, generate_session

# Small study settings shared by the slower integration tests.  Two runs of
# six trials with a short feedback window keep full-pipeline fits under a
# second while preserving the real trial structure.
SMALL_KW = dict(n_runs=2, trials_per_run=6, feedback_s=2.0)
SMALL_FEATURES = FeatureConfig(mode="psd+pca", k=24)


def small_spec(seed: int, **overrides) -> SynthSpec:
    kw = dict(SMALL_KW)
    kw.update(overrides)
    return SynthSpec(seed=seed, **kw)


@pytest.fixture(scope="session")
def small_offline():
    return generate_session(small_spec(201), SessionKind.Offline)


@pytest.fixture(scope="session")
def small_online():
    return generate_session(small_spec(202), SessionKind.Online1)


@pytest.fixture(scope="session")
def small_decoder(small_offline):
    return train_decoder([small_offline], SMALL_FEATURES)


@pytest.fixture(scope="session")
def small_pca_decoder(small_offline):
    """Time-domain PCA at a small k: 6656 raw features folded into one score."""
    return train_decoder([small_offline], FeatureConfig(mode="pca", k=8))


@pytest.fixture(scope="session")
def small_psd_decoder(small_offline):
    """Welch features straight into LDA: no PCA stage to fold."""
    return train_decoder([small_offline], FeatureConfig(mode="psd"))


def pca_inverse_transform(t, Z):
    """Test oracle: k-component projections mapped back to raw rows."""
    return np.asarray(Z, dtype=np.float64) @ t.components + t.mean


def marker(sample_index: int, kind: EventKind, run_index: int = 0) -> EventMarker:
    return EventMarker(sample_index=sample_index, kind=kind, run_index=run_index)


def trial_events(start, label, feedback_n, run_index=0, cue_gap=8):
    """Cue / FeedbackStart / FeedbackEnd triple for one trial."""
    cue = EventKind.CueLeft if label is ClassLabel.Left else EventKind.CueRight
    return [
        marker(start, cue, run_index),
        marker(start + cue_gap, EventKind.FeedbackStart, run_index),
        marker(start + cue_gap + feedback_n, EventKind.FeedbackEnd, run_index),
    ]


def noise_recording(n_samples, n_channels, fs, events=(), seed=0):
    rng = np.random.default_rng(seed)
    return Recording(
        samples=rng.standard_normal((n_samples, n_channels)),
        fs=fs,
        channel_labels=tuple(f"ch{i}" for i in range(n_channels)),
        events=tuple(events),
    )


@pytest.fixture
def fast_params():
    # 0.25 s windows, 0.125 s step: cheap windowing for hand-built recordings.
    return PreprocessParams(win_len_s=0.25, step_s=0.125)


# --- acceptance summary -----------------------------------------------------

CRITERIA = {
    1: "band-pass magnitude response and zero-phase symmetry",
    2: "CAR zero-mean rows and 63 / 3780 window bookkeeping",
    3: "Welch 10 Hz peak bin and white-noise power level",
    4: "PCA variance capture, reconstruction monotonicity, deterministic refits",
    5: "LDA closed-form direction, separation accuracy, affine invariance",
    6: "evidence accumulator vs brute-force interpreter",
    7: "grid-search winner vs exhaustive re-evaluation",
    8: "end-to-end synthetic study (CV, shuffle, trial level, fine-tune)",
    9: "byte-identical reproduction reports",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for bucket in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(bucket, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            num = int(nodeid.split("test_criterion_")[1].split("_")[0])
            ok = bucket == "passed" and rep.when == "call"
            if num not in results or not ok:
                results[num] = ok
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {CRITERIA[num]}")

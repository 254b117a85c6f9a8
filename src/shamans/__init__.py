"""Alpha-stable spatial measure sound source localization toolkit."""

from .baselines import AngularSpectrum, music_spectrum, srp_phat_spectrum
from .evaluate import (
    accuracy_at,
    angular_error,
    auc_source_count,
    hungarian_assign,
    pick_peaks,
)
from .interp import (
    CoordNetConfig,
    ShBasisConfig,
    SparseSvMeasurements,
    fit_coordnet,
    fit_sh,
    interp_error_report,
    interp_svs,
)
from .scenes import SceneSpec, SceneTruth, scene_batch, synth_scene, synthetic_measured_svs
from .signal import AudioBuffer, Spectrogram, StftParams, read_wav, stft, write_wav
from .stable import (
    AlphaParam,
    LevySketch,
    SolverConfig,
    SpatialMeasure,
    build_psi,
    estimate_alpha,
    levy_estimator,
    multiplicative_update,
    sample_sas,
    shamans_localize,
)
from .steering import (
    ArrayGeometry,
    DoaGrid,
    NormalizedSVSet,
    SteeringVectorSet,
    algebraic_svs,
    load_svset,
    normalize_svs,
    save_svset,
)

__version__ = "0.1.0"

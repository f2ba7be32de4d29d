"""Two-photon interference in multimode interferometers: simulation and analysis."""

from .characterize import (FringeDataset, ReconstructionResult, reconstruct_matrix,
                           simulate_fringes)
from .core import (CoincidenceDistribution, coincidence_classical, coincidence_mixture,
                   coincidence_quantum, fit_visibility, fock_oracle, mode_pairs,
                   renormalization_magnitude)
from .instrument import (DetectorConfig, Layout, SourceConfig, TruthRecord,
                         expected_pair_rate, simulate_run)
from .matrix import (TransferMatrix, balanced_splitter, builtin_matrix, gauge_fix,
                     measured_chip_matrix, random_unitary)
from .stats import (SimilarityResult, exceedance_probability, poisson_mc_similarity,
                    random_baseline, similarity, similarity_vs_dt)
from .tagstream import (CoincidenceSet, Histogram, TimeTagStream, cross_correlate,
                        deadtime_correction, extract_coincidences, g2_zero,
                        sliding_histogram)
from .temporal import (CoherenceModel, HomProfile, JointDensity, Wavepacket,
                       calibrate_gaussian_jitter, hom_profile, joint_density,
                       sin2_envelope)

__version__ = "0.1.0"

__all__ = [
    "CoherenceModel", "CoincidenceDistribution", "CoincidenceSet",
    "DetectorConfig", "FringeDataset", "Histogram", "HomProfile",
    "JointDensity", "Layout", "ReconstructionResult", "SimilarityResult",
    "SourceConfig", "TimeTagStream", "TransferMatrix", "TruthRecord",
    "Wavepacket", "balanced_splitter", "builtin_matrix",
    "calibrate_gaussian_jitter", "coincidence_classical", "coincidence_mixture",
    "coincidence_quantum", "cross_correlate", "deadtime_correction",
    "exceedance_probability", "expected_pair_rate", "extract_coincidences",
    "fit_visibility", "fock_oracle", "g2_zero", "gauge_fix", "hom_profile",
    "joint_density", "measured_chip_matrix", "mode_pairs",
    "poisson_mc_similarity", "random_baseline", "random_unitary",
    "renormalization_magnitude", "similarity", "similarity_vs_dt",
    "simulate_fringes", "simulate_run", "sin2_envelope", "sliding_histogram",
    "reconstruct_matrix",
]

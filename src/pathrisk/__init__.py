"""Desk-scale toolkit: executable pathology detectors over model-output
traces, expectile value-at-risk aggregation with a deployment gate,
holonorm transformer verification, and a constrained delegation game."""

__version__ = "0.1.0"

from .records import (CausalFixture, ClassificationRecord, CorpusError,
                      KnowledgeBase, RecordValidationError, TraceRecord,
                      load_causal_fixtures, load_knowledge_base,
                      load_trace_corpus, save_trace_corpus)
from .registry import (ALIAS_GROUPS, Arity, DetectorOutcome, Family,
                       PathologyId, REGISTRY, ValidationReport,
                       distinct_pathology_count, pathology_ids,
                       validate_corpus)
from .metrics import (MIEstimatorConfig, avg_pairwise_similarity, coherence,
                      contextual_distance, fluency, mutual_information,
                      semantic_entropy, sim, sim_matrix)
from .generative import (AuditResult, DetectorError, GenerativeConfig,
                         audit_generative, score)
from .discriminative import (DiscriminativeConfig, DriftWindow,
                             audit_discriminative,
                             expected_calibration_error,
                             score_discriminative)
from .risk import (ExpectileConfig, RiskReport, bernoulli_expectile,
                   expectile, expectile_foc_residual,
                   expvar_binary_monotonicity_check, pareto_scan,
                   risk_report)
from .holonorm import (DensityCheckConfig, HolonormModel,
                       constant_param_degeneracy_check,
                       density_transform_check, det_jacobian_inverse_hn,
                       forward, hn, inverse_hn,
                       matrix_determinant_lemma_check)
from .game import (AgentSpec, GameState, MeanField, QuadraticTargetCost,
                   SharedConstraints, best_response, deployment_gate,
                   solve_nash, stackelberg_loop)

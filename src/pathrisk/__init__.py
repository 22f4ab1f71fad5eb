"""Desk-scale toolkit: executable pathology detectors over model-output
traces, expectile value-at-risk aggregation with a deployment gate,
holonorm transformer verification, and a constrained delegation game."""

__version__ = "0.1.0"

from .records import (CausalFixture, ClassificationRecord, CorpusError,
                      KnowledgeBase, RecordValidationError, TraceRecord,
                      load_causal_fixtures, load_knowledge_base,
                      load_trace_corpus, save_trace_corpus)
from .registry import (ALIAS_GROUPS, DetectorOutcome, Family, REGISTRY,
                       ValidationReport, distinct_pathology_count,
                       pathology_ids, validate_corpus)
from .metrics import (MIEstimatorConfig, avg_pairwise_similarity, coherence,
                      contextual_distance, fluency, mutual_information,
                      semantic_entropy, sim, sim_matrix)
from .generative import (Arity, AuditResult, DetectorError,
                         GenerativeConfig, audit_generative, score)
from .discriminative import (DiscriminativeConfig, audit_discriminative,
                             expected_calibration_error,
                             score_discriminative)
from .risk import (ExpectileConfig, GateResult, RiskReport,
                   bernoulli_expectile, deployment_gate, expectile,
                   expectile_foc_residual, pareto_scan, resolve_eps,
                   risk_report)
from .holonorm import (DensityCheckConfig, HolonormModel,
                       constant_param_degeneracy_check,
                       density_transform_check, det_jacobian_inverse_hn,
                       forward, hn, inverse_hn,
                       matrix_determinant_lemma_check)
from .game import (AgentSpec, GameState, SharedConstraints, best_response,
                   solve_nash, stackelberg_loop)

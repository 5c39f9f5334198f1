"""Local classifier two-sample tests for simulation-based inference validation.

Validates a conditional density estimator q(theta | x) against the true
posterior at specific observations, using only samples from the joint
distribution: train a classifier to tell estimator pairs from simulator pairs,
then score how far its predicted probabilities sit from chance.  Includes the
oracle two-sample test (when reference posterior samples exist), the local
variant with permutation nulls, a faster specialization for normalizing-flow
estimators, PP-plot and heatmap diagnostics, and an experiment harness.
"""

from .classifiers import (
    AnalyticBayesClassifier,
    MlpConfig,
    MlpModel,
    QdaModel,
    analytic_bayes,
    mlp_factory,
    mlp_fit,
    mlp_grad_check,
    qda_factory,
    qda_fit,
    save_classifier,
    load_classifier,
)
from .core import (
    ConfigurationError,
    DataFormatError,
    FitError,
    JointDataset,
    LabeledPairDataset,
    Lc2stError,
    NumericError,
    OracleUnavailableError,
    RngStream,
    TrainingError,
    UndefinedPointError,
    derive_stream,
    load_dataset,
    load_metadata,
    save_dataset,
)
from .c2st import (
    NullEnsemble,
    PPPlotData,
    TestResult,
    TestRun,
    fit_null_ensemble,
    lc2st_evaluate,
    lc2st_nf_evaluate,
    lc2st_nf_null,
    lc2st_nf_train,
    lc2st_train,
    lc2st_training_set,
    p_value_from_null,
    pp_plot,
    probability_heatmap,
    run_test,
    t_acc,
    t_acc0,
    t_mse,
    t_mse0,
)
from .flows import (
    ConditionalAffineFlow,
    ConditionalFlow,
    NpeConfig,
    build_coupling_flow,
    conjugate_affine_flow,
    flow_fit_npe,
    load_flow,
    npe_grad_check,
    save_flow,
)
from .tasks import (
    GaussianShiftPair,
    Task,
    distort,
    gaussian_conjugate_task,
    gaussian_linear_uniform_task,
    gaussian_mixture_task,
    gaussian_shift_samples,
    make_task,
    two_moons_task,
)
from .harness import (
    ExperimentPlan,
    SweepResult,
    run_oracle_correlation,
    run_power,
    run_sigma_sweep,
    run_type1,
)

__version__ = "0.1.0"

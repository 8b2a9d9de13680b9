"""Sphere-model quantum machine: a point particle on the unit sphere
measured by a breakable band whose break point is the hidden variable.

The band half-width epsilon interpolates between the spin-1/2 quantum
probabilities (epsilon = 1) and a deterministic classical experiment
(epsilon = 0); in between, the conditional statistics fit neither a
Kolmogorov joint distribution nor 2-D Hilbert transition probabilities,
and this package computes all of it: exact probabilities, seeded trials,
conditioned states, conditional probabilities by three routes, exact
embeddability verdicts, and the opinion-poll mapping.
"""

__version__ = "0.14.0"

from .conditional import (
    ConditionalQuery,
    ConditionalResult,
    Method,
    Validity,
    conditional_closed_form,
    conditional_mc,
    conditional_quad,
    sweep,
    symmetric_query,
)
from .embedding import (
    CondProb,
    HilbertVerdict,
    KolmogorovVerdict,
    ModelClass,
    TriadData,
    check_hilbert2d,
    check_kolmogorov,
    classify,
    joint_constraints,
    paper_triad,
)
from .errors import ConditioningError, DomainError, InconsistentDataError, QuadratureError
from .geometry import (
    SectorCap,
    UnitVector,
    angle_between,
    cap_area_fraction,
    cap_intersection_fraction,
    sample_uniform_sphere,
    sector_angles,
    unit_vector_at_angle,
)
from .machine import (
    EpsilonExperiment,
    Outcome,
    estimate_probability_mc,
    p1_given_projection,
)
from .measures import CapUniform, MixedState, Uniform, condition, eig_set
from .spin import SpinObservable, SpinState, spin_operator, spin_state, transition_probability
from .survey import (
    QuestionStats,
    RegionCensus,
    SurveyClassification,
    SurveyModel,
    build_survey_model,
    classify_survey,
    fit_epsilon_model,
    predict_conditionals,
    region_census,
)

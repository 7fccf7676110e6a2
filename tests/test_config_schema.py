"""Configuration schema: the tree is derived from the dataclasses and round-trips.

The flat `key = value` files written by ``run --dump-config`` are the image
of config_tree; these tests pin that every dataclass field is in it, and
that dumping, parsing and rebuilding random valid configurations gives back
equal objects and the same bytes.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcool import (
    DecoherenceRates,
    DensityMatrix,
    IntegratorConfig,
    LevelSystem,
    Modulation,
    PulseTrainConfig,
)
from combcool.cli import _template_tree, config_lines, objects_from_tree, tree_from_config_file
from combcool.core import VECTOR_COMPONENTS, config_tree


def _positive(lo=1e-3, hi=1e3):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _non_negative(hi=10.0):
    return st.floats(min_value=0.0, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def level_systems(draw):
    omega21 = draw(_positive())
    return LevelSystem.from_transitions(omega21, omega21 + draw(_positive()))


@st.composite
def modulations(draw):
    kind = draw(st.sampled_from(("none", "sine", "cosine")))
    return Modulation(kind, draw(_non_negative()), draw(_positive()))


@st.composite
def pulse_trains(draw):
    tau = draw(_positive(1e-3, 10.0))
    return PulseTrainConfig(
        rabi_peak=draw(_non_negative()),
        omega_L=draw(_positive()),
        tau=tau,
        T=tau * draw(_positive(10.0, 1e4)),
        N=draw(st.integers(1, 10_000)),
        phi=draw(st.floats(-10.0, 10.0)),
        modulation=draw(modulations()),
    )


rates_strategy = st.builds(
    DecoherenceRates, *(_non_negative() for _ in range(5))
)

integrators = st.builds(
    IntegratorConfig,
    step_in_pulse=st.none() | _positive(1e-6, 1.0),
    sampler_stride=st.integers(1, 100),
    window_sigmas=_positive(0.1, 20.0),
    gap_samples=st.integers(0, 10),
    trace_tol=_positive(1e-15, 1.0),
    pop_tol=_positive(1e-15, 1.0),
    early_stop_pulses=st.integers(0, 100),
    early_stop_tol=_positive(1e-15, 1.0),
    interpulse_phases=st.booleans(),
)

states = st.builds(
    lambda values: DensityMatrix.from_vector(values),
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("schema")


def _dump(objects) -> str:
    return "\n".join(config_lines(config_tree(*objects))) + "\n"


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(derandomize=True, deadline=None, database=None)
@given(st.tuples(level_systems(), pulse_trains(), rates_strategy, integrators, states))
def test_dump_parse_rebuild_round_trips(config_dir, objects):
    text = _dump(objects)
    path = config_dir / "random.cfg"
    path.write_text(text, encoding="utf-8")
    rebuilt = objects_from_tree(tree_from_config_file(path))
    assert rebuilt == objects
    assert _dump(rebuilt) == text


def test_template_tree_keys_are_the_dataclass_fields():
    tree = _template_tree()
    sections = {
        "system": LevelSystem,
        "train": PulseTrainConfig,
        "rates": DecoherenceRates,
        "integrator": IntegratorConfig,
    }
    assert list(tree) == [*sections, "rho0"]
    for name, cls in sections.items():
        assert list(tree[name]) == [f.name for f in fields(cls)]
    assert list(tree["train"]["modulation"]) == [f.name for f in fields(Modulation)]
    assert list(tree["rho0"]) == list(VECTOR_COMPONENTS)
